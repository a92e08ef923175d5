#include "explore/pool.hpp"

#include <utility>

namespace stlm::expl {

namespace {
// Which pool/worker the current thread is executing a task for, so
// submit() from inside a task can route to the worker's own deque.
thread_local WorkPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;
}  // namespace

WorkPool::WorkPool(unsigned n_threads, ThreadFactory factory)
    : requested_(n_threads > 1 ? n_threads - 1 : 0),
      factory_(std::move(factory)) {
  if (!factory_) {
    factory_ = [](std::function<void()> body) {
      return std::thread(std::move(body));
    };
  }
  queues_.resize(static_cast<std::size_t>(requested_) + 1);
}

void WorkPool::submit(Task t) {
  {
    std::lock_guard<std::mutex> lock(m_);
    ++pending_;
    if (tls_pool == this) {
      queues_[tls_worker].push_back(std::move(t));
    } else {
      inject_.push_back(std::move(t));
    }
  }
  cv_.notify_one();
}

WorkPool::Task WorkPool::take_locked(std::size_t w) {
  // Own deque from the back: LIFO keeps a worker's freshly discovered
  // neighbors (mutation proposals) on the worker that proposed them.
  if (!queues_[w].empty()) {
    Task t = std::move(queues_[w].back());
    queues_[w].pop_back();
    return t;
  }
  if (!inject_.empty()) {
    Task t = std::move(inject_.front());
    inject_.pop_front();
    return t;
  }
  // Steal from the front of a victim: the oldest task is the one the
  // owner is least likely to touch next.
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    const std::size_t victim = (w + i) % queues_.size();
    if (!queues_[victim].empty()) {
      Task t = std::move(queues_[victim].front());
      queues_[victim].pop_front();
      return t;
    }
  }
  return nullptr;
}

void WorkPool::worker_loop(std::size_t w) {
  WorkPool* const prev_pool = tls_pool;
  const std::size_t prev_worker = tls_worker;
  tls_pool = this;
  tls_worker = w;

  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    if (Task t = take_locked(w)) {
      const bool skip = abort_;
      lock.unlock();
      if (!skip) {
        try {
          t();
        } catch (...) {
          std::lock_guard<std::mutex> elock(m_);
          if (!first_error_) first_error_ = std::current_exception();
          abort_ = true;
        }
      }
      t = nullptr;  // destroy the closure outside the relock below
      lock.lock();
      if (--pending_ == 0) cv_.notify_all();
      continue;
    }
    if (pending_ == 0) break;
    // Work exists but is all in flight (or was just submitted); sleep
    // until a submit or the final completion wakes us.
    cv_.wait(lock);
  }

  tls_pool = prev_pool;
  tls_worker = prev_worker;
}

void WorkPool::run() {
  {
    std::lock_guard<std::mutex> lock(m_);
    abort_ = false;
    first_error_ = nullptr;
    spawn_failures_ = 0;
  }
  std::vector<std::thread> helpers;
  helpers.reserve(requested_);
  for (unsigned h = 0; h < requested_; ++h) {
    const std::size_t w = static_cast<std::size_t>(h) + 1;
    try {
      helpers.push_back(factory_([this, w] { worker_loop(w); }));
    } catch (...) {
      // Thread creation can fail (EAGAIN under a thread limit). The
      // caller still participates below, so the run always completes;
      // record the degradation instead of losing it or letting ~thread()
      // terminate the process.
      std::lock_guard<std::mutex> lock(m_);
      ++spawn_failures_;
    }
  }
  worker_loop(0);
  for (auto& th : helpers) th.join();
}

}  // namespace stlm::expl
