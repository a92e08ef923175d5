#include "explore/pool.hpp"

#include <utility>
#include <vector>

namespace stlm::expl {

WorkPool::WorkPool(unsigned n_threads, ThreadFactory factory)
    : requested_(n_threads > 1 ? n_threads - 1 : 0),
      factory_(std::move(factory)) {
  if (!factory_) {
    factory_ = [](std::function<void()> body) {
      return std::thread(std::move(body));
    };
  }
}

void WorkPool::submit(Task t) {
  {
    std::lock_guard<std::mutex> lock(m_);
    ++pending_;
    queue_.push_back(std::move(t));
  }
  cv_.notify_one();
}

void WorkPool::worker_loop() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    if (!queue_.empty()) {
      Task t = std::move(queue_.front());
      queue_.pop_front();
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
    // Work exists but is all in flight; sleep until a submit or the
    // final completion wakes us.
    cv_.wait(lock);
  }
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
    try {
      helpers.push_back(factory_([this] { worker_loop(); }));
    } catch (...) {
      // Thread creation can fail (EAGAIN under a thread limit). The
      // caller still participates below, so the run always completes;
      // record the degradation instead of losing it or letting ~thread()
      // terminate the process.
      std::lock_guard<std::mutex> lock(m_);
      ++spawn_failures_;
    }
  }
  worker_loop();
  for (auto& th : helpers) th.join();
}

}  // namespace stlm::expl
