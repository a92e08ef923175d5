#pragma once
// FIFO task pool for exploration sweeps and searches.
//
// Tasks are closures, and a running task may submit() further tasks
// (adaptive search enqueues mutated neighbors while a rung drains). All
// tasks share one FIFO queue: submit() appends from any thread and
// workers take from the front, so a one-worker pool runs tasks on the
// caller in submission order, and a task submitted from inside a running
// task runs after the tasks already queued. No task carries per-worker
// state, so there is nothing to keep warm on the worker that found it;
// first-in-first-out also lets the search reach a mutated cell by its
// shortest path first (see SearchDriver::run). One task here is a whole
// simulation run (milliseconds), so the single mutex sees negligible
// contention and the sleep/wake logic stays trivially correct.
//
// Determinism: the pool never decides *what* work exists or what it
// computes — only which thread runs it when. Callers that want
// bit-identical results across runs must make each task's effect a pure
// function of its own identity (write to slot i, derive RNG from a
// per-task seed), never of execution order. Every sweep/search in this
// repo follows that rule.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

namespace stlm::expl {

class WorkPool {
public:
  using Task = std::function<void()>;
  // Test seam: how helper threads are created. The default factory makes
  // a plain std::thread; tests substitute one that throws (simulating
  // EAGAIN under a thread limit) to exercise degraded-pool paths.
  using ThreadFactory = std::function<std::thread(std::function<void()>)>;

  // `n_threads` is the total worker count *including* the calling
  // thread: run() spawns n_threads - 1 helpers and then works the queue
  // itself, so a sweep completes even if every helper spawn fails.
  explicit WorkPool(unsigned n_threads, ThreadFactory factory = {});

  // Append a task to the queue. Callable before run() (seeding the
  // initial batch) and from inside a running task (dynamic work
  // discovery).
  void submit(Task t);

  // Run until every submitted task — including tasks submitted while
  // running — has executed, then return. After the first task throws,
  // remaining tasks are discarded (drained without executing) and the
  // exception is held for first_error(); run() itself does not throw.
  void run();

  // First exception thrown by any task in the last run(), or null.
  std::exception_ptr first_error() const { return first_error_; }

  // Helper threads requested (n_threads - 1) vs. creation failures in
  // the last run(). spawn_failures() > 0 means the sweep completed at
  // reduced parallelism — degraded, not wrong.
  unsigned helpers_requested() const { return requested_; }
  unsigned spawn_failures() const { return spawn_failures_; }

private:
  void worker_loop();

  unsigned requested_;  // helpers (total workers - 1)
  ThreadFactory factory_;

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::size_t pending_ = 0;  // submitted, not yet finished
  bool abort_ = false;
  std::exception_ptr first_error_;
  unsigned spawn_failures_ = 0;
};

}  // namespace stlm::expl
