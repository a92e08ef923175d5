#pragma once
// The simulator's timed notification queue: a binary min-heap.
//
// Determinism contract (tested by kernel tie-break tests): entries pop in
// (when, seq) order. Every entry carries the Simulator's monotonically
// increasing sequence number, so entries that share a timestamp fire in
// push order.
//
// Cancellation: the queue never removes an entry eagerly. Event::cancel
// and notify-override lapse the entry's handle (kernel/handle.hpp); peek()
// prunes such stale entries when they reach the top, via the caller's
// StaleFn (a plain function pointer + context, so peek allocates nothing).
//
// Storage: one vector, taken from the calling OS thread's spare slot on
// the first push and handed back, cleared, when the queue dies
// (kernel/thread_spares.hpp). The next Simulator on that thread reuses
// its capacity, so an exploration sweep grows no queue per cell.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernel/thread_spares.hpp"
#include "kernel/time.hpp"

namespace stlm {

namespace detail {

// One timed registration: an event's timed notification or a process's
// timeout. (target, key) is the registrant's handle (kernel/handle.hpp);
// once it lapses the entry is stale.
struct TimedEntry {
  Time when;
  std::uint64_t seq;  // FIFO tie-break for determinism
  void* target;       // Event* when is_event, else Process*
  std::uint64_t key;
  bool is_event;
  bool operator>(const TimedEntry& o) const {
    if (when != o.when) return when > o.when;
    return seq > o.seq;
  }
};

class TimedQueue {
public:
  // Stale predicate: plain function pointer + opaque context so that
  // peek() can prune without allocating a std::function.
  using StaleFn = bool (*)(const void* ctx, const TimedEntry& e);

  TimedQueue() = default;
  // Returns the vector to the calling thread's spare slot.
  ~TimedQueue();
  TimedQueue(const TimedQueue&) = delete;
  TimedQueue& operator=(const TimedQueue&) = delete;

  // Number of queued entries, including not-yet-pruned stale ones, which
  // idle() relies on: a cancelled-but-unpruned entry keeps the simulator
  // non-idle.
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  void push(const TimedEntry& e);
  // Drop every entry and restart the stats (Simulator::reset); keeps the
  // storage.
  void clear() {
    heap_.clear();
    stats_ = {};
  }

  // Behaviour counters for the obs::Profiler. overflow_pushes is always
  // 0 (a heap has no overflow tier); it stays only because the perfbench
  // driver still reads it.
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t overflow_pushes = 0;
    std::size_t peak_size = 0;
  };
  const Stats& stats() const { return stats_; }

  // Earliest live entry, pruning stale entries at the top via `stale`.
  // Returns nullptr when nothing live remains. The pointer is valid
  // until the next push/pop/peek.
  const TimedEntry* peek(StaleFn stale, const void* ctx);

  // Remove and return the entry peek() just returned. Must be called
  // right after a successful peek(), with no intervening push.
  TimedEntry pop();

private:
  using Spare = ThreadSpares<std::vector<TimedEntry>>;

  std::vector<TimedEntry> heap_;  // std::push_heap order, greater-on-top
  Stats stats_;
};

}  // namespace detail
}  // namespace stlm
