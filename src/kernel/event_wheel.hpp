#pragma once
// Calendar-queue (bucketed event wheel) for the timed notification queue.
//
// The kernel's hot timed-scheduling pattern is thousands of short waits
// clustered a few bus cycles apart: wait(cycle), wait(occupancy),
// per-transaction timeouts. A binary heap pays O(log n) comparisons and a
// cache-hostile sift per push/pop for what is almost always "append near
// the cursor, pop from the front". The wheel quantises absolute
// timestamps into fixed-width buckets (kBucketShift bits of femtoseconds
// per bucket, so one bucket ≈ 1 ns — below any modeled clock period) and
// keeps a cursor that only moves forward; push is an O(1) append for any
// event within the wheel window (~2 µs), and later events wait in a
// conventional min-heap.
//
// The window follows simulated time. It moves only when time reaches an
// overflow entry (pop() re-anchors it at that entry's bucket) or when a
// push falls past an empty wheel's window (re-anchored at `now`, which is
// why push takes it). peek() never moves it: a lone runner that peeks at
// a far-future watchdog and then advances inline to an earlier instant
// keeps the window where its next notifications land. So
// base_ <= bucket(now) <= bucket of every queued entry always holds, and
// no push ever falls before the window.
//
// Determinism contract (tested by kernel tie-break tests): entries that
// share a timestamp fire in push order. Every entry carries the
// Simulator's monotonically increasing sequence number; buckets sort
// lazily by (when, seq) and the overflow heap orders by the same key, so
// the wheel reproduces the old std::priority_queue order exactly —
// including across the overflow/wheel boundary, because a timestamp's
// entries always land on the same side of it.
//
// Cancellation: the wheel never removes an entry eagerly. Event::cancel
// and notify-override bump the owner's generation counter; the wheel
// prunes such stale entries when they reach the front, via the caller's
// StaleFn (a plain function pointer + context, so peek allocates
// nothing). This is the same lazy scheme the heap used.
//
// Storage: the bucket array is taken on the first push and, when the
// wheel is destroyed, handed to a small per-OS-thread spare list (like
// StackPool's stacks) with only its occupied buckets cleared. The next
// Simulator on that thread reuses the array and the capacity its buckets
// grew, so an exploration sweep builds no bucket array per cell.

#include <array>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "kernel/thread_spares.hpp"
#include "kernel/time.hpp"

namespace stlm {

class Event;
class Process;

namespace detail {

// One timed registration: exactly one of event/proc is set. `gen` is the
// owner's generation counter at registration; a mismatch marks the entry
// stale (cancelled or overridden).
struct TimedEntry {
  Time when;
  std::uint64_t seq;  // FIFO tie-break for determinism
  Event* event;
  Process* proc;
  std::uint64_t gen;
  bool operator>(const TimedEntry& o) const {
    if (when != o.when) return when > o.when;
    return seq > o.seq;
  }
};

class EventWheel {
public:
  // Stale predicate: plain function pointer + opaque context so that
  // peek() can prune without allocating a std::function.
  using StaleFn = bool (*)(const void* ctx, const TimedEntry& e);

  // 2^20 fs ≈ 1.05 ns per bucket: finer than any modeled clock period,
  // so same-cycle events share a bucket and different cycles rarely do.
  static constexpr unsigned kBucketShift = 20;
  // 2048 buckets ≈ 2.1 µs of look-ahead before events spill to the
  // overflow heap. Power of two so the slot mask is a single AND.
  static constexpr std::size_t kWheelBuckets = 2048;

  EventWheel();
  // Returns the bucket array to the calling thread's spare list.
  ~EventWheel();
  EventWheel(const EventWheel&) = delete;
  EventWheel& operator=(const EventWheel&) = delete;

  // Number of queued entries, including not-yet-pruned stale ones (the
  // same semantics the heap's empty()/size() had, which idle() relies
  // on: a cancelled-but-unpruned entry keeps the simulator non-idle).
  std::size_t size() const { return wheel_count_ + overflow_.size(); }
  bool empty() const { return size() == 0; }

  // Queue an entry at `e.when` >= `now`, the simulator's current time;
  // entries past the wheel window go to the overflow heap. A push past
  // an empty wheel's window first re-anchors the window at `now`.
  void push(const TimedEntry& e, Time now);

  // Behaviour counters for the obs::Profiler: how often pushes landed in
  // the wheel vs. spilled to the overflow heap, how often the window was
  // re-anchored, and the peak queue occupancy. Plain members (no heap, no
  // branches beyond an increment) so this file's hot-path contract holds.
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t overflow_pushes = 0;
    std::uint64_t rebases = 0;
    std::size_t peak_size = 0;
  };
  const Stats& stats() const { return stats_; }

  // Earliest live entry, pruning stale leading entries via `stale`; with
  // the wheel drained, the overflow heap's top. Never moves the window.
  // Returns nullptr when nothing live remains. The pointer is valid
  // until the next push/pop/peek.
  const TimedEntry* peek(StaleFn stale, const void* ctx);

  // Remove and return the entry peek() just returned. Must be called
  // immediately after a successful peek(), with no intervening push, and
  // only once simulated time has reached it: popping an overflow entry
  // re-anchors the window at its bucket.
  TimedEntry pop();

private:
  struct Bucket {
    std::vector<TimedEntry> v;
    std::size_t head = 0;  // consumed prefix
    bool sorted = true;    // [head, end) is (when, seq)-ordered
  };

  static std::uint64_t idx_of(Time t) {
    return t.femtoseconds() >> kBucketShift;
  }
  Bucket& bucket(std::uint64_t idx) {
    return buckets_[idx & (kWheelBuckets - 1)];
  }

  // Occupancy bitmap: one bit per bucket slot, set while the bucket has
  // unconsumed entries. Sparse timelines (events many cycles apart) would
  // otherwise make the peek cursor crawl over hundreds of empty buckets
  // per pop; with the bitmap it jumps straight to the next occupied slot
  // with a countr_zero per 64 buckets.
  static constexpr std::size_t kOccWords = kWheelBuckets / 64;
  void occ_set(std::uint64_t idx) {
    const std::size_t slot = idx & (kWheelBuckets - 1);
    occ_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void occ_clear(std::uint64_t idx) {
    const std::size_t slot = idx & (kWheelBuckets - 1);
    occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  // First occupied absolute bucket index >= `from` inside the wheel
  // window. Precondition: wheel_count_ > 0 (some bucket is occupied).
  std::uint64_t next_occupied(std::uint64_t from) const;

  // Spare bucket arrays kept per OS thread (kernel/thread_spares.hpp);
  // more are freed on release.
  using SpareArrays = ThreadSpares<std::vector<Bucket>, 2>;
  // Fill buckets_ on the first push: a spare array when one is cached,
  // otherwise a freshly built one.
  void take_buckets();

  void push_into_wheel(const TimedEntry& e, std::uint64_t idx);
  // Re-anchor the wheel window at absolute bucket `idx` (wheel must be
  // empty, idx <= every queued entry's bucket) and pull every overflow
  // entry inside the new window in.
  void rebase(std::uint64_t idx);

  std::vector<Bucket> buckets_;
  std::array<std::uint64_t, kOccWords> occ_{};
  std::priority_queue<TimedEntry, std::vector<TimedEntry>,
                      std::greater<TimedEntry>>
      overflow_;
  // Absolute bucket indices. The wheel window is [base_, base_ +
  // kWheelBuckets); entries at or past the end spill to overflow_.
  // scan_idx_ is the consume cursor: every wheel bucket below it is
  // empty. Invariants: base_ <= scan_idx_ <= base_ + kWheelBuckets, and
  // base_ <= bucket of the simulator's `now` (see the header comment).
  std::uint64_t base_ = 0;
  std::uint64_t scan_idx_ = 0;
  std::size_t wheel_count_ = 0;  // unconsumed entries in the wheel
  Stats stats_;
};

}  // namespace detail
}  // namespace stlm
