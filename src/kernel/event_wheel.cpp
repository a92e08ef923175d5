// stlm-lint: hot-path — dispatched on every event/delta; steady-state
// simulation must stay heap-allocation-free (see tools/stlm_lint.py).
#include "kernel/event_wheel.hpp"

#include <algorithm>
#include <bit>

namespace stlm::detail {

namespace {
inline bool entry_less(const TimedEntry& a, const TimedEntry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}
}  // namespace

// Bucket storage (2048 buckets, ~80 KiB) is taken on the first push:
// scratch simulators that never schedule a timed event (role discovery,
// construction-only tests) skip it entirely. Later simulators on the same
// OS thread reuse a destroyed wheel's array instead of building a new one.
EventWheel::EventWheel() = default;

EventWheel::~EventWheel() {
  if (buckets_.empty()) return;
  // A bucket's occupancy bit clears exactly when it drains (and resets),
  // so only the occupied ones still hold entries.
  for (std::size_t w = 0; w < kOccWords; ++w) {
    for (std::uint64_t bits = occ_[w]; bits != 0; bits &= bits - 1) {
      Bucket& b = buckets_[(w << 6) +
                           static_cast<std::size_t>(std::countr_zero(bits))];
      b.v.clear();
      b.head = 0;
      b.sorted = true;
    }
  }
  SpareArrays::give(std::move(buckets_));
}

void EventWheel::take_buckets() {
  if (!SpareArrays::take(buckets_)) buckets_.resize(kWheelBuckets);
}

void EventWheel::push_into_wheel(const TimedEntry& e, std::uint64_t idx) {
  Bucket& b = bucket(idx);
  // Appends usually arrive in (when, seq) order (seq is monotone and most
  // bucket traffic is same-cycle); keep the sorted flag alive so peek()
  // skips the lazy sort on the common path.
  if (b.sorted && b.v.size() > b.head && entry_less(e, b.v.back())) {
    b.sorted = false;
  }
  b.v.push_back(e);
  ++wheel_count_;
  occ_set(idx);
  if (idx < scan_idx_) scan_idx_ = idx;
}

std::uint64_t EventWheel::next_occupied(std::uint64_t from) const {
  // Walk the bitmap word-wise from `from`'s slot, wrapping around the
  // window. Low 6 bits of an absolute index and of its slot agree
  // (kWheelBuckets is a multiple of 64), so an absolute index can be
  // rebuilt from the word scan directly.
  std::uint64_t idx = from;
  std::size_t word = (idx & (kWheelBuckets - 1)) >> 6;
  std::uint64_t mask = ~std::uint64_t{0} << (idx & 63);
  for (std::size_t step = 0; step <= kOccWords; ++step) {
    const std::uint64_t bits = occ_[word] & mask;
    if (bits) {
      return (idx & ~std::uint64_t{63}) +
             static_cast<std::uint64_t>(std::countr_zero(bits));
    }
    idx = (idx & ~std::uint64_t{63}) + 64;
    word = (word + 1) & (kOccWords - 1);
    mask = ~std::uint64_t{0};
  }
  return from;  // unreachable while the precondition holds
}

void EventWheel::push(const TimedEntry& e, Time now) {
  if (buckets_.empty()) take_buckets();
  ++stats_.pushes;
  const std::size_t sz = size() + 1;
  if (sz > stats_.peak_size) stats_.peak_size = sz;
  const std::uint64_t idx = idx_of(e.when);
  if (idx >= base_ + kWheelBuckets && wheel_count_ == 0 &&
      idx_of(now) != base_) {
    // Time moved on (inline advances) while the wheel sat empty: catch
    // the window up so this entry and the ones after it land near `now`.
    rebase(idx_of(now));
  }
  if (idx >= base_ + kWheelBuckets) {
    ++stats_.overflow_pushes;
    overflow_.push(e);
    return;
  }
  push_into_wheel(e, idx);
}

void EventWheel::rebase(std::uint64_t idx) {
  ++stats_.rebases;
  base_ = idx;
  scan_idx_ = idx;
  const std::uint64_t horizon = base_ + kWheelBuckets;
  // Min-heap pop order is (when, seq), so each bucket receives its
  // entries already sorted and the sorted flag survives.
  while (!overflow_.empty() && idx_of(overflow_.top().when) < horizon) {
    push_into_wheel(overflow_.top(), idx_of(overflow_.top().when));
    overflow_.pop();
  }
}

const TimedEntry* EventWheel::peek(StaleFn stale, const void* ctx) {
  for (;;) {
    if (wheel_count_ == 0) {
      // Report the overflow top without moving the window: time may
      // stop short of it, and the next pushes then still fit the window.
      while (!overflow_.empty() && stale(ctx, overflow_.top())) {
        overflow_.pop();
      }
      return overflow_.empty() ? nullptr : &overflow_.top();
    }
    scan_idx_ = next_occupied(scan_idx_);
    Bucket& b = bucket(scan_idx_);
    if (!b.sorted) {
      std::sort(b.v.begin() + static_cast<std::ptrdiff_t>(b.head), b.v.end(),
                entry_less);
      b.sorted = true;
    }
    const TimedEntry& e = b.v[b.head];
    if (stale(ctx, e)) {
      ++b.head;
      --wheel_count_;
      if (b.head == b.v.size()) {
        b.v.clear();
        b.head = 0;
        b.sorted = true;
        occ_clear(scan_idx_);
      }
      continue;
    }
    return &e;
  }
}

TimedEntry EventWheel::pop() {
  if (wheel_count_ == 0) {
    // Time has reached the overflow top: the window moves here, pulling
    // the entries that now fall inside it.
    const TimedEntry e = overflow_.top();
    overflow_.pop();
    rebase(idx_of(e.when));
    return e;
  }
  Bucket& b = bucket(scan_idx_);
  TimedEntry e = b.v[b.head++];
  --wheel_count_;
  if (b.head == b.v.size()) {
    b.v.clear();
    b.head = 0;
    b.sorted = true;
    occ_clear(scan_idx_);
  }
  return e;
}

}  // namespace stlm::detail
