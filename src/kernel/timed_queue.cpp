// stlm-lint: hot-path — dispatched on every event/delta; steady-state
// simulation must stay heap-allocation-free (see tools/stlm_lint.py).
#include "kernel/timed_queue.hpp"

#include <algorithm>
#include <functional>

namespace stlm::detail {

TimedQueue::~TimedQueue() {
  heap_.clear();
  Spare::give(std::move(heap_));
}

void TimedQueue::push(const TimedEntry& e) {
  // Scratch simulators that never schedule a timed event (role discovery,
  // construction-only tests) leave the spare to the next real cell.
  if (heap_.capacity() == 0) Spare::take(heap_);
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++stats_.pushes;
  if (heap_.size() > stats_.peak_size) stats_.peak_size = heap_.size();
}

const TimedEntry* TimedQueue::peek(StaleFn stale, const void* ctx) {
  while (!heap_.empty() && stale(ctx, heap_.front())) pop();
  return heap_.empty() ? nullptr : &heap_.front();
}

TimedEntry TimedQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const TimedEntry e = heap_.back();
  heap_.pop_back();
  return e;
}

}  // namespace stlm::detail
