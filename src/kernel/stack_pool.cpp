// stlm-lint: hot-path — every spawned thread process acquires a stack
// here; steady-state sweeps must recycle cached blocks, not remap them
// (see tools/stlm_lint.py).
#include "kernel/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>

#include "kernel/context.hpp"
#include "kernel/report.hpp"

#ifdef STLM_ASAN_FIBERS
extern "C" void __asan_unpoison_memory_region(const void* addr,
                                              std::size_t size);
#endif

namespace stlm::detail {

namespace {
std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

StackPool& StackPool::local() {
  thread_local StackPool pool;
  return pool;
}

StackPool::~StackPool() { trim(); }

StackPool::Block StackPool::map_block() {
  const std::size_t page = page_size();
  // stlm-lint: allow(hot-path-syscall): cache miss only — the pool maps a
  // block when its demand exceeds every earlier peak
  void* raw = ::mmap(nullptr, kStackBytes + page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    throw SimulationError("StackPool: mmap failed for coroutine stack");
  }
  // Guard page below the stack: an overflow faults instead of silently
  // scribbling over whatever mmap placed underneath.
  // stlm-lint: allow(hot-path-syscall): once per fresh mapping (see above)
  ::mprotect(raw, page, PROT_NONE);
  Block b;
  b.base = static_cast<char*>(raw) + page;
#ifdef STLM_ASAN_FIBERS
  // munmap does not clear ASan shadow, so a fresh mapping can inherit
  // stale redzone poison from an earlier coroutine stack unmapped at
  // the same address.
  __asan_unpoison_memory_region(b.base, kStackBytes);
#endif
  return b;
}

void StackPool::unmap_block(const Block& b) {
  const std::size_t page = page_size();
  // stlm-lint: allow(hot-path-syscall): trim(), pool teardown and
  // cross-thread releases only; a same-thread release always caches
  ::munmap(b.base - page, kStackBytes + page);
}

void StackPool::reconcile() {
  // A plain load on the common path: the owner's acquire/release take
  // the cache line exclusively only after a foreign release.
  if (foreign_released_.load(std::memory_order_relaxed) == 0) return;
  // stlm-lint: allow(hot-path-atomic): only after a cross-thread release
  const std::size_t n = foreign_released_.exchange(
      0, std::memory_order_relaxed);
  in_use_ -= std::min(n, in_use_);
}

StackPool::Block StackPool::acquire() {
  reconcile();
  ++in_use_;
  if (in_use_ > peak_in_use_) peak_in_use_ = in_use_;
  Block b;
  if (!free_.empty()) {
    b = free_.back();
    free_.pop_back();
    ++reuses_;
#ifdef STLM_ASAN_FIBERS
    // The previous coroutine's shadow poison is meaningless for the next
    // user of this address range.
    __asan_unpoison_memory_region(b.base, kStackBytes);
#endif
  } else {
    ++maps_;
    b = map_block();
  }
  b.owner = this;
  return b;
}

void StackPool::release(Block b) {
  if (!b) return;
  if (b.owner != this) {
    // Cross-thread release: the Process outlived the thread context it
    // was created on. Never touch the foreign pool's list — return the
    // pages to the kernel here and credit the owning pool through its
    // atomic, which the owner reconciles on its next operation (the
    // owning thread's pool must still be alive; see the header).
    // stlm-lint: allow(hot-path-atomic): cross-thread release only, which
    // unmaps the block anyway
    b.owner->foreign_released_.fetch_add(1, std::memory_order_relaxed);
    ++unmaps_;
    unmap_block(b);
    return;
  }
  reconcile();
  if (in_use_ > 0) --in_use_;
  free_.push_back(b);
}

void StackPool::trim() {
  reconcile();
  for (const Block& b : free_) {
    ++unmaps_;
    unmap_block(b);
  }
  free_.clear();
}

}  // namespace stlm::detail
