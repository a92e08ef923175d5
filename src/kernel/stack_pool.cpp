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

StackPool::Block StackPool::map_block(std::size_t bytes) {
  const std::size_t page = page_size();
  // stlm-lint: allow(hot-path-syscall): cache miss only — a class maps a
  // block when its demand exceeds every earlier peak
  void* raw = ::mmap(nullptr, bytes + page, PROT_READ | PROT_WRITE,
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
  b.bytes = bytes;
#ifdef STLM_ASAN_FIBERS
  // munmap does not clear ASan shadow, so a fresh mapping can inherit
  // stale redzone poison from an earlier coroutine stack unmapped at
  // the same address.
  __asan_unpoison_memory_region(b.base, b.bytes);
#endif
  return b;
}

void StackPool::unmap_block(const Block& b) {
  const std::size_t page = page_size();
  // stlm-lint: allow(hot-path-syscall): trim(), pool teardown and
  // cross-thread releases only; a same-thread release always caches
  ::munmap(b.base - page, b.bytes + page);
}

void StackPool::reconcile(SizeClass& sc) {
  const std::size_t n =
      sc.foreign_released.exchange(0, std::memory_order_relaxed);
  sc.in_use -= std::min(n, sc.in_use);
}

StackPool::Block StackPool::acquire(std::size_t bytes) {
  const std::size_t page = page_size();
  bytes = (bytes + page - 1) / page * page;
  SizeClass& sc = classes_[bytes];
  reconcile(sc);
  ++sc.in_use;
  // Pool-level concurrent-usage high-water for profiler snapshots; the
  // class map is tiny (one or two stack sizes), so the sum is cheap.
  const std::size_t total = in_use_blocks();
  if (total > peak_in_use_) peak_in_use_ = total;
  Block b;
  if (!sc.free.empty()) {
    b = sc.free.back();
    sc.free.pop_back();
    ++reuses_;
#ifdef STLM_ASAN_FIBERS
    // The previous coroutine's shadow poison is meaningless for the next
    // user of this address range.
    __asan_unpoison_memory_region(b.base, b.bytes);
#endif
  } else {
    ++maps_;
    b = map_block(bytes);
  }
  b.owner = this;
  b.home = &sc;
  return b;
}

void StackPool::release(Block b) {
  if (!b) return;
  if (b.owner != this) {
    // Cross-thread release: the Process outlived the thread context it
    // was created on. Never touch the foreign pool's lists — return the
    // pages to the kernel here and credit the owning size class through
    // its atomic, which the owner reconciles on its next operation (the
    // owning thread's pool must still be alive; see the header).
    b.home->foreign_released.fetch_add(1, std::memory_order_relaxed);
    ++unmaps_;
    unmap_block(b);
    return;
  }
  SizeClass& sc = *b.home;
  reconcile(sc);
  if (sc.in_use > 0) --sc.in_use;
  sc.free.push_back(b);
}

void StackPool::trim() {
  for (auto& [bytes, sc] : classes_) {
    reconcile(sc);
    for (const Block& b : sc.free) {
      ++unmaps_;
      unmap_block(b);
    }
    sc.free.clear();
  }
}

std::size_t StackPool::cached_blocks() const {
  std::size_t n = 0;
  for (const auto& [bytes, sc] : classes_) n += sc.free.size();
  return n;
}

std::size_t StackPool::cached_bytes() const {
  std::size_t n = 0;
  for (const auto& [bytes, sc] : classes_) n += bytes * sc.free.size();
  return n;
}

std::size_t StackPool::in_use_blocks() const {
  std::size_t n = 0;
  for (const auto& [bytes, sc] : classes_) n += sc.in_use;
  return n;
}

}  // namespace stlm::detail
