#pragma once
// Pooled coroutine stacks.
//
// Every thread process used to own a 256 KiB `new char[]` stack:
// allocation, zero-fill, and first-touch page faults on every spawn. A
// thousand-platform exploration sweep spawns tens of thousands of
// short-lived processes, so the stacks dominated platform setup cost.
//
// StackPool replaces that with a per-OS-thread free list of mmap'd
// blocks. Each block carries a PROT_NONE guard page below the usable
// range, so a coroutine overflowing its stack faults immediately instead
// of corrupting a neighbouring allocation — strictly better than the old
// heap arrays.
//
// Threading contract: each pool only ever touches its own lists, so no
// locking is needed on the hot path. A block remembers the pool (and
// size-class node) it was acquired from. Releasing it on another thread
// — a Process destroyed off its creating thread — never touches the
// foreign pool's lists: the pages are unmapped immediately and the
// owning size class is credited through an atomic counter, which the
// owner folds back into its usage count on its next operation. That
// keeps the owner's in_use count exact instead of ratcheting upward.
// The owning thread's pool must still be alive when the block is
// released (true for every use in this repo: a Simulator and its
// processes are torn down on the thread that created them).
//
// Cache policy: a released block always goes back on its size class's
// free list, and a block is mapped only when that list is empty. So a
// class caches at most its all-time peak concurrent demand, and a sweep
// whose cells need anywhere from 9 to 23 stacks maps the 23 once and
// then recycles them, with no mmap/munmap per cell. The cache never
// holds more touched stack pages than were resident at that peak (a
// cached block keeps only the pages its earlier users touched). trim() is the explicit valve that returns them to the kernel,
// and a thread's pool returns its blocks when the thread exits (so an
// exploration sweep's helper threads keep nothing after the sweep).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace stlm::detail {

class StackPool {
  struct SizeClass;

public:
  // A usable stack range: [base, base + bytes), guard page below base.
  // `owner`/`home` identify the acquiring pool and its size-class node,
  // so release() can detect a cross-thread return and credit the right
  // bookkeeping (see the threading contract above).
  struct Block {
    char* base = nullptr;
    std::size_t bytes = 0;
    StackPool* owner = nullptr;
    SizeClass* home = nullptr;
    explicit operator bool() const { return base != nullptr; }
  };

  // The calling OS thread's pool (thread-local singleton).
  static StackPool& local();

  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  // A block with at least `bytes` usable (rounded up to whole pages),
  // recycled from the free list when possible. Throws SimulationError
  // if the kernel refuses the mapping.
  Block acquire(std::size_t bytes);
  // Return a block acquired from a StackPool. Called on a pool other
  // than the acquiring one (cross-thread destruction), the block is
  // unmapped immediately and the owner credited — see the header
  // comment for the lifetime contract.
  void release(Block b);

  // Unmap every cached block (used by tests and the destructor).
  void trim();

  // --- observability (pool-behaviour regression tests) -------------------
  std::uint64_t maps() const { return maps_; }
  std::uint64_t unmaps() const { return unmaps_; }
  std::uint64_t reuses() const { return reuses_; }
  std::size_t cached_blocks() const;
  std::size_t cached_bytes() const;
  // Blocks acquired from this pool and not yet returned (a cross-thread
  // release counts once the pool has reconciled it, i.e. after the next
  // acquire/release/trim on this pool).
  std::size_t in_use_blocks() const;
  // Peak concurrent in-use blocks over the pool's lifetime (the stack
  // high-water the obs::Profiler reports).
  std::size_t peak_in_use_blocks() const { return peak_in_use_; }

private:
  StackPool() = default;

  // Size classes live in a node-based map: node addresses are stable
  // across rehash and for the pool's lifetime, which is what lets a
  // Block safely carry its `home` pointer to another thread.
  struct SizeClass {
    std::vector<Block> free;
    std::size_t in_use = 0;
    // Blocks of this class released on another thread since the last
    // reconcile; the only member a foreign thread may touch.
    std::atomic<std::size_t> foreign_released{0};
  };

  // Fold foreign (cross-thread) releases into the usage count.
  static void reconcile(SizeClass& sc);

  static Block map_block(std::size_t bytes);
  static void unmap_block(const Block& b);

  std::unordered_map<std::size_t, SizeClass> classes_;
  std::uint64_t maps_ = 0;
  std::uint64_t unmaps_ = 0;
  std::uint64_t reuses_ = 0;
  std::size_t peak_in_use_ = 0;
};

}  // namespace stlm::detail
