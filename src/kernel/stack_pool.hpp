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
// Threading contract: each pool only ever touches its own list, so no
// locking is needed on the hot path. A block remembers the pool it was
// acquired from. Releasing it on another thread — a Process destroyed
// off its creating thread — never touches the foreign pool's list: the
// pages are unmapped immediately and the owning pool is credited
// through an atomic counter, which the owner folds back into its usage
// count on its next operation. That keeps the owner's in_use count exact
// instead of ratcheting upward. The owning thread's pool must still be
// alive when the block is released (true for every use in this repo: a
// Simulator and its processes are torn down on the thread that created
// them).
//
// Cache policy: every block has the same size (kStackBytes), a released
// block always goes back on the free list, and a block is mapped only
// when that list is empty. So the pool caches at most its all-time peak
// concurrent demand, and a sweep whose cells need anywhere from 9 to 23
// stacks maps the 23 once and then recycles them, with no mmap/munmap per
// cell. The cache never holds more touched stack pages than were resident
// at that peak (a cached block keeps only the pages its earlier users
// touched). trim() is the explicit valve that returns them to the kernel,
// and a thread's pool returns its blocks when the thread exits (so an
// exploration sweep's helper threads keep nothing after the sweep).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stlm::detail {

class StackPool {
public:
  // Usable bytes of every coroutine stack (a whole number of pages on
  // every supported page size).
  static constexpr std::size_t kStackBytes = 256 * 1024;

  // A usable stack range: [base, base + kStackBytes), guard page below
  // base. `owner` identifies the acquiring pool, so release() can detect
  // a cross-thread return (see the threading contract above).
  struct Block {
    char* base = nullptr;
    StackPool* owner = nullptr;
    explicit operator bool() const { return base != nullptr; }
  };

  // The calling OS thread's pool (thread-local singleton).
  static StackPool& local();

  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  // A block recycled from the free list when possible. Throws
  // SimulationError if the kernel refuses the mapping.
  Block acquire();
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
  std::size_t cached_blocks() const { return free_.size(); }
  std::size_t cached_bytes() const { return free_.size() * kStackBytes; }
  // Blocks acquired from this pool and not yet returned (a cross-thread
  // release counts once the pool has reconciled it, i.e. after the next
  // acquire/release/trim on this pool).
  std::size_t in_use_blocks() const { return in_use_; }
  // Peak concurrent in-use blocks over the pool's lifetime (the stack
  // high-water the obs::Profiler reports).
  std::size_t peak_in_use_blocks() const { return peak_in_use_; }

private:
  StackPool() = default;

  // Fold foreign (cross-thread) releases into the usage count.
  void reconcile();

  static Block map_block();
  static void unmap_block(const Block& b);

  std::vector<Block> free_;
  std::size_t in_use_ = 0;
  // Blocks of this pool released on another thread since the last
  // reconcile; the only member a foreign thread may touch.
  std::atomic<std::size_t> foreign_released_{0};
  std::uint64_t maps_ = 0;
  std::uint64_t unmaps_ = 0;
  std::uint64_t reuses_ = 0;
  std::size_t peak_in_use_ = 0;
};

}  // namespace stlm::detail
