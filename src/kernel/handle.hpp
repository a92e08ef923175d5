#pragma once
// Generation-checked handles: the kernel's one liveness rule.
//
// Every object the scheduler can reference (Event, ProcessBase, UpdateIf)
// owns a slot in its simulator's generation table, and every reference
// the scheduler keeps (timed entries, the delta list, the run queues,
// event and completion waiters, update requests) records the slot's
// generation when it was taken. The owner bumps the generation whenever
// its outstanding references must lapse: an event on cancel, override
// and trigger; a process on resume, kill and termination; every object
// at death, when the slot also goes back on the free list. "Alive and
// current" is then one comparison that never dereferences the object,
// and since a slot's generation only grows, no object built later — in
// recycled storage or on a recycled slot — can match an old handle.
//
// A table word is a key, generation << kSlotBits | slot, so a handle is
// 16 bytes and travels in two registers (as a 24-byte struct it went
// through memory, and the scheduler's loops ran 15-25% slower). A stale
// handle could match again only after 2^40 bumps of its slot.

#include <cstdint>
#include <vector>

#include "kernel/report.hpp"

namespace stlm::detail {

// A queued reference to a T; dereference `obj` only while current.
template <class T>
struct Handle {
  T* obj = nullptr;
  std::uint64_t key = 0;
};

class GenTable {
public:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  // A slot for a new object. Only this grows the table, so only object
  // construction allocates.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    STLM_ASSERT(keys_.size() <= kSlotMask, "generation table full");
    const auto s = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(s);  // generation 0
    // One free entry per slot at most: release() never allocates.
    if (free_.capacity() < keys_.capacity()) free_.reserve(keys_.capacity());
    return s;
  }
  void release(std::uint32_t slot) {
    bump(slot);
    free_.push_back(slot);
  }
  void bump(std::uint32_t slot) { keys_[slot] += kSlotMask + 1; }
  // Lapse every handle ever taken (Simulator::reset).
  void bump_all() {
    for (std::uint64_t& k : keys_) k += kSlotMask + 1;
  }
  std::uint64_t key(std::uint32_t slot) const { return keys_[slot]; }
  bool current(std::uint64_t key) const {
    return keys_[key & kSlotMask] == key;
  }

private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> free_;
};

}  // namespace stlm::detail
