#pragma once
// Banked memory target (OCP TL slave) — a realistically contended
// endpoint for workload-driven exploration.
//
// The flat MemorySlave charges one fixed access time; real memory
// controllers don't. This model adds the two effects that dominate
// contention studies:
//
//   * N independent banks, interleaved every `interleave_bytes`: an
//     access must wait until its bank's previous access released it
//     (bank-conflict penalty — back-to-back hits to one bank serialize,
//     accesses spread across banks pipeline);
//   * one open row per bank: hitting the open row costs `row_hit`,
//     switching rows costs `row_miss`.
//
// An access spanning several banks (burst longer than the interleave)
// occupies every bank it touches and pays the worst per-bank timing —
// CCATB-style: the total is charged as one timed wait at transaction
// granularity, no per-beat activity.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/report.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"
#include "ocp/tl_if.hpp"

namespace stlm::ocp {

struct BankedMemoryConfig {
  std::size_t banks = 4;
  std::size_t interleave_bytes = 64;  // consecutive 64B blocks rotate banks
  std::size_t row_bytes = 1024;       // open-row granularity
  Time row_hit = Time::ns(20);
  Time row_miss = Time::ns(60);
  // Recovery window: a bank stays busy this long after an access
  // completes (precharge/writeback); the next access touching it stalls
  // until the window closes (the conflict penalty).
  Time bank_busy = Time::ns(40);

  bool operator==(const BankedMemoryConfig&) const = default;
};

class BankedMemorySlave final : public ocp_tl_slave_if {
public:
  BankedMemorySlave(std::string name, std::uint64_t base, std::size_t size,
                    BankedMemoryConfig cfg = {})
      : name_(std::move(name)),
        base_(base),
        mem_(size, 0),
        cfg_(cfg),
        banks_(cfg.banks) {
    STLM_ASSERT(cfg_.banks > 0, "banked memory needs at least one bank: " +
                                    name_);
    STLM_ASSERT(cfg_.interleave_bytes > 0,
                "banked memory interleave must be positive: " + name_);
    STLM_ASSERT(cfg_.row_bytes > 0,
                "banked memory row size must be positive: " + name_);
  }

  using ocp_tl_slave_if::handle;
  // Bank state (free_at, open_row) evolves as a pure function of
  // (current time, offset, length), stamped when handle() is called, so
  // the caller waiting the returned latency never changes what the next
  // access observes.
  Time handle(Txn& txn) override {
    const std::size_t len = txn.payload_bytes();
    if (txn.addr < base_ || txn.addr + len > base_ + mem_.size()) {
      txn.respond_error();
      return Time::zero();
    }
    const Time latency = access_latency(txn.addr - base_, len ? len : 1);
    const std::size_t off = static_cast<std::size_t>(txn.addr - base_);
    if (txn.op == Txn::Op::Write) {
      std::copy(txn.data.begin(), txn.data.end(), mem_.begin() + off);
      mark_dirty(off, txn.data.size());
      ++writes_;
      txn.respond_ok();
    } else {
      ++reads_;
      txn.respond_data(mem_.data() + off, len);
    }
    return latency;
  }
  bool fast_capable() const override { return true; }

  // Back to the state right after construction (a reset system): zeroed
  // contents — only the span written since the last reset is touched —
  // closed rows, free banks and zero counters.
  void reset() {
    if (dirty_lo_ < dirty_hi_) {
      std::fill(mem_.begin() + static_cast<std::ptrdiff_t>(dirty_lo_),
                mem_.begin() + static_cast<std::ptrdiff_t>(dirty_hi_), 0);
    }
    dirty_lo_ = mem_.size();
    dirty_hi_ = 0;
    std::fill(banks_.begin(), banks_.end(), Bank{});
    reads_ = 0;
    writes_ = 0;
    row_hits_ = 0;
    row_misses_ = 0;
    bank_conflicts_ = 0;
    conflict_stall_ = Time::zero();
  }

  // Test/back-door access (no simulated time).
  std::uint8_t peek(std::uint64_t addr) const { return mem_.at(addr - base_); }
  void poke(std::uint64_t addr, std::uint8_t v) {
    mem_.at(addr - base_) = v;
    mark_dirty(static_cast<std::size_t>(addr - base_), 1);
  }

  std::uint64_t base() const { return base_; }
  std::size_t size() const { return mem_.size(); }
  const std::string& name() const { return name_; }
  const BankedMemoryConfig& config() const { return cfg_; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t row_hits() const { return row_hits_; }
  std::uint64_t row_misses() const { return row_misses_; }
  std::uint64_t bank_conflicts() const { return bank_conflicts_; }
  // Total simulated time accesses spent stalled on busy banks.
  Time conflict_stall() const { return conflict_stall_; }

private:
  struct Bank {
    Time free_at = Time::zero();
    std::uint64_t open_row = ~0ull;  // no row open yet
  };

  void mark_dirty(std::size_t off, std::size_t n) {
    dirty_lo_ = std::min(dirty_lo_, off);
    dirty_hi_ = std::max(dirty_hi_, off + n);
  }

  // Evolve the bank timing state for an access starting now and return
  // its service latency (stall-until-free + hit/miss).
  Time access_latency(std::uint64_t offset, std::size_t len) {
    Simulator& sim = Simulator::require_current();
    const Time now = sim.now();
    const std::size_t first =
        static_cast<std::size_t>(offset / cfg_.interleave_bytes) %
        cfg_.banks;
    const std::size_t span =
        (static_cast<std::size_t>(offset % cfg_.interleave_bytes) + len +
         cfg_.interleave_bytes - 1) /
        cfg_.interleave_bytes;
    const std::size_t touched = span < cfg_.banks ? span : cfg_.banks;
    const std::uint64_t row = offset / cfg_.row_bytes;

    // Stall until every touched bank is free, then pay the worst
    // hit/miss latency among them.
    Time ready = now;
    bool miss = false;
    bool conflict = false;
    for (std::size_t i = 0; i < touched; ++i) {
      Bank& b = banks_[(first + i) % cfg_.banks];
      if (b.free_at > ready) {
        ready = b.free_at;
        conflict = true;
      }
      if (b.open_row != row) miss = true;
    }
    if (conflict) {
      ++bank_conflicts_;
      conflict_stall_ += ready - now;
    }
    if (miss) {
      ++row_misses_;
    } else {
      ++row_hits_;
    }

    const Time done = ready + (miss ? cfg_.row_miss : cfg_.row_hit);
    for (std::size_t i = 0; i < touched; ++i) {
      Bank& b = banks_[(first + i) % cfg_.banks];
      b.free_at = done + cfg_.bank_busy;
      b.open_row = row;
    }
    return done - now;
  }

  std::string name_;
  std::uint64_t base_;
  std::vector<std::uint8_t> mem_;
  // [dirty_lo_, dirty_hi_): the bytes written since construction or the
  // last reset (empty when lo >= hi).
  std::size_t dirty_lo_ = mem_.size();
  std::size_t dirty_hi_ = 0;
  BankedMemoryConfig cfg_;
  std::vector<Bank> banks_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
  std::uint64_t bank_conflicts_ = 0;
  Time conflict_stall_ = Time::zero();
};

}  // namespace stlm::ocp
