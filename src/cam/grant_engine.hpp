#pragma once
// Multi-queue grant engine: arbitration plus outstanding-transaction
// bookkeeping shared by the bus-style CAMs.
//
// The engine tracks, per master, a pending request queue (an intrusive
// TxnQueue — no allocation on enqueue/dequeue) and the count of granted
// but not-yet-retired transactions. The master of a transaction is the
// `master_id` its bus access point armed it with. A master is *eligible*
// for arbitration while it has a pending request and fewer than
// `max_outstanding` transactions in flight; `grant()` arbitrates among
// eligible masters only. This is what lets a split bus accept a new
// address phase while prior responses are still in flight, and what caps
// how deep each master may pipeline.
//
// With `max_outstanding == 1` and a caller that retires every grant
// before arbitrating again (the atomic engine loop), eligibility reduces
// to "has a pending request" — exactly the pre-split behaviour, so the
// atomic timing path is unchanged by construction.

#include <cstdint>
#include <memory>
#include <vector>

#include "cam/arbiter.hpp"
#include "kernel/txn.hpp"

namespace stlm::cam {

/// Split/out-of-order transaction mode of a bus CAM.
///
/// The pair mirrors the `Platform` knobs: `split_txns` turns the
/// pipelined (split address/data phase) engine on, `max_outstanding`
/// bounds the transactions each master may have in flight past the
/// address phase. `max_outstanding == 1` is defined to reproduce the
/// atomic engine's simulated timing bit-identically, so `active()` only
/// reports true when both knobs ask for real pipelining.
struct SplitConfig {
  bool split_txns = false;        ///< enable the split (pipelined) engine
  std::size_t max_outstanding = 1;  ///< per-master in-flight cap (>= 1)

  /// True when the split engine should actually run.
  bool active() const { return split_txns && max_outstanding > 1; }
};

/// Arbitration + per-master request tracking for bus CAMs.
///
/// Pure bookkeeping — the engine never waits or touches the simulator;
/// the owning CAM's processes decide when to call `grant()` and how many
/// cycles each phase costs. One GrantEngine instance serves both the
/// atomic and the split engine loops.
class GrantEngine {
 public:
  /// @param arbiter          policy picking among eligible masters (owned)
  /// @param max_outstanding  per-master in-flight cap, clamped to >= 1
  GrantEngine(std::unique_ptr<Arbiter> arbiter, std::size_t max_outstanding);

  /// Register a new master; returns its index.
  std::size_t add_master();

  /// Back to the state right after elaboration: no request queued or in
  /// flight, no contended pick, the arbiter as built. The forgotten
  /// descriptors are not touched (their owners are reset too).
  void reset();
  std::size_t master_count() const { return masters_.size(); }

  /// Queue a pending request for master `txn.master_id` (intrusive; no
  /// allocation).
  void enqueue(Txn& txn);

  /// Arbitrate among eligible masters at bus cycle `cycle`. On success
  /// pops the winner's oldest request, counts it in flight and returns
  /// the descriptor; returns nullptr when no master is eligible (idle or
  /// all at their cap). A grant with two or more eligible masters counts
  /// as a contended pick.
  Txn* grant(std::uint64_t cycle);

  /// Count a granted transaction out of its master's in-flight set. Must
  /// be called exactly once per grant.
  void retire(const Txn& txn);

  /// True if any master has a queued request (regardless of caps).
  bool any_pending() const;

  /// True if any master has a granted, not-yet-retired transaction.
  bool any_inflight() const;

  /// Record a fast-path grant to master `m` without queue bookkeeping:
  /// runs the arbiter with only `m` eligible, so stateful policies
  /// (round-robin rotation, TDMA reclamation) evolve exactly as if the
  /// engine had granted it. Only legal when the fast path verified no
  /// other master was pending (then `m` is the pick the engine would
  /// have made). Never a contended pick: it has one candidate.
  void note_fast_grant(std::size_t m, std::uint64_t cycle);

  /// Grants so far that had two or more eligible masters: the only picks
  /// where the arbiter chose. Every policy grants the sole eligible
  /// master, so a run that ends with 0 here would have run identically
  /// under any other arbiter (the row-sharing certificate, see
  /// Explorer::sweep_parallel).
  std::uint64_t contended_picks() const { return contended_picks_; }

  std::size_t pending_count(std::size_t m) const {
    return masters_[m].pending.size();
  }
  std::size_t inflight_count(std::size_t m) const {
    return masters_[m].inflight;
  }
  std::size_t max_outstanding() const { return max_outstanding_; }
  const Arbiter& arbiter() const { return *arbiter_; }

 private:
  struct MasterState {
    TxnQueue pending;          // intrusive FIFO of requests
    std::size_t inflight = 0;  // granted, not yet retired
  };

  std::unique_ptr<Arbiter> arbiter_;
  std::size_t max_outstanding_;
  std::vector<MasterState> masters_;
  std::vector<bool> eligible_;  // scratch mask reused across grant() calls
  std::uint64_t contended_picks_ = 0;
};

}  // namespace stlm::cam
