#pragma once
// Shared implementation of single-resource (bus-style) CAMs on the
// CamIf bus core (cam_if.hpp).
//
// Two engine modes, selected by SplitConfig at construction:
//
//   * atomic (seed behaviour, SplitConfig inactive): one grant engine
//     process serializes transactions — arbitrate, charge the protocol's
//     full cycle count in one wait() (CCATB), deliver the request to the
//     decoded slave, complete the descriptor. Derived classes describe
//     their protocol timing via txn_cycles().
//
//   * split (SplitConfig::active() and the protocol supports it): the
//     address phase is decoupled from the data phase. An address engine
//     arbitrates among masters under their `max_outstanding` cap and
//     charges split_addr_cycles(); granted transactions are serviced by
//     the target concurrently (a worker pool calls handle() off the bus,
//     so slave latency no longer blocks the bus); a data engine charges
//     split_data_cycles() per response in service-completion order —
//     which may differ from address order (out-of-order completion) —
//     and completes the descriptor. Decode errors complete after the
//     address phase plus their data beats without touching a slave.
//
// `max_outstanding == 1` (or split_txns == false) always selects the
// atomic engine, which reproduces the seed's simulated timing
// bit-identically (guarded by tests/test_cam_split.cpp).
//
// Fast path (atomic mode only, opt-in via the `fast_targets` ctor knob):
// when a blocking transport() arrives while the bus is provably idle —
// no queued or in-flight engine work, no fast transaction in progress —
// and its target opted into the fast-target contract (ocp_tl_slave_if::
// fast_capable()), the transaction runs from the initiator's coroutine in
// the engine's two stages: occupancy, then the target's latency. Same
// arbiter evolution (a single-candidate pick), same occupancy math, same
// stamps/counters/log rows — but no grant-engine wakeup and no coroutine
// switches. Posted accesses always take the engine. The moment anything
// contends, the request falls back to the unchanged engine, which also
// stalls behind any fast transaction still holding the bus
// (`fast_busy_until_`). With the knob off, behaviour is bit-identical
// to the engine-only build. The one documented divergence with the
// knob on: two masters issuing in the same delta at the same timestamp
// are served first-issuer-first, where the engine would have let the
// arbiter rank them one delta later (still deterministic — tested).
//
// Hot-path invariants (guarded by the pooled-Txn stress test):
//   * the per-master pending/service/response queues are intrusive Txn
//     lists — no allocation on enqueue/dequeue;
//   * completion uses Txn's CompletionEvent — no Event construction, no
//     liveness-registry churn;
//   * per-transaction counters go through cached slots — no string
//     building per transaction.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cam/grant_engine.hpp"
#include "cam/cam_if.hpp"

namespace stlm::cam {

class CamBase : public CamIf {
public:
  // `width_bytes == 0` selects `default_width_bytes`, the protocol's
  // native data-path width (the Platform grid sweeps explicit widths).
  // `protocol_supports_split` is set by the derived protocol: buses
  // without address pipelining (OPB) ignore the split knobs and always
  // run the atomic engine.
  CamBase(Simulator& sim, std::string name, Time cycle,
          std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes,
          std::size_t default_width_bytes, SplitConfig split,
          bool protocol_supports_split, bool fast_targets = false);

  const Arbiter& arbiter() const { return engine_.arbiter(); }
  const GrantEngine& grant_engine() const { return engine_; }
  // True when this instance runs the split (pipelined) engine.
  bool split_active() const { return split_active_; }
  std::size_t max_outstanding() const { return engine_.max_outstanding(); }
  // True when the inline fast path may engage (atomic mode + knob on).
  bool fast_targets() const { return fast_targets_; }
  // Transactions completed via the fast path (0 when disabled).
  std::uint64_t fast_path_hits() const {
    return cnt_fast_hits_ ? *cnt_fast_hits_ : 0;
  }
  void reset() override;

  // Requests enqueued but not yet granted, summed over masters — an
  // instantaneous queue-depth gauge for obs::MetricsRegistry time series.
  std::size_t queued_requests() const {
    std::size_t n = 0;
    for (std::size_t m = 0; m < engine_.master_count(); ++m) {
      n += engine_.pending_count(m);
    }
    return n;
  }

protected:
  // Bus cycles a transaction occupies in atomic mode. `back_to_back` is
  // true when the bus was still busy when this transaction was granted —
  // pipelined protocols (PLB) hide arbitration/address cycles then.
  virtual std::uint64_t txn_cycles(const Txn& txn, bool back_to_back) const = 0;

  // Split-mode protocol timing: cycles the request occupies the address
  // channel, and cycles the response occupies the data channel. Only
  // called when the derived class passed protocol_supports_split = true.
  virtual std::uint64_t split_addr_cycles(const Txn& txn) const;
  virtual std::uint64_t split_data_cycles(const Txn& txn) const;

private:
  void transport(Txn& txn) override;
  void submit(Txn& txn) override;
  void on_master(std::size_t i) override;

  // Queue `txn` for the grant engine (every post, and every transport
  // the fast path declines).
  void enqueue(Txn& txn);

  void atomic_engine();
  void addr_engine();
  void service_worker(std::size_t worker);
  void data_engine();
  void stall_grant();
  void complete_txn(Txn& txn);
  std::uint64_t now_cycle() const { return sim().now() / cycle(); }

  // Fast path (see the class comment). try_fast_transport returns false
  // without side effects when the transaction must take the engine.
  bool fast_eligible(const Txn& txn, std::size_t* slave_out) const;
  // The engine's grant, mirrored inline: stamps, zero grant wait and
  // arbiter evolution. Returns the transaction's bus cycles.
  std::uint64_t fast_grant(Txn& txn);
  bool try_fast_transport(Txn& txn);

  bool split_active_;
  GrantEngine engine_;
  Event new_request_;
  // Split-mode plumbing: address engine -> service workers -> data engine.
  // Each service worker parks on its own wake event (indexed by worker
  // id) after pushing its id on idle_workers_; a granted transaction
  // wakes exactly one parked worker. The stack is reserved to the worker
  // count, so parking never allocates.
  TxnQueue service_q_;
  TxnQueue resp_q_;
  std::vector<std::unique_ptr<Event>> worker_wake_;
  std::vector<std::size_t> idle_workers_;
  Event resp_avail_;
  Time last_txn_end_ = Time::zero();
  bool engine_busy_ = false;

  // Fast-path state. fast_busy_until_ is the instant the bus frees again
  // after a fast transaction (the engine's gate); fast_inflight_ marks a
  // fast transport for its whole span — the strict time check alone would
  // let a competitor waking at exactly fast_busy_until_, before the
  // initiator's coroutine resumes, treat the bus as idle.
  bool fast_targets_ = false;
  Time fast_busy_until_ = Time::zero();
  bool fast_inflight_ = false;
  // Cached counter slots (stable addresses inside stats_).
  std::uint64_t* cnt_fast_hits_ = nullptr;
};

}  // namespace stlm::cam
