#pragma once
// Initiator-side failure policy: bounded retries with exponential backoff
// in *simulated* time, plus per-transaction timeout watchdogs on
// outstanding transactions, both parameterized by fault::RetrySpec.
//
// A RetryPolicy is an OCP TL shim: it implements ocp_tl_master_if and
// forwards to one CAM master's access point, so it drops between any
// blocking initiator and the fabric without touching PE code — the
// mapper binds CpuModel::bind_bus() and the SHIP master wrappers to the
// policy when the platform carries an active RetrySpec. Posted
// (split-window) initiators use the post()/settle() pair instead: post()
// arms the watchdog and forwards to CamIf::post(); settle(), called by
// the initiator after done.wait(), classifies the outcome and performs
// any retries inline (blocking, from the initiator's coroutine).
//
// Semantics:
//   * Retry only on Status::Error. Attempt k (1-based) backs off
//     backoff_cycles << (k-1) bus cycles of simulated time, then re-arms
//     the same descriptor (Txn::rearm_retry — the id survives, so trace
//     rows of all attempts correlate) and re-issues. After max_retries
//     failed re-issues the policy stamps Status::Aborted and returns.
//     max_retries == 0 disables retrying: errors pass through unchanged.
//   * The watchdog (timeout != zero) is a kernel timed event, not
//     polling: arming notifies a single timer at the earliest armed
//     deadline; the firing method marks every overdue outstanding
//     descriptor `deadline_missed` and emits a "timeout" trace instant.
//     The CAM completion point promotes Ok -> Timeout from the mark, so
//     a late-but-correct access reports Timeout (and data_valid()) and
//     is NOT retried. A completion at exactly the deadline instant
//     counts as missed (methods dispatch before threads).
//
// Determinism: the policy introduces no randomness; backoff delays are
// pure functions of the attempt number, and the watchdog timer fires at
// deadlines derived from simulated time only.

#include <cstdint>
#include <vector>

#include "cam/cam_if.hpp"
#include "fault/fault.hpp"
#include "kernel/module.hpp"

namespace stlm::cam {

class RetryPolicy final : public Module, public ocp::ocp_tl_master_if {
public:
  // The policy issues on `bus` as master `master`: transport() through
  // its access point, post() into its posted window. Backoff delays are
  // charged in bus cycles.
  RetryPolicy(Simulator& sim, std::string name, fault::RetrySpec spec,
              CamIf& bus, std::size_t master);

  // --- blocking initiators --------------------------------------------
  // The retry loop around the bus access point's transport().
  using ocp::ocp_tl_master_if::transport;
  void transport(Txn& txn) override;

  // --- posted initiators ----------------------------------------------
  // Arm the watchdog and enqueue `txn` (CamIf::post contract applies).
  void post(Txn& txn);
  // Classify a completed posted transaction; must be called from the
  // initiator's process after txn.done.wait(). Performs retries inline
  // (blocking) and stamps Aborted on exhaustion.
  void settle(Txn& txn);

  // Back to the state right after construction (after Simulator::reset):
  // nothing armed, zero counters.
  void reset();

  const fault::RetrySpec& spec() const { return spec_; }
  // Policy-local outcome counters (not bus statistics: they belong to
  // the initiator side and stay off the CAM's report strings).
  std::uint64_t errors_seen() const { return errors_; }
  std::uint64_t retries_issued() const { return retries_; }
  std::uint64_t timeouts_observed() const { return timeouts_; }
  std::uint64_t aborts() const { return aborts_; }

private:
  struct Armed {
    Txn* txn;
    Time deadline;
    Time armed_at;
  };

  bool watching() const { return spec_.timeout != Time::zero(); }
  void arm(Txn& txn);
  void disarm(Txn& txn);  // also emits the retrospective watchdog span
  void watchdog_fire();   // timer method: mark overdue descriptors
  void renotify(Time now);
  // True when `txn` failed retryably and the policy re-armed + backed
  // off; false when the outcome is final (possibly stamped Aborted).
  bool prepare_retry(Txn& txn);

  fault::RetrySpec spec_;
  CamIf& bus_;
  std::size_t master_;
  Event timer_;
  std::vector<Armed> armed_;
  std::uint64_t errors_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t aborts_ = 0;
};

}  // namespace stlm::cam
