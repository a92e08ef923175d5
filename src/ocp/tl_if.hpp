#pragma once
// OCP transaction-level interfaces.
//
//   * ocp_tl_master_if — what a master binds its bus to: a blocking
//     transport() that carries one request to completion. CAMs, TL
//     channels, pin-level master adapters and accessor stacks all expose
//     this, so a PE refined from SHIP to OCP never changes again while
//     the fabric below it is swapped (the paper's exploration story).
//   * ocp_tl_slave_if  — the device-side callback a target implements.
//     handle() performs the access and returns the target's wait states;
//     the caller charges them.
//
// The virtual hot path moves a pooled stlm::Txn by reference through
// every layer — no payload copies, no per-transaction events or heap
// allocation. The Request/Response overloads are non-virtual convenience
// shims for edge code; they route through a pooled descriptor and copy at
// the boundary only. Implementations that are poked directly by tests
// (rather than through this interface) should `using` the base overloads
// so both spellings stay visible.

#include "kernel/time.hpp"
#include "ocp/types.hpp"

namespace stlm::ocp {

class ocp_tl_master_if {
public:
  virtual ~ocp_tl_master_if() = default;
  virtual void transport(Txn& txn) = 0;
  Response transport(const Request& req);
};

class ocp_tl_slave_if {
public:
  virtual ~ocp_tl_slave_if() = default;
  // Performs the access (completing the txn, error responses included)
  // and returns the service latency the caller waits. Only a target that
  // forwards into another fabric may block inside; it returns zero.
  virtual Time handle(Txn& txn) = 0;
  Response handle(const Request& req);  // also waits the latency

  // --- fast-target contract (kernel fast path) ---------------------------
  //
  // A CAM may bypass its grant-engine process for an uncontended blocking
  // access and call handle() inline from the initiator's coroutine, at the
  // same simulated time the engine path would: after bus occupancy, before
  // the returned latency elapses. A target opts in by returning true from
  // fast_capable(), promising that handle() never waits. Eligibility is
  // decided before side effects happen, so there is no fallback after
  // this point.
  virtual bool fast_capable() const { return false; }
};

}  // namespace stlm::ocp
