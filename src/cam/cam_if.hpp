#pragma once
// Common interface of every communication architecture model.
//
// A CAM is a simulation model of a bus or network that is cycle-count
// accurate at transaction boundaries (CCATB): externally each transaction
// completes after the exact number of bus cycles the modeled protocol
// needs; internally only timed method calls are used — no per-cycle
// activity — which is where the simulation speed comes from.
//
// PEs attach through OCP TL master ports; targets attach as OCP TL slaves
// with an address range. Wrappers (ship<->ocp, pin<->tl) let "virtually
// any PE" connect regardless of its native interface (paper §3).

#include <cstdint>
#include <string>

#include "cam/address_map.hpp"
#include "kernel/time.hpp"
#include "ocp/tl_if.hpp"
#include "trace/stats.hpp"
#include "trace/txn_log.hpp"

namespace stlm::fault {
class Injector;
}  // namespace stlm::fault

namespace stlm::cam {

/// Map a completed descriptor's kernel-side status onto the trace
/// schema's outcome column. A logged row is by definition settled, so a
/// still-Pending status (a CAM forgot to stamp) degrades to Ok rather
/// than inventing a fifth CSV value.
inline trace::TxnStatus txn_row_status(const Txn& txn) {
  switch (txn.status) {
    case Txn::Status::Error:
      return trace::TxnStatus::Error;
    case Txn::Status::Timeout:
      return trace::TxnStatus::Timeout;
    case Txn::Status::Aborted:
      return trace::TxnStatus::Aborted;
    case Txn::Status::Pending:
    case Txn::Status::Ok:
      break;
  }
  return trace::TxnStatus::Ok;
}

/// Abstract interface of a communication architecture model (bus,
/// crossbar, bridge fabric). One CamIf instance is one arbitrated
/// interconnect; masters attach via numbered access points, targets via
/// address ranges.
class CamIf {
public:
  virtual ~CamIf() = default;

  /// Register a new master access point.
  /// @param name  label used for per-master statistics slots
  /// @return the master's index (stable for the CAM's lifetime)
  virtual std::size_t add_master(const std::string& name) = 0;

  /// Access point for master `i`; bind a PE's OcpMasterPort to this.
  /// Its transport() blocks the calling process until the transaction
  /// completes on the modeled interconnect.
  virtual ocp::ocp_tl_master_if& master_port(std::size_t i) = 0;
  virtual std::size_t master_count() const = 0;

  /// Label master `i` was registered with — the suffix of its per-master
  /// statistics slot and of the "<bus>.<label>" name its bus rows carry
  /// in trace::TxnRecord::master.
  virtual const std::string& master_label(std::size_t i) const = 0;

  /// Attach a slave device decoding `range`; later transactions whose
  /// address falls inside the range are delivered to `slave.handle()`.
  virtual void attach_slave(ocp::ocp_tl_slave_if& slave, AddressRange range,
                            const std::string& label) = 0;

  /// Non-blocking issue for split/out-of-order masters: enqueue `txn` on
  /// master `master` and return without waiting; the initiator
  /// synchronizes with `txn.done.wait(sim)` (completions may arrive out
  /// of order across the initiator's outstanding set). The descriptor
  /// must stay alive and untouched until completion. On configurations
  /// without split support the call may run the transaction to
  /// completion before returning — `done` is then already complete, so
  /// the same initiator code works on every bus. A bus may block the
  /// caller when it is at its per-master outstanding cap.
  virtual void post(std::size_t master, Txn& txn) = 0;

  virtual const std::string& name() const = 0;
  /// Bus clock period of this interconnect.
  virtual Time cycle() const = 0;
  virtual const AddressMap& address_map() const = 0;

  /// Mutable statistic set (counters + accumulators) of this CAM.
  virtual trace::StatSet& stats() = 0;
  /// Route per-transaction begin/end records into `log` (nullptr stops).
  virtual void set_txn_logger(trace::TxnLogger* log) = 0;

  /// Attach a seeded fault source (fault/fault.hpp): slaves consult it
  /// per access (error responses, latency spikes) and the grant logic per
  /// grant (stall bursts). nullptr detaches; the default ignores it, so
  /// CAMs without failure semantics stay valid. While an injector is
  /// attached a CAM must disable constant-latency fast paths — injected
  /// spikes break their fixed-latency contract.
  virtual void set_fault_injector(fault::Injector* /*inj*/) {}

  /// Fraction of elapsed bus cycles spent moving transactions.
  virtual double utilization() const = 0;
};

}  // namespace stlm::cam
