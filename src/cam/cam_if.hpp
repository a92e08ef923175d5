#pragma once
// The bus core every communication architecture model derives from.
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
//
// CamIf owns the contract every bus keeps, so each bus keeps it once:
// the master access points, which arm each descriptor (master, issue
// stamp, phase stamps, status, completion token), the slave table and its
// address decode, fault delivery to a decoded target, and the completion
// point that stamps the final status, counts the transaction and writes
// its trace row. A concrete bus implements only its timing and resource
// model: how a transaction is routed, arbitrated and occupies the
// interconnect (submit, and transport where blocking differs).
//
// A bus keeps integer counters only. Every latency, queueing and service
// figure comes from the rows finish() writes (trace/channel_stats.hpp).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cam/address_map.hpp"
#include "kernel/module.hpp"
#include "kernel/time.hpp"
#include "ocp/tl_if.hpp"
#include "trace/stats.hpp"
#include "trace/txn_log.hpp"

namespace stlm::fault {
class Injector;
}  // namespace stlm::fault

namespace stlm::cam {

/// One interconnect (bus, crossbar): masters attach via numbered
/// access points, targets via address ranges.
class CamIf : public Module {
public:
  /// Register a new master access point.
  /// @param name  label used for per-master statistics slots
  /// @return the master's index (stable for the CAM's lifetime)
  std::size_t add_master(const std::string& name);

  /// Access point for master `i`; a master (CpuModel::bind_bus, a SHIP
  /// wrapper) holds it as its ocp_tl_master_if.
  /// Its transport() arms `txn` for master `i` and blocks the calling
  /// process until the transaction completes on the modeled
  /// interconnect; the descriptor then carries its phase stamps.
  ocp::ocp_tl_master_if& master_port(std::size_t i);
  std::size_t master_count() const { return masters_.size(); }

  /// Label master `i` was registered with — the suffix of its per-master
  /// statistics slot and of the "<bus>.<label>" name its bus rows carry
  /// in trace::TxnRecord::master.
  const std::string& master_label(std::size_t i) const;

  /// Attach a slave device decoding `range`; later transactions whose
  /// address falls inside the range are delivered to `slave.handle()`.
  void attach_slave(ocp::ocp_tl_slave_if& slave, AddressRange range,
                    const std::string& label);

  /// Non-blocking issue for split/out-of-order masters: arm `txn` for
  /// master `master`, enqueue it and return without waiting; the initiator
  /// synchronizes with `txn.done.wait(sim)` (completions may arrive out
  /// of order across the initiator's outstanding set). The descriptor
  /// must stay alive and untouched until completion. On configurations
  /// without split support the call may run the transaction to
  /// completion before returning — `done` is then already complete, so
  /// the same initiator code works on every bus. A bus may block the
  /// caller when it is at its per-master outstanding cap.
  void post(std::size_t master, Txn& txn);

  /// Bus clock period of this interconnect.
  Time cycle() const { return cycle_; }
  const AddressMap& address_map() const { return map_; }

  /// Integer counters of this CAM: transactions, reads, writes, bytes,
  /// decode_errors, plus the bus's own (fast_path_hits).
  const trace::StatSet& stats() const { return stats_; }
  /// Route per-transaction records into `log` (nullptr stops).
  void set_txn_logger(trace::TxnLogger* log);

  /// Attach a seeded fault source (fault/fault.hpp): deliver() consults
  /// it per access (error responses, latency spikes) and an arbitrated
  /// bus per grant (stall bursts). nullptr detaches. While an injector
  /// is attached a bus must route every access through its engine, the
  /// one delivery point that draws the injector's per-slave streams in
  /// simulation order.
  void set_fault_injector(fault::Injector* inj) { injector_ = inj; }

  /// Fraction of elapsed bus cycles spent moving transactions.
  virtual double utilization() const;

  /// Back to the state right after elaboration (core::MappedSystem::
  /// reset, after Simulator::reset): counters, occupancy and whatever the
  /// bus's engines queue. Masters, slaves, logger and injector stay
  /// bound.
  virtual void reset();

protected:
  // `width_bytes` is the data-path width the bus's beat math uses.
  CamIf(Simulator& sim, std::string name, Time cycle, std::size_t width_bytes);

  // --- hooks a bus implements ------------------------------------------
  // The body of post(), after the index check and the arming.
  virtual void submit(Txn& txn) = 0;
  // Blocking transaction from an armed access point: returns once `txn`
  // completed on the interconnect. Post + wait unless the bus has a
  // cheaper blocking path.
  virtual void transport(Txn& txn) {
    submit(txn);
    txn.done.wait(sim());
  }
  // Per-master / per-slave elaboration (stat slots, lanes, workers):
  // called right after the core registered master `i` / slave `s`.
  virtual void on_master(std::size_t /*i*/) {}
  virtual void on_slave(std::size_t /*s*/, const std::string& /*label*/) {}

  // --- shared mechanics ------------------------------------------------
  // The slave decoding `txn`'s address range, nullopt on a decode error.
  std::optional<std::size_t> decode(const Txn& txn) const {
    const std::size_t bytes = txn.payload_bytes();
    return map_.decode(txn.addr, bytes ? bytes : 1);
  }
  // Hand a decoded access to slave `s`, from the calling engine's
  // coroutine: the injector's draw first — a latency spike is charged
  // as extra bus cycles, an injected error answers without touching the
  // slave — then the slave's handle().
  void deliver(std::size_t s, Txn& txn);
  // An access no slave decodes, answered with an error by the bus.
  void count_decode_error() { ++*cnt_decode_errors_; }
  // The completion point: stamps t_complete, promotes a watchdog-flagged
  // Ok to Timeout (an Error stays an Error — it already failed harder
  // than the deadline), counts the transaction, writes its row tagged
  // with its master and its timeline spans from its issue stamp. Waking
  // the initiator stays with the bus.
  void finish(Txn& txn);

  ocp::ocp_tl_slave_if& slave(std::size_t s) const { return *slaves_[s]; }
  fault::Injector* injector() const { return injector_; }
  // Data-path width for the protocol's beat math.
  std::size_t width_bytes() const { return width_; }

  trace::StatSet stats_;
  // Bus occupancy accumulated by the bus's engines (utilization()).
  Time busy_time_ = Time::zero();

private:
  // Access point given to each master: arms the descriptor, then
  // forwards to the bus's transport().
  struct MasterPort final : ocp::ocp_tl_master_if {
    using ocp::ocp_tl_master_if::transport;
    void transport(Txn& txn) override;
    CamIf* cam = nullptr;
    std::size_t index = 0;
    std::string label;
    // Interned "<bus>.<master>" name carried on this master's rows.
    std::uint32_t log_id = trace::kNoMaster;
  };

  // The one place a descriptor is armed for this bus: stamps master
  // index and issue time, clears the phase stamps and status and re-arms
  // the completion token.
  void arm(const MasterPort& mp, Txn& txn);

  Time cycle_;
  std::size_t width_;
  // Cached counter slots (stable addresses inside stats_). Completions
  // on concurrent lanes may bump them in any order: integer increments
  // commute.
  std::uint64_t* cnt_transactions_;
  std::uint64_t* cnt_reads_;
  std::uint64_t* cnt_writes_;
  std::uint64_t* cnt_bytes_;
  std::uint64_t* cnt_decode_errors_;
  std::vector<std::unique_ptr<MasterPort>> masters_;
  std::vector<ocp::ocp_tl_slave_if*> slaves_;
  AddressMap map_;
  trace::LogHandle log_;
  // Seeded fault source (nullptr = fault-free).
  fault::Injector* injector_ = nullptr;
};

}  // namespace stlm::cam
