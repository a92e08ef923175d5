#pragma once
// Concrete CCATB bus models.
//
// The paper's flow assumes "a library of CAMs (e.g. of the CoreConnect
// architecture)". We provide:
//   * SharedBusCam — generic 32-bit single-stage shared bus (baseline);
//   * PlbCam       — CoreConnect PLB-like: 64-bit, pipelined arbitration
//                    and address phases (hidden when back-to-back);
//   * OpbCam       — CoreConnect OPB-like: 32-bit peripheral bus, two
//                    cycles per data beat, no pipelining;
//   * CrossbarCam  — per-slave parallel lanes (contention only per target).
//
// Cycle counts are parameterized; defaults follow CoreConnect-class
// documentation (PLB @100 MHz, OPB @50 MHz in the examples).
//
// SharedBusCam and PlbCam support the split engine (SplitConfig): the
// address phase (arbitration + address cycles) pipelines against the
// data phase of earlier transactions, target service runs off the bus,
// and each master may keep `max_outstanding` transactions in flight.
// OpbCam has no address pipelining, so it ignores the split knobs.
// CrossbarCam's split mode queues per lane and completes out of order
// across lanes (per-port OoO).

#include <memory>

#include "cam/cam_base.hpp"
#include "kernel/channels.hpp"

namespace stlm::cam {

// Data beats a payload occupies on a bus of `width_bytes` (min one beat —
// even zero-payload control transactions own the data phase for a cycle).
inline std::uint64_t beats_for(std::size_t payload_bytes,
                               std::size_t width_bytes) {
  if (payload_bytes == 0) return 1;
  return (payload_bytes + width_bytes - 1) / width_bytes;
}

class SharedBusCam final : public CamBase {
public:
  static constexpr std::size_t kDefaultWidthBytes = 4;

  SharedBusCam(Simulator& sim, std::string name, Time cycle,
               std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes = 0,
               SplitConfig split = {}, bool fast_targets = false)
      : CamBase(sim, std::move(name), cycle, std::move(arbiter), width_bytes,
                kDefaultWidthBytes, split, /*protocol_supports_split=*/true,
                fast_targets) {}

protected:
  std::uint64_t txn_cycles(const Txn& txn, bool) const override {
    // arbitration + address + one cycle per data beat + response.
    return 2 + beats_for(txn.payload_bytes(), width_bytes()) + 1;
  }
  std::uint64_t split_addr_cycles(const Txn&) const override {
    return 2;  // arbitration + address
  }
  std::uint64_t split_data_cycles(const Txn& txn) const override {
    return beats_for(txn.payload_bytes(), width_bytes()) + 1;  // + response
  }
};

class PlbCam final : public CamBase {
public:
  static constexpr std::size_t kDefaultWidthBytes = 8;

  PlbCam(Simulator& sim, std::string name, Time cycle,
         std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes = 0,
         SplitConfig split = {}, bool fast_targets = false)
      : CamBase(sim, std::move(name), cycle, std::move(arbiter), width_bytes,
                kDefaultWidthBytes, split, /*protocol_supports_split=*/true,
                fast_targets) {}

protected:
  std::uint64_t txn_cycles(const Txn& txn,
                           bool back_to_back) const override {
    const std::uint64_t beats = beats_for(txn.payload_bytes(), width_bytes());
    // Pipelined: request/address overlap the previous data phase.
    const std::uint64_t setup = back_to_back ? 0 : 2;
    return setup + beats;
  }
  std::uint64_t split_addr_cycles(const Txn&) const override {
    return 2;  // request + address, always off the data path in split mode
  }
  std::uint64_t split_data_cycles(const Txn& txn) const override {
    return beats_for(txn.payload_bytes(), width_bytes());
  }
};

class OpbCam final : public CamBase {
public:
  static constexpr std::size_t kDefaultWidthBytes = 4;

  OpbCam(Simulator& sim, std::string name, Time cycle,
         std::unique_ptr<Arbiter> arbiter, std::size_t width_bytes = 0,
         SplitConfig split = {}, bool fast_targets = false)
      : CamBase(sim, std::move(name), cycle, std::move(arbiter), width_bytes,
                kDefaultWidthBytes, split, /*protocol_supports_split=*/false,
                fast_targets) {}

protected:
  std::uint64_t txn_cycles(const Txn& txn, bool) const override {
    // Single master/slave handshake per word: 2 cycles per beat.
    return 2 + 2ull * beats_for(txn.payload_bytes(), width_bytes());
  }
};

// Parallel crossbar: one lane (and one arbiter-free FIFO queue) per
// slave. Transactions to different targets proceed concurrently. In
// split mode each lane is served by its own engine process and a master
// may post() up to `max_outstanding` transactions across lanes; their
// completions arrive in lane-service order, not issue order (per-port
// out-of-order completion).
class CrossbarCam final : public Module, public CamIf {
public:
  static constexpr std::size_t kDefaultWidthBytes = 8;

  // `fast_targets` opts lanes into the fast-target contract: when the
  // routed slave is fast_capable(), the lane resolves the service latency
  // inline via fast_handle() instead of a blocking handle() call. Lane
  // occupancy and queuing are unchanged (the crossbar already runs each
  // transaction on the initiator's or a lane engine's coroutine), so
  // timing is identical either way — the win is skipping the slave's
  // internal wait() bookkeeping for zero-latency FSM targets.
  CrossbarCam(Simulator& sim, std::string name, Time cycle,
              std::size_t width_bytes = kDefaultWidthBytes,
              SplitConfig split = {}, bool fast_targets = false);

  std::size_t add_master(const std::string& name) override;
  ocp::ocp_tl_master_if& master_port(std::size_t i) override;
  std::size_t master_count() const override { return masters_.size(); }
  const std::string& master_label(std::size_t i) const override {
    STLM_ASSERT(i < masters_.size(),
                "master index out of range on " + full_name());
    return masters_[i]->label;
  }
  void attach_slave(ocp::ocp_tl_slave_if& slave, AddressRange range,
                    const std::string& label) override;
  void post(std::size_t master, Txn& txn) override;
  const std::string& name() const override { return Module::name(); }
  Time cycle() const override { return cycle_; }
  const AddressMap& address_map() const override { return map_; }
  // Folds the per-lane stat shards (lane-index order, scheduler-free)
  // into the public set before returning it — see LaneStats below.
  trace::StatSet& stats() override;
  void set_txn_logger(trace::TxnLogger* log) override;
  void set_fault_injector(fault::Injector* inj) override { injector_ = inj; }
  double utilization() const override;

  bool split_active() const { return split_.active(); }
  // Clamped like CamBase: an inactive split config models depth 1.
  std::size_t max_outstanding() const {
    return split_.active() ? split_.max_outstanding : 1;
  }

private:
  struct MasterPort final : ocp::ocp_tl_master_if {
    using ocp::ocp_tl_master_if::transport;
    void transport(Txn& txn) override;
    CrossbarCam* xbar = nullptr;
    std::size_t index = 0;
    std::string label;
    // Interned "<bus>.<master>" name carried on this master's bus rows.
    std::uint32_t log_id = trace::kNoMaster;
  };

  // Per-lane statistics shard. Crossbar completions run concurrently on
  // per-lane coroutines (initiators holding the lane mutex in atomic
  // mode, one lane engine in split mode), so a single shared StatSet
  // would make its floating-point sums depend on dispatch order — the
  // exact hazard the determinism auditor flags. Each lane accumulates
  // into its own shard (updates within a lane are totally ordered:
  // mutex-serialized at distinct instants, or a single engine process);
  // stats() folds the shards in lane-index order, so the published sums
  // are invariant under any legal scheduler interleaving.
  struct LaneStats {
    std::uint64_t transactions = 0;
    std::uint64_t bytes = 0;
    trace::Accumulator latency;
    trace::Accumulator service;
    std::vector<trace::Accumulator> per_master;  // grown on demand
  };

  void route(std::size_t master, Txn& txn);
  void lane_engine(std::size_t lane);
  void finish(std::size_t master, std::size_t lane, Txn& txn, Time start);

  // Deliver `txn` to slave `s`, charging lane occupancy `occ` and then
  // the target's service latency (fast path when the slave opted in).
  void serve(std::size_t s, Txn& txn, Time occ);

  Time cycle_;
  std::size_t width_;
  SplitConfig split_;
  bool fast_targets_;
  std::vector<std::unique_ptr<MasterPort>> masters_;
  std::vector<ocp::ocp_tl_slave_if*> slaves_;
  std::vector<bool> slave_fast_;
  std::vector<std::unique_ptr<Mutex>> lanes_;
  std::vector<std::unique_ptr<LaneStats>> lane_stats_;  // one per lane
  // Split mode: per-lane intrusive queues + wake events, per-master
  // in-flight counts bounded by max_outstanding.
  std::vector<std::unique_ptr<TxnQueue>> lane_q_;
  std::vector<std::unique_ptr<Event>> lane_avail_;
  std::vector<std::size_t> inflight_;
  Event slot_free_;
  // Seeded fault source (nullptr = fault-free), consulted per lane
  // delivery in serve(). Lanes are arbiter-free FIFOs, so the crossbar
  // has no grant stream to stall — only errors and latency spikes apply.
  fault::Injector* injector_ = nullptr;
  AddressMap map_;
  Time busy_time_ = Time::zero();
  trace::StatSet stats_;
  trace::LogHandle log_;
};

}  // namespace stlm::cam
