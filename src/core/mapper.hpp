#pragma once
// Automatic mapping of the communication part of a system onto a given
// architecture (the paper's central flow step).
//
// Mapper::map() consumes a SystemGraph (PEs + SHIP channels + roles) and
// a Platform, and emits a MappedSystem at the requested abstraction
// level:
//
//   * ComponentAssembly — PEs as kernel threads, untimed SHIP channels;
//   * Ccatb             — same structure, SHIP channels annotated with
//                         cycle-count-accurate boundary timing derived
//                         from the platform's bus;
//   * Cam               — the communication architecture model is
//                         instantiated; every channel is refined by kind:
//       HW <-> HW  : SHIP master/slave wrapper pair over the CAM, with an
//                    automatically allocated mailbox address window;
//       HW <-> SW  : HW adapter (mailbox + sideband IRQ) on the CAM plus
//                    device driver / communication library on the RTOS;
//       SW <-> SW  : RTOS-local SHIP channel (no bus traffic).
//
// PE code is untouched across all three levels — only the binding of its
// ExecContext changes.

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "cam/cam.hpp"
#include "core/esw.hpp"
#include "core/platform.hpp"
#include "core/system_graph.hpp"
#include "cpu/irq.hpp"
#include "hwsw/hwsw.hpp"
#include "obs/metrics.hpp"
#include "ocp/monitor.hpp"

namespace stlm::core {

enum class AbstractionLevel : std::uint8_t { ComponentAssembly, Ccatb, Cam };
const char* level_name(AbstractionLevel l);

class MappedSystem {
public:
  // Unwinds the PE threads and RTOS tasks spawned for this system while
  // the wrappers, channels and drivers their parked frames point into are
  // still alive — ~Simulator, which would otherwise unwind them, runs
  // after this object is gone (see Simulator::kill_process).
  ~MappedSystem();

  Simulator& sim() { return sim_; }
  const Platform& platform() const { return plat_; }
  AbstractionLevel level() const { return level_; }

  void run_for(Time d) { sim_.run_for(d); }
  // Run until every PE returned (HW threads and RTOS task bodies), the
  // simulator runs out of activity (a deadlock) or `max_time` of
  // simulated time passed, whichever comes first: the last PE to return
  // stops the run at its return. Returns true if the workload completed.
  bool run_until_done(Time max_time);
  bool workload_done() const { return pes_running_ == 0; }

  // Elaborate once, run many: return the system to the state map() left
  // it in and bind its PE threads and tasks to the PEs of `graph`, which
  // must have the shape of the bound graph (same_shape; throws
  // ElaborationError otherwise). Simulator::reset restarts the kernel at
  // t = 0 with every process runnable again in spawn order; then every
  // module the mapper built is reset (bus and arbiter, wrappers, mailbox
  // terminals, retry shims, fault injector, memories, CPU, IRQ
  // controller, RTOS, drivers, channels), the log and the transaction
  // pool are emptied, and the RTOS's first wake-up is queued again. A
  // run after reset() is the run a fresh map() of `graph` would give,
  // row for row. `graph`'s PEs must outlive the next run, and the old
  // graph's must outlive this call (its parked frames are unwound here
  // where unwinding is compiled in).
  void reset(SystemGraph& graph);
  // Whether `graph` has the shape of the graph this system is bound to
  // (SystemGraph::same_shape), which must still be alive.
  bool same_shape(const SystemGraph& graph) const {
    return graph_->same_shape(graph);
  }

  trace::TxnLogger& txn_log() { return log_; }
  // The SHIP channels of the abstract levels, in SystemGraph::channels()
  // order (empty at the CAM level).
  const std::vector<std::unique_ptr<ship::ShipChannel>>& channels() const {
    return channels_;
  }
  cam::CamIf* bus() { return cam_.get(); }
  cpu::CpuModel* cpu_model() { return cpu_.get(); }
  rtos::Rtos* os() { return rtos_.get(); }
  // Failure-semantics plumbing (non-null / non-empty only when the
  // platform's FaultProfile / RetrySpec are active).
  fault::Injector* injector() { return injector_.get(); }
  // Aggregated initiator/injector outcome counters across the system.
  struct FailureTotals {
    std::uint64_t injected_errors = 0;
    std::uint64_t injected_spikes = 0;
    std::uint64_t injected_stalls = 0;
    std::uint64_t errors_seen = 0;
    std::uint64_t retries_issued = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t aborts = 0;
  };
  FailureTotals failure_totals() const;
  // Banked memory targets attached for the graph's MemorySpecs (CAM
  // level only; empty at the abstract levels).
  const std::vector<std::unique_ptr<ocp::BankedMemorySlave>>& memories()
      const {
    return memories_;
  }

  // Human-readable mapping + statistics report.
  void report(std::ostream& os_out) const;

  // Register a protocol monitor so report() surfaces its statistics
  // (stall cycles, violations, outstanding commands). Monitors are built
  // by the harness, not the mapper, hence the explicit attach; the
  // pointer must outlive this MappedSystem.
  void attach_monitor(const ocp::OcpMonitor& mon) {
    monitors_.push_back(&mon);
  }

  // Register the standard time-series gauges for this system with `reg`:
  // bus utilization, outstanding pooled transactions, and queue depth
  // (grant-engine backlog at CAM level, summed SHIP channel depth at the
  // abstract levels). Pair with an obs::PeriodicSampler to capture them
  // over simulated time. The registry's gauges reference this system, so
  // it must outlive `reg`'s sampling.
  void install_default_gauges(obs::MetricsRegistry& reg);

private:
  friend class Mapper;
  MappedSystem(Simulator& sim, const Platform& p, AbstractionLevel l)
      : sim_(sim), plat_(p), level_(l) {}

  // The body of the thread or RTOS task of the graph's PE `i`:
  // pes_[i]->run(*ctx), after which the last of this system's PEs to
  // return stops the simulator. It reads pes_ when it starts, so reset()
  // rebinds it.
  std::function<void()> pe_body(std::size_t i, ExecContext* ctx);

  Simulator& sim_;
  Platform plat_;
  AbstractionLevel level_;
  // The graph map() or the last reset() bound this system to.
  const SystemGraph* graph_ = nullptr;
  // The bound graph's PEs, in SystemGraph::pes() order.
  std::vector<ProcessingElement*> pes_;
  // PEs spawned whose body has not returned yet (see pe_body).
  std::size_t pes_running_ = 0;
  trace::TxnLogger log_;

  std::vector<std::unique_ptr<ship::ShipChannel>> channels_;
  std::unique_ptr<cam::CamIf> cam_;
  std::unique_ptr<fault::Injector> injector_;
  std::vector<std::unique_ptr<cam::RetryPolicy>> retries_;
  std::vector<std::unique_ptr<ocp::BankedMemorySlave>> memories_;
  std::vector<std::unique_ptr<cam::ShipSlaveWrapper>> slave_wraps_;
  std::vector<std::unique_ptr<cam::ShipMasterWrapper>> master_wraps_;
  std::vector<std::unique_ptr<hwsw::HwAdapter>> adapters_;
  std::unique_ptr<cpu::CpuModel> cpu_;
  std::unique_ptr<cpu::IrqController> irq_;
  std::unique_ptr<rtos::Rtos> rtos_;
  std::vector<std::unique_ptr<hwsw::ShipDriver>> drivers_;
  std::vector<std::unique_ptr<SwLocalChannel>> sw_channels_;
  std::vector<std::unique_ptr<HwExecContext>> hw_ctx_;
  std::vector<std::unique_ptr<SwExecContext>> sw_ctx_;
  std::vector<Process*> hw_procs_;
  std::vector<std::string> mapping_notes_;
  std::vector<const ocp::OcpMonitor*> monitors_;
};

class Mapper {
public:
  // Build `graph` on `platform` at `level` inside `sim`. For the Cam
  // level, every channel's roles must be known (declared in connect() or
  // found via SystemGraph::discover_roles()).
  static std::unique_ptr<MappedSystem> map(Simulator& sim, SystemGraph& graph,
                                           const Platform& platform,
                                           AbstractionLevel level);

  // The arbitration policy a bus of `p` is built with; throws when the
  // policy's parameters are invalid (a zero TDMA slot).
  static std::unique_ptr<cam::Arbiter> make_arbiter(const Platform& p);

private:
  static void build_abstract(MappedSystem& ms, SystemGraph& g, bool timed);
  static void build_cam(MappedSystem& ms, SystemGraph& g);
  static std::unique_ptr<cam::CamIf> make_bus(Simulator& sim,
                                              const Platform& p);
};

}  // namespace stlm::core
