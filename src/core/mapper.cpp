#include "core/mapper.hpp"

#include <map>

#include "obs/obs.hpp"
#include "trace/channel_stats.hpp"

namespace stlm::core {

const char* level_name(AbstractionLevel l) {
  switch (l) {
    case AbstractionLevel::ComponentAssembly: return "component-assembly";
    case AbstractionLevel::Ccatb: return "ccatb";
    case AbstractionLevel::Cam: return "cam";
  }
  return "?";
}

// -------------------------------------------------------- MappedSystem --

MappedSystem::FailureTotals MappedSystem::failure_totals() const {
  FailureTotals t;
  if (injector_) {
    t.injected_errors = injector_->injected_errors();
    t.injected_spikes = injector_->injected_spikes();
    t.injected_stalls = injector_->injected_stalls();
  }
  for (const auto& rp : retries_) {
    t.errors_seen += rp->errors_seen();
    t.retries_issued += rp->retries_issued();
    t.timeouts += rp->timeouts_observed();
    t.aborts += rp->aborts();
  }
  return t;
}

MappedSystem::~MappedSystem() {
  if constexpr (kill_unwind_compiled_in()) {
    for (Process* p : hw_procs_) sim_.kill_process(*p);
    if (rtos_) rtos_->kill_threads();
  }
}

std::function<void()> MappedSystem::pe_body(std::size_t i,
                                            ExecContext* ctx) {
  ++pes_running_;
  return [this, i, ctx] {
    pes_[i]->run(*ctx);
    if (--pes_running_ == 0) sim_.stop();
  };
}

void MappedSystem::reset(SystemGraph& graph) {
  if (!same_shape(graph)) {
    throw ElaborationError(
        "MappedSystem::reset: the graph does not have the shape the system "
        "on " + plat_.name + " was mapped from");
  }
  // The kernel first: it unwinds or abandons the parked frames, whose
  // destructors may still touch the modules below, and drops every
  // queued entry before the modules queue their own again.
  sim_.reset();
  graph_ = &graph;
  pes_.assign(graph.pes().begin(), graph.pes().end());
  pes_running_ = pes_.size();
  log_.clear();
  sim_.txn_pool().reset();
  for (const auto& ch : channels_) ch->reset();
  if (cam_) cam_->reset();
  if (injector_) injector_->reset();
  for (const auto& rp : retries_) rp->reset();
  for (const auto& mem : memories_) mem->reset();
  for (const auto& w : slave_wraps_) w->reset();
  for (const auto& w : master_wraps_) w->reset();
  for (const auto& ad : adapters_) ad->reset();
  if (cpu_) cpu_->reset();
  if (irq_) irq_->reset();
  if (rtos_) rtos_->reset();
  for (const auto& drv : drivers_) drv->reset();
  for (const auto& ch : sw_channels_) ch->reset();
}

bool MappedSystem::run_until_done(Time max_time) {
  if (!workload_done()) sim_.run_for(max_time);
  return workload_done();
}

void MappedSystem::report(std::ostream& out) const {
  // The nested StatSet::report guards itself, but keep the whole report
  // transparent to the caller's stream formatting as well.
  trace::ScopedOstreamFormat guard(out);
  out << "=== mapped system: level=" << level_name(level_)
      << " platform=" << plat_.name << " ===\n";
  for (const auto& note : mapping_notes_) out << "  " << note << "\n";
  const auto s = trace::latency_dist(log_.records());
  out << "  simulated time                   " << sim_.now().to_string()
      << "\n"
      << "  logged transactions              " << s.count << "\n"
      << "  logged bytes                     " << s.bytes << "\n"
      << "  mean txn latency                 " << s.mean_ns << " ns\n"
      << "  mean queueing delay              " << s.mean_queue_ns
      << " ns (issue->grant)\n"
      << "  mean service span                " << s.mean_service_ns
      << " ns (grant->completion)\n";
  const auto channels = trace::per_channel_stats(log_);
  if (!channels.empty()) {
    out << "  per-channel latency distributions:\n";
    trace::print_channel_table(out, channels);
  }
  if (cam_) {
    out << "  bus utilization                  " << cam_->utilization() << "\n";
    cam_->stats().report(out, "bus statistics");
  }
  // Failure-semantics section: only printed when the platform actually
  // carries an injector or retry shims, so fault-free reports stay
  // byte-identical to the pre-fault builds.
  if (injector_ || !retries_.empty()) {
    const FailureTotals t = failure_totals();
    if (injector_) {
      out << "  injected faults                  errors=" << t.injected_errors
          << " spikes=" << t.injected_spikes
          << " stalls=" << t.injected_stalls << "\n";
    }
    if (!retries_.empty()) {
      out << "  retry policy                     errors=" << t.errors_seen
          << " retries=" << t.retries_issued << " timeouts=" << t.timeouts
          << " aborts=" << t.aborts << "\n";
    }
  }
  if (cpu_) {
    out << "  cpu cycles consumed              " << cpu_->cycles_consumed()
        << "\n"
        << "  cpu bus transactions             " << cpu_->bus_transactions()
        << "\n";
  }
  if (rtos_) {
    out << "  rtos context switches            " << rtos_->context_switches()
        << "\n";
  }
  if (!monitors_.empty()) {
    out << "  ocp monitors:\n";
    for (const ocp::OcpMonitor* m : monitors_) {
      out << "    " << m->name() << ": cmd_beats=" << m->command_beats()
          << " resp_beats=" << m->response_beats()
          << " stall_cycles=" << m->stall_cycles()
          << " violations=" << m->violations()
          << " outstanding=" << m->outstanding() << "\n";
    }
  }
  // Kernel observability counters.
  out << "  kernel ctx switches              " << sim_.ctx_switches() << "\n"
      << "  kernel inline advances           " << sim_.inline_advances()
      << "\n";
  if (cam_) {
    const trace::StatSet& st = cam_->stats();
    const std::uint64_t tx = st.counter("transactions");
    if (tx != 0) {
      out << "  bus fast-path hit rate           "
          << static_cast<double>(st.counter("fast_path_hits")) /
                 static_cast<double>(tx)
          << "\n";
    }
  }
}

void MappedSystem::install_default_gauges(obs::MetricsRegistry& reg) {
  reg.add_gauge("bus_utilization",
                [this] { return cam_ ? cam_->utilization() : 0.0; });
  reg.add_gauge("outstanding_txns", [this] {
    return static_cast<double>(sim_.txn_pool().outstanding());
  });
  reg.add_gauge("queue_depth", [this] {
    if (auto* cb = dynamic_cast<cam::CamBase*>(cam_.get())) {
      return static_cast<double>(cb->queued_requests());
    }
    double n = 0.0;
    for (const auto& ch : channels_) {
      n += static_cast<double>(ch->queued_messages());
    }
    return n;
  });
}

// --------------------------------------------------------------- Mapper --

std::unique_ptr<cam::Arbiter> Mapper::make_arbiter(const Platform& p) {
  switch (p.arb) {
    case ArbKind::Priority:
      return std::make_unique<cam::PriorityArbiter>();
    case ArbKind::RoundRobin:
      return std::make_unique<cam::RoundRobinArbiter>();
    case ArbKind::Tdma: {
      // One slot per expected master; the table is resized generously —
      // slots of unknown masters fall back to round robin.
      std::vector<std::size_t> table{0, 1, 2, 3};
      return std::make_unique<cam::TdmaArbiter>(table, p.tdma_slot_cycles);
    }
    case ArbKind::PriorityAging:
      return std::make_unique<cam::AgingPriorityArbiter>(p.aging_cycles);
    case ArbKind::Bandwidth:
      return std::make_unique<cam::BandwidthArbiter>(p.qos_shares);
  }
  return std::make_unique<cam::PriorityArbiter>();
}

std::unique_ptr<cam::CamIf> Mapper::make_bus(Simulator& sim,
                                             const Platform& p) {
  const std::size_t width = p.bus_width_bytes();
  const cam::SplitConfig split{p.split_txns, p.max_outstanding};
  switch (p.bus) {
    case BusKind::SharedBus:
      return std::make_unique<cam::SharedBusCam>(sim, "bus", p.bus_cycle,
                                                 make_arbiter(p), width, split,
                                                 p.fast_targets);
    case BusKind::Plb:
      return std::make_unique<cam::PlbCam>(sim, "plb", p.bus_cycle,
                                           make_arbiter(p), width, split,
                                           p.fast_targets);
    case BusKind::Opb:
      return std::make_unique<cam::OpbCam>(sim, "opb", p.bus_cycle,
                                           make_arbiter(p), width, split,
                                           p.fast_targets);
    case BusKind::Crossbar:
      return std::make_unique<cam::CrossbarCam>(sim, "xbar", p.bus_cycle,
                                                width, split);
  }
  throw ElaborationError("unknown bus kind");
}

std::unique_ptr<MappedSystem> Mapper::map(Simulator& sim, SystemGraph& graph,
                                          const Platform& platform,
                                          AbstractionLevel level) {
  std::unique_ptr<MappedSystem> ms(
      new MappedSystem(sim, platform, level));
  ms->graph_ = &graph;
  ms->pes_ = graph.pes();
  switch (level) {
    case AbstractionLevel::ComponentAssembly:
      build_abstract(*ms, graph, /*timed=*/false);
      break;
    case AbstractionLevel::Ccatb:
      build_abstract(*ms, graph, /*timed=*/true);
      break;
    case AbstractionLevel::Cam:
      build_cam(*ms, graph);
      break;
  }
  return ms;
}

void Mapper::build_abstract(MappedSystem& ms, SystemGraph& g, bool timed) {
  const Platform& p = ms.plat_;
  // One execution context per PE; all PEs run as kernel threads at these
  // levels (the partition decision only binds below CCATB).
  std::map<const ProcessingElement*, HwExecContext*> ctx_of;
  for (ProcessingElement* pe : g.pes()) {
    ms.hw_ctx_.push_back(std::make_unique<HwExecContext>(ms.sim_, p.pe_clock));
    ctx_of[pe] = ms.hw_ctx_.back().get();
  }

  for (const ChannelSpec& spec : g.channels()) {
    std::optional<ship::CcatbModel> timing;
    if (timed) {
      timing.emplace(p.bus_cycle, p.bus_width_bytes(), p.ccatb_setup_cycles);
    }
    ms.channels_.push_back(std::make_unique<ship::ShipChannel>(
        ms.sim_, spec.name, spec.queue_depth, timing));
    ship::ShipChannel& ch = *ms.channels_.back();
    ch.set_txn_logger(&ms.log_);
    ctx_of[spec.a]->add_channel(spec.port_a, ch.a());
    ctx_of[spec.b]->add_channel(spec.port_b, ch.b());
    ms.mapping_notes_.push_back("channel " + spec.name + " -> SHIP (" +
                                (timed ? "ccatb" : "untimed") + ")");
  }

  for (std::size_t i = 0; i < g.pes().size(); ++i) {
    ProcessingElement* pe = g.pes()[i];
    ms.hw_procs_.push_back(
        &ms.sim_.spawn_thread("pe." + pe->name(), ms.pe_body(i, ctx_of[pe])));
  }
}

void Mapper::build_cam(MappedSystem& ms, SystemGraph& g) {
  const Platform& p = ms.plat_;
  if (!g.roles_known()) {
    throw ElaborationError(
        "CAM mapping needs channel roles: declare them in connect() or run "
        "SystemGraph::discover_roles() first");
  }

  ms.cam_ = make_bus(ms.sim_, p);
  ms.cam_->set_txn_logger(&ms.log_);
  // Failure semantics: attach the seeded injector only when the profile
  // is active, so fault-free platforms run the identical (fast-path
  // capable) configuration as before this subsystem existed.
  if (p.fault.active()) {
    ms.injector_ = std::make_unique<fault::Injector>(p.fault);
    ms.cam_->set_fault_injector(ms.injector_.get());
    ms.mapping_notes_.push_back(
        "fault injector -> seed " + std::to_string(p.fault.seed) +
        (p.fault.name.empty() ? std::string() : " (" + p.fault.name + ")"));
  }
  const bool with_retry = p.retry.active();
  auto make_retry = [&](const std::string& name,
                        std::size_t midx) -> cam::RetryPolicy* {
    ms.retries_.push_back(std::make_unique<cam::RetryPolicy>(
        ms.sim_, name, p.retry, *ms.cam_, midx));
    return ms.retries_.back().get();
  };

  const bool any_sw = [&] {
    for (ProcessingElement* pe : g.pes()) {
      if (g.partition(*pe) == Partition::Software) return true;
    }
    return false;
  }();

  if (any_sw) {
    ms.cpu_ = std::make_unique<cpu::CpuModel>(ms.sim_, "cpu", p.cpu_clock);
    ms.irq_ = std::make_unique<cpu::IrqController>(ms.sim_, "irq_ctrl");
    ms.rtos_ = std::make_unique<rtos::Rtos>(ms.sim_, "rtos", *ms.cpu_,
                                            p.rtos_cfg);
    const std::size_t cpu_midx = ms.cam_->add_master("cpu");
    if (with_retry) {
      // The driver-level MMIO (HW/SW ShipDriver) rides the CPU's bus
      // port, so one shim in front of it covers the whole SW partition.
      ms.cpu_->bind_bus(*make_retry("cpu.retry", cpu_midx));
    } else {
      ms.cpu_->bind_bus(ms.cam_->master_port(cpu_midx));
    }
  }

  // Execution contexts: every context binds channels; hardware contexts
  // also bind memory ports.
  std::map<const ProcessingElement*, ExecContext*> ctx_of;
  std::map<const ProcessingElement*, HwExecContext*> hw_ctx_of;
  for (ProcessingElement* pe : g.pes()) {
    if (g.partition(*pe) == Partition::Hardware) {
      ms.hw_ctx_.push_back(
          std::make_unique<HwExecContext>(ms.sim_, p.pe_clock));
      ctx_of[pe] = hw_ctx_of[pe] = ms.hw_ctx_.back().get();
    } else {
      ms.sw_ctx_.push_back(std::make_unique<SwExecContext>(*ms.rtos_, *ms.cpu_));
      ctx_of[pe] = ms.sw_ctx_.back().get();
    }
  }

  // Addressable memory targets: attach each as a CAM slave and hand
  // every client PE its own bus master port. Clients issue their own
  // transactions (post()/transport()), so they must run in hardware —
  // the SW partition reaches memory through the CPU model instead.
  for (const MemorySpec& mem : g.memories()) {
    ms.memories_.push_back(std::make_unique<ocp::BankedMemorySlave>(
        mem.name, mem.base, mem.size, mem.cfg));
    ms.cam_->attach_slave(*ms.memories_.back(), {mem.base, mem.size},
                          mem.name);
    for (ProcessingElement* pe : mem.clients) {
      if (g.partition(*pe) != Partition::Hardware) {
        throw ElaborationError("memory client " + pe->name() + " of " +
                               mem.name + " must be a hardware PE");
      }
      const std::size_t midx =
          ms.cam_->add_master(mem.name + "." + pe->name());
      cam::RetryPolicy* rp =
          with_retry ? make_retry(mem.name + "." + pe->name() + ".retry", midx)
                     : nullptr;
      hw_ctx_of.at(pe)->bind_memory(ms.cam_.get(), midx, rp);
    }
    ms.mapping_notes_.push_back(
        "memory " + mem.name + " -> banked OCP slave (" +
        std::to_string(mem.cfg.banks) + " banks, " +
        std::to_string(mem.clients.size()) + " direct masters)");
  }

  auto port_of = [](const ChannelSpec& spec, const ProcessingElement* pe) {
    return pe == spec.a ? spec.port_a : spec.port_b;
  };

  // Mailbox address allocation: sequential 4 KiB-aligned windows.
  std::uint64_t next_base = p.mailbox_base;
  auto alloc_layout = [&]() {
    cam::MailboxLayout l;
    l.base = next_base;
    l.window_bytes = p.mailbox_window;
    next_base += (l.span() + 0xfffull) & ~0xfffull;
    return l;
  };

  std::uint32_t next_irq_line = 0;
  std::map<int, hwsw::ShipDriver*> isr_routes;

  for (const ChannelSpec& spec : g.channels()) {
    const Partition part_a = g.partition(*spec.a);
    const Partition part_b = g.partition(*spec.b);
    // Terminal roles: role_a is known; master PE is a iff role_a==Master.
    ProcessingElement* master_pe =
        spec.role_a == ship::Role::Master ? spec.a : spec.b;
    ProcessingElement* slave_pe = master_pe == spec.a ? spec.b : spec.a;

    if (part_a == Partition::Software && part_b == Partition::Software) {
      ms.sw_channels_.push_back(
          std::make_unique<SwLocalChannel>(*ms.rtos_, spec.name,
                                           spec.queue_depth));
      SwLocalChannel& ch = *ms.sw_channels_.back();
      ctx_of.at(spec.a)->add_channel(spec.port_a, ch.a());
      ctx_of.at(spec.b)->add_channel(spec.port_b, ch.b());
      ms.mapping_notes_.push_back("channel " + spec.name +
                                  " -> RTOS-local queue (SW/SW)");
      continue;
    }

    if (part_a != part_b) {
      // HW/SW crossing: adapter + driver.
      const cam::MailboxLayout layout = alloc_layout();
      ms.adapters_.push_back(std::make_unique<hwsw::HwAdapter>(
          ms.sim_, spec.name + ".hwadapter", layout));
      hwsw::HwAdapter& ad = *ms.adapters_.back();
      ms.cam_->attach_slave(ad, layout.range(), spec.name);
      const std::uint32_t line = next_irq_line++;
      STLM_ASSERT(line < 32, "too many HW/SW channels (IRQ lines exhausted)");
      ms.irq_->attach(ad.irq(), line);
      ms.drivers_.push_back(std::make_unique<hwsw::ShipDriver>(
          spec.name + ".driver", *ms.rtos_, *ms.cpu_, layout, p.driver_cfg));
      hwsw::ShipDriver& drv = *ms.drivers_.back();
      isr_routes[static_cast<int>(line)] = &drv;

      ProcessingElement* hw_pe =
          g.partition(*spec.a) == Partition::Hardware ? spec.a : spec.b;
      ProcessingElement* sw_pe = hw_pe == spec.a ? spec.b : spec.a;
      ctx_of.at(hw_pe)->add_channel(port_of(spec, hw_pe), ad);
      ctx_of.at(sw_pe)->add_channel(port_of(spec, sw_pe), drv);
      ms.mapping_notes_.push_back(
          "channel " + spec.name + " -> HW/SW interface (mailbox @0x" +
          [&] {
            char buf[20];
            std::snprintf(buf, sizeof buf, "%llx",
                          static_cast<unsigned long long>(layout.base));
            return std::string(buf);
          }() +
          ", irq " + std::to_string(line) + ")");
      continue;
    }

    // HW/HW: wrapper pair over the CAM.
    const cam::MailboxLayout layout = alloc_layout();
    ms.slave_wraps_.push_back(std::make_unique<cam::ShipSlaveWrapper>(
        ms.sim_, spec.name + ".slave", layout));
    cam::ShipSlaveWrapper& sw = *ms.slave_wraps_.back();
    ms.cam_->attach_slave(sw, layout.range(), spec.name);
    const std::size_t midx = ms.cam_->add_master(spec.name + ".m");
    ms.master_wraps_.push_back(std::make_unique<cam::ShipMasterWrapper>(
        ms.sim_, spec.name + ".master", *ms.cam_, midx, layout,
        p.poll_interval, p.coalesce_bursts));
    cam::ShipMasterWrapper& mw = *ms.master_wraps_.back();
    if (with_retry) mw.set_retry(make_retry(spec.name + ".retry", midx));
    ctx_of.at(master_pe)->add_channel(port_of(spec, master_pe), mw);
    ctx_of.at(slave_pe)->add_channel(port_of(spec, slave_pe), sw);
    ms.mapping_notes_.push_back("channel " + spec.name +
                                " -> SHIP/OCP wrappers on " +
                                std::string(bus_kind_name(p.bus)));
  }

  if (ms.rtos_ && !isr_routes.empty()) {
    ms.rtos_->attach_isr(*ms.irq_, [isr_routes](int line) {
      auto it = isr_routes.find(line);
      if (it != isr_routes.end()) it->second->on_irq();
    });
  }

  // Spawn PE execution.
  for (std::size_t i = 0; i < g.pes().size(); ++i) {
    ProcessingElement* pe = g.pes()[i];
    ExecContext* ctx = ctx_of.at(pe);
    if (g.partition(*pe) == Partition::Hardware) {
      ms.hw_procs_.push_back(
          &ms.sim_.spawn_thread("pe." + pe->name(), ms.pe_body(i, ctx)));
    } else {
      ms.rtos_->create_task(pe->name(), /*priority=*/1, ms.pe_body(i, ctx));
      ms.mapping_notes_.push_back("pe " + pe->name() +
                                  " -> eSW task on RTOS (synthesized)");
    }
  }
}

}  // namespace stlm::core
