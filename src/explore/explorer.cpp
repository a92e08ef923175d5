#include "explore/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>

#include "kernel/report.hpp"
#include "obs/obs.hpp"
#include "trace/channel_stats.hpp"
#include "trace/stats.hpp"

namespace stlm::expl {

// The row's latency, failure and goodput columns. The distribution
// columns come from trace::latency_dist over the log; one more pass
// collects what it lacks: per-master latencies (TxnRecord::master) for
// the worst-master tail, delivered bytes for goodput, and SLO misses.
void Explorer::analyze_log(core::MappedSystem& ms, ExplorationRow& row) const {
  const trace::TxnLogger& log = ms.txn_log();
  const trace::LatencyDist d = trace::latency_dist(log.records());
  row.transactions = d.count;
  row.bytes = d.bytes;
  row.mean_latency_ns = d.mean_ns;
  row.p50_latency_ns = d.p50_ns;
  row.p95_latency_ns = d.p95_ns;
  row.p99_latency_ns = d.p99_ns;
  row.mean_queue_ns = d.mean_queue_ns;
  row.retries = d.retried;

  // One latency buffer per master id, reused by every cell a thread
  // evaluates.
  thread_local std::vector<std::vector<double>> per_master;
  const std::uint32_t n_channels = log.channel_count();
  if (per_master.size() < n_channels) per_master.resize(n_channels);
  for (std::uint32_t id = 0; id < n_channels; ++id) per_master[id].clear();

  std::uint64_t valid_bytes = 0;
  std::uint64_t slo_missed = 0;
  const double slo_ns = slo_.to_ns();
  for (const auto& r : log.records()) {
    const double l = r.latency_ns();
    if (r.master < n_channels) per_master[r.master].push_back(l);
    // Goodput follows Transaction::data_valid(): Ok plus late-but-
    // correct Timeout — the watchdog fired but the payload arrived, so
    // the bytes were delivered (they still count toward error_rate).
    if (r.status == trace::TxnStatus::Ok ||
        r.status == trace::TxnStatus::Timeout) {
      valid_bytes += r.bytes;
    }
    if (slo_ns > 0.0 && l > slo_ns) ++slo_missed;
  }

  if (d.count != 0) {
    const auto n = static_cast<double>(d.count);
    row.error_rate = static_cast<double>(d.errors + d.timeouts + d.aborted) / n;
    row.slo_miss_pct = 100.0 * static_cast<double>(slo_missed) / n;
  }
  if (row.sim_time_us > 0.0) {
    // MB/s of delivered payload: bytes / us == MB/s.
    row.goodput_mbps = static_cast<double>(valid_bytes) / row.sim_time_us;
  }
  const auto totals = ms.failure_totals();
  row.timeouts = totals.timeouts;
  row.aborted = totals.aborts;
  for (std::uint32_t id = 0; id < n_channels; ++id) {
    std::vector<double>& m = per_master[id];
    if (m.empty()) continue;
    row.worst_master_p99_ns =
        std::max(row.worst_master_p99_ns, trace::percentile(m, 99.0));
  }
}

// One system and the graph it is bound to, reused cell after cell: the
// one place a cell is built, mapped or reset, traced, run and analysed.
class Explorer::Runner {
public:
  // A workload's graph and the PEs it points at, as its factory built
  // them.
  struct Built {
    std::vector<std::unique_ptr<core::ProcessingElement>> owned;
    core::SystemGraph graph;

    explicit Built(const WorkloadCase& workload) {
      workload.factory(graph, owned);
    }
  };

  explicit Runner(const Explorer& ex) : ex_(ex) {}

  // Whether the cell is the TraceTarget (see the header).
  bool traced(const core::Platform& platform,
              const WorkloadCase& workload) const {
    const TraceTarget& target = ex_.trace_target_;
    return !target.path.empty() && target.platform == platform.name &&
           target.workload == workload.name;
  }

  // Build the cell's graph, bind this runner's system to it (a fresh
  // map for the first cell, a graph of another shape and the trace
  // target; a reset otherwise), run it and return its row.
  ExplorationRow run(const core::Platform& platform,
                     const WorkloadCase& workload, Time max_time) {
    STLM_ASSERT(workload.factory != nullptr,
                "Explorer: workload '" + workload.name + "' has no factory");
    ExplorationRow row;
    row.platform = platform.name;
    row.workload = workload.name;
    row.cost = platform.cost_proxy();

    auto next = std::make_unique<Built>(workload);
    next->graph.discover_roles();
    std::optional<obs::TraceSession> trace;
    if (traced(platform, workload)) trace.emplace();
    if (trace || !ms_ || !ms_->same_shape(next->graph)) {
      // The old system goes before its simulator, both before the old
      // graph whose PEs their parked frames point into.
      ms_.reset();
      sim_.reset();
      sim_ = std::make_unique<Simulator>();
      if (trace) trace->attach(*sim_);
      // stlm-lint: allow(one-cell-path): the runner's one map
      ms_ = core::Mapper::map(*sim_, next->graph, platform,
                              core::AbstractionLevel::Cam);
      ++mapped_;
    } else {
      ms_->reset(next->graph);
    }
    built_ = std::move(next);
    simulate(max_time, row);
    if (trace) {
      trace->detach();
      const std::string& path = ex_.trace_target_.path;
      std::ofstream trace_out(path);
      if (!trace_out) {
        throw SimulationError("cannot open trace file: " + path);
      }
      trace->write_json(trace_out);
    }
    return row;
  }

  // Cells this runner mapped; the others ran on a reset system.
  std::size_t mapped() const { return mapped_; }

private:
  // Run the bound cell until done and fill every simulated column of
  // `row` from it, and wall_ms.
  void simulate(Time max_time, ExplorationRow& row) {
    core::MappedSystem& ms = *ms_;
    // stlm-lint: allow(determinism-wall-clock): measures host wall time
    // for the row's wall_ms speed metric; never feeds back into
    // simulated state
    const auto wall_start = std::chrono::steady_clock::now();
    row.completed = ms.run_until_done(max_time);
    // stlm-lint: allow(determinism-wall-clock): second endpoint of the
    // wall_ms measurement above; reporting-only
    const auto wall_end = std::chrono::steady_clock::now();

    row.sim_time_us = ms.sim().now().to_seconds() * 1e6;
    row.wall_ms = std::chrono::duration<double, std::milli>(wall_end -
                                                            wall_start)
                      .count();
    ex_.analyze_log(ms, row);
    if (ms.bus()) {
      row.bus_utilization = ms.bus()->utilization();
      const trace::StatSet& st = ms.bus()->stats();
      const std::uint64_t tx = st.counter("transactions");
      if (tx != 0) {
        row.fast_hit_rate =
            static_cast<double>(st.counter("fast_path_hits")) /
            static_cast<double>(tx);
      }
      if (const auto* cb = dynamic_cast<const cam::CamBase*>(ms.bus())) {
        row.contended_picks = cb->grant_engine().contended_picks();
      }
    }
    row.ctx_switches = ms.sim().ctx_switches();
  }

  const Explorer& ex_;
  std::size_t mapped_ = 0;
  // The graph outlives the system bound to it.
  std::unique_ptr<Built> built_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<core::MappedSystem> ms_;
};

ExplorationRow Explorer::evaluate(const core::Platform& platform,
                                  const WorkloadCase& workload,
                                  Time max_time) {
  return Runner(*this).run(platform, workload, max_time);
}

std::vector<ExplorationRow> Explorer::sweep_parallel(
    const std::vector<core::Platform>& cands,
    const std::vector<WorkloadCase>& workloads, Time max_time,
    unsigned n_threads) {
  const std::size_t nw = workloads.size();
  std::vector<ExplorationRow> rows(cands.size() * nw);

  // rep[c]: the first candidate with c's arbiter-free point (c itself
  // for a representative); siblings[r]: the others r represents.
  std::vector<std::size_t> rep(cands.size());
  std::vector<std::vector<std::size_t>> siblings(cands.size());
  std::vector<core::Platform> points(cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    points[c] = core::arbiter_free_point(cands[c]);
    const auto seen = points.begin() + static_cast<std::ptrdiff_t>(c);
    rep[c] = static_cast<std::size_t>(
        std::find(points.begin(), seen, points[c]) - points.begin());
    if (rep[c] == c) continue;
    // A copied row skips the sibling's elaboration, so build its policy
    // here: one that cannot be built fails the sweep as evaluate() would.
    if (cands[c].bus != core::BusKind::Crossbar) {
      core::Mapper::make_arbiter(cands[c]);
    }
    siblings[rep[c]].push_back(c);
  }
  // Shape groups of the workload axis, each in input order, found from
  // one graph per factory.
  std::vector<std::vector<std::size_t>> shape_groups;
  {
    std::vector<Runner::Built> probes;  // the first graph of each group
    probes.reserve(nw);
    for (std::size_t w = 0; w < nw; ++w) {
      STLM_ASSERT(workloads[w].factory != nullptr,
                  "Explorer: workload '" + workloads[w].name +
                      "' has no factory");
      Runner::Built probe(workloads[w]);
      std::size_t g = 0;
      while (g < probes.size() && !probes[g].graph.same_shape(probe.graph)) {
        ++g;
      }
      if (g == probes.size()) {
        probes.push_back(std::move(probe));
        shape_groups.emplace_back();
      }
      shape_groups[g].push_back(w);
    }
  }

  // One task per (representative, shape group): the representative's
  // cells, then each sibling's, copied or simulated. Tasks queue FIFO,
  // so a lone caller thread runs them in submission order.
  WorkPool pool(
      static_cast<unsigned>(std::min<std::size_t>(n_threads, rows.size())),
      thread_factory_);
  std::atomic<std::size_t> mapped{0};
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (rep[c] != c) continue;
    for (const std::vector<std::size_t>& group : shape_groups) {
      pool.submit([&, c] {
        std::size_t task_mapped = 0;
        // The representative first, then each sibling: one runner each,
        // one system alive at a time.
        for (std::size_t k = 0; k <= siblings[c].size(); ++k) {
          const std::size_t p = k == 0 ? c : siblings[c][k - 1];
          Runner runner(*this);
          for (std::size_t w : group) {
            const ExplorationRow& rep_row = rows[c * nw + w];
            ExplorationRow& row = rows[p * nw + w];
            if (p == c || rep_row.contended_picks != 0 ||
                runner.traced(cands[p], workloads[w])) {
              row = runner.run(cands[p], workloads[w], max_time);
              continue;
            }
            row = rep_row;
            row.platform = cands[p].name;
            row.cost = cands[p].cost_proxy();
            row.wall_ms = 0.0;
            row.shared_from = rep_row.platform;
          }
          task_mapped += runner.mapped();
        }
        mapped.fetch_add(task_mapped, std::memory_order_relaxed);
      });
    }
  }
  pool.run();
  last_spawn_failures_ = pool.spawn_failures();
  last_shared_cells_ = static_cast<std::size_t>(
      std::count_if(rows.begin(), rows.end(), [](const ExplorationRow& r) {
        return !r.shared_from.empty();
      }));
  last_mapped_cells_ = mapped.load(std::memory_order_relaxed);
  if (pool.first_error()) std::rethrow_exception(pool.first_error());
  return rows;
}

void Explorer::print_table(std::ostream& os,
                           const std::vector<ExplorationRow>& rows) {
  trace::ScopedOstreamFormat guard(os);
  // Size the name column to the longest platform (the grid generator
  // produces names well past the old fixed 24 columns). The workload
  // column only appears when a row carries a workload name.
  std::size_t name_w = 20;
  std::size_t wl_w = 0;
  for (const auto& r : rows) {
    name_w = std::max(name_w, r.platform.size());
    wl_w = std::max(wl_w, r.workload.size());
  }
  const bool with_workload = wl_w > 0;
  const int nw = static_cast<int>(name_w + 2);
  const int ww = static_cast<int>(std::max<std::size_t>(wl_w, 8) + 2);
  // Render the header into a buffer first so the separator is sized from
  // what was actually printed — a hard-coded width drifts every time a
  // column is appended.
  std::ostringstream header;
  header << std::left << std::setw(nw) << "platform";
  if (with_workload) header << std::setw(ww) << "workload";
  header << std::right << std::setw(6)
         << "done" << std::setw(14) << "sim_time_us" << std::setw(12)
         << "wall_ms"
         << std::setw(14) << "mean_lat_ns" << std::setw(12) << "p50_ns"
         << std::setw(12) << "p95_ns" << std::setw(12) << "p99_ns"
         << std::setw(12) << "queue_ns" << std::setw(12) << "wm_p99_ns"
         << std::setw(10) << "bus_util"
         << std::setw(10) << "txns" << std::setw(12) << "bytes"
         << std::setw(12) << "ctx_sw" << std::setw(10) << "fast_hit"
         << std::setw(10) << "err_rate" << std::setw(10) << "retried"
         << std::setw(8) << "tmo" << std::setw(8) << "abrt"
         << std::setw(12) << "goodput_mbs" << std::setw(10) << "slo_miss";
  os << header.str() << "\n";
  os << std::string(header.str().size(), '-') << "\n";
  for (const auto& r : rows) {
    os << std::left << std::setw(nw) << r.platform;
    if (with_workload) os << std::setw(ww) << r.workload;
    os << std::right
       << std::setw(6) << (r.completed ? "yes" : "NO") << std::setw(14)
       << std::fixed << std::setprecision(2) << r.sim_time_us << std::setw(12)
       << std::setprecision(2) << r.wall_ms << std::setw(14)
       << std::setprecision(1) << r.mean_latency_ns << std::setw(12)
       << r.p50_latency_ns << std::setw(12) << r.p95_latency_ns
       << std::setw(12) << r.p99_latency_ns << std::setw(12) << r.mean_queue_ns
       << std::setw(12) << r.worst_master_p99_ns
       << std::setw(10) << std::setprecision(3) << r.bus_utilization
       << std::setw(10) << r.transactions << std::setw(12) << r.bytes
       << std::setw(12) << r.ctx_switches
       << std::setw(10) << std::setprecision(3) << r.fast_hit_rate
       << std::setw(10) << std::setprecision(4) << r.error_rate
       << std::setw(10) << r.retries
       << std::setw(8) << r.timeouts << std::setw(8) << r.aborted
       << std::setw(12) << std::setprecision(1) << r.goodput_mbps
       << std::setw(10) << std::setprecision(2) << r.slo_miss_pct << "\n";
  }
}

std::vector<core::Platform> default_candidates() {
  std::vector<core::Platform> cands;
  {
    core::Platform p;
    p.name = "shared-bus-priority";
    p.bus = core::BusKind::SharedBus;
    p.arb = core::ArbKind::Priority;
    cands.push_back(p);
  }
  {
    core::Platform p;
    p.name = "plb-priority";
    p.bus = core::BusKind::Plb;
    p.arb = core::ArbKind::Priority;
    cands.push_back(p);
  }
  {
    core::Platform p;
    p.name = "plb-round-robin";
    p.bus = core::BusKind::Plb;
    p.arb = core::ArbKind::RoundRobin;
    cands.push_back(p);
  }
  {
    core::Platform p;
    p.name = "plb-tdma";
    p.bus = core::BusKind::Plb;
    p.arb = core::ArbKind::Tdma;
    cands.push_back(p);
  }
  {
    core::Platform p;
    p.name = "opb-round-robin";
    p.bus = core::BusKind::Opb;
    p.arb = core::ArbKind::RoundRobin;
    p.bus_cycle = Time::ns(20);  // OPB-class clock
    cands.push_back(p);
  }
  {
    core::Platform p;
    p.name = "crossbar";
    p.bus = core::BusKind::Crossbar;
    cands.push_back(p);
  }
  return cands;
}

std::vector<core::Platform> grid_candidates(const GridSpec& spec) {
  const core::KnobSpace& k = spec.knobs;
  std::vector<core::Platform> cands;
  for (core::BusKind bus : k.buses) {
    const bool arbitrated = bus != core::BusKind::Crossbar;
    const std::size_t arb_count = arbitrated ? k.arbs.size() : 1;
    for (std::size_t ai = 0; ai < arb_count; ++ai) {
      for (Time cycle : k.bus_cycles) {
        for (std::size_t width : k.data_widths) {
          for (std::size_t outstanding : k.max_outstanding) {
            for (bool fast : k.fast_targets) {
              // Validity (OPB never splits, fast is atomic-only) is
              // shared with grid_neighbors so mutation can never step
              // outside the sweepable space.
              if (!core::knob_point_valid(bus, outstanding, fast)) continue;
              for (const fault::FaultProfile& fp : spec.faults) {
                for (const fault::RetrySpec& rs : spec.retries) {
                  core::Platform p;
                  p.bus = bus;
                  if (arbitrated) p.arb = k.arbs[ai];
                  p.bus_cycle = cycle;
                  p.data_width_bytes = width;
                  if (outstanding > 1) {
                    p.split_txns = true;
                    p.max_outstanding = outstanding;
                  }
                  p.fast_targets = fast;
                  p.fault = fp;
                  p.retry = rs;
                  core::finish_knob_point(p, k);
                  cands.push_back(std::move(p));
                }
              }
            }
          }
        }
      }
    }
  }
  return cands;
}

}  // namespace stlm::expl
