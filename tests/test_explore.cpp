// Tests for the exploration engine: sweeping the CAM library with
// identical PE code and getting per-architecture metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "explore/explore.hpp"
#include "explore_fixtures.hpp"
#include "kernel/kernel.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::core;
using namespace stlm::expl;
using stlm::test::expect_row_invariants;
using stlm::test::expect_sim_columns_equal;
using stlm::test::two_streams;
using namespace stlm::time_literals;

TEST(Explorer, EvaluatesOnePlatform) {
  Explorer ex;
  Platform p;  // default PLB/priority
  const auto row = ex.evaluate(p, two_streams(8, 64), 10_ms);
  EXPECT_TRUE(row.completed);
  EXPECT_GT(row.sim_time_us, 0.0);
  EXPECT_GT(row.transactions, 0u);
  EXPECT_GT(row.bytes, 0u);
  EXPECT_GT(row.bus_utilization, 0.0);
}

TEST(Explorer, SweepCoversCamLibrary) {
  Explorer ex;
  const auto rows =
      ex.sweep_parallel(default_candidates(), {two_streams(6, 64)}, 50_ms, 1);
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.completed) << r.platform;
    EXPECT_GT(r.sim_time_us, 0.0) << r.platform;
  }
}

TEST(Explorer, ArchitectureChoiceChangesTiming) {
  Explorer ex;
  const WorkloadCase wl = two_streams(10, 256);
  Platform plb;
  plb.name = "plb";
  Platform opb;
  opb.name = "opb";
  opb.bus = BusKind::Opb;
  opb.bus_cycle = 20_ns;
  const auto r_plb = ex.evaluate(plb, wl, 100_ms);
  const auto r_opb = ex.evaluate(opb, wl, 100_ms);
  ASSERT_TRUE(r_plb.completed);
  ASSERT_TRUE(r_opb.completed);
  // A 64-bit 100 MHz PLB must finish the same workload sooner than a
  // 32-bit 50 MHz OPB — the paper's "exploration tells architectures
  // apart" in one assertion.
  EXPECT_LT(r_plb.sim_time_us, r_opb.sim_time_us);
}

TEST(Explorer, CrossbarBeatsSharedBusOnIndependentStreams) {
  Explorer ex;
  const WorkloadCase wl = two_streams(10, 256);
  Platform shared;
  shared.name = "shared";
  shared.bus = BusKind::SharedBus;
  Platform xbar;
  xbar.name = "xbar";
  xbar.bus = BusKind::Crossbar;
  const auto r_shared = ex.evaluate(shared, wl, 100_ms);
  const auto r_xbar = ex.evaluate(xbar, wl, 100_ms);
  ASSERT_TRUE(r_shared.completed);
  ASSERT_TRUE(r_xbar.completed);
  EXPECT_LT(r_xbar.sim_time_us, r_shared.sim_time_us);
}

TEST(Explorer, TableRendersAllRows) {
  Explorer ex;
  const auto rows = ex.sweep_parallel({Platform{}}, {two_streams(4, 32)},
                                      10_ms, 1);
  std::ostringstream os;
  Explorer::print_table(os, rows);
  const std::string t = os.str();
  EXPECT_NE(t.find("platform"), std::string::npos);
  EXPECT_NE(t.find("plb-priority"), std::string::npos);
  // The latency-distribution columns are part of the sweep table.
  EXPECT_NE(t.find("p50_ns"), std::string::npos);
  EXPECT_NE(t.find("p95_ns"), std::string::npos);
  EXPECT_NE(t.find("p99_ns"), std::string::npos);
  EXPECT_NE(t.find("queue_ns"), std::string::npos);
}

// On a contended shared bus the tail must sit above the median and the
// queueing delay must be nonzero — the numbers that actually rank
// platforms once the mean saturates.
TEST(Explorer, LatencyPercentilesAreOrderedAndQueueingVisible) {
  Explorer ex;
  Platform shared;
  shared.name = "shared";
  shared.bus = BusKind::SharedBus;
  const auto r = ex.evaluate(shared, two_streams(10, 256), 100_ms);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.p50_latency_ns, 0.0);
  EXPECT_LE(r.p50_latency_ns, r.p95_latency_ns);
  EXPECT_LE(r.p95_latency_ns, r.p99_latency_ns);
  EXPECT_GT(r.mean_queue_ns, 0.0) << "two producers on one bus never queued?";
  EXPECT_LT(r.mean_queue_ns, r.mean_latency_ns);
}

// Row invariants (expect_row_invariants) on every cell of the default
// grid x canonical workloads.
TEST(Explorer, EveryDefaultGridRowKeepsTheRowInvariants) {
  const auto plats = grid_candidates();
  const auto loads = workload_candidates();
  ASSERT_EQ(plats.size() * loads.size(), 540u);
  Explorer ex;
  std::size_t fast_rows_with_hits = 0;
  for (const Platform& p : plats) {
    for (const auto& w : loads) {
      const ExplorationRow r = ex.evaluate(p, w, 200_ms);
      expect_row_invariants(p, r);
      if (r.fast_hit_rate > 0.0) ++fast_rows_with_hits;
    }
  }
  // The fast-path bounds are not vacuous: the -fast points hit.
  EXPECT_GT(fast_rows_with_hits, 0u);
}

// The same invariants on the faulted grid: every timing point with one
// active FaultProfile (errors, latency spikes, arbiter stalls) and one
// active RetrySpec (re-issues with backoff and a per-attempt watchdog).
TEST(Explorer, EveryFaultedGridRowKeepsTheRowInvariants) {
  GridSpec spec;
  spec.faults = {{"flaky", 0xfa, 0.05, 0.03, 4, 0.02, 2}};
  spec.retries = {{"r6", 6, 2, 2_us}};
  const auto plats = grid_candidates(spec);
  const auto loads = workload_candidates();
  ASSERT_EQ(plats.size() * loads.size(), 540u);
  Explorer ex;
  std::uint64_t retried = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errored_rows = 0;
  for (const Platform& p : plats) {
    ASSERT_TRUE(p.fault.active() && p.retry.active()) << p.name;
    for (const auto& w : loads) {
      const ExplorationRow r = ex.evaluate(p, w, 200_ms);
      expect_row_invariants(p, r);
      retried += r.retries;
      timeouts += r.timeouts;
      if (r.error_rate > 0.0) ++errored_rows;
    }
  }
  // The failure paths ran: every row saw injected errors, which were
  // retried, and watchdogs fired.
  EXPECT_GT(retried, 0u);
  EXPECT_GT(timeouts, 0u);
  EXPECT_EQ(errored_rows, plats.size() * loads.size());
}

// analyze_log's claim: every latency column of a row is bit-identical to
// trace::latency_dist over the cell's records, and the worst-master tail
// is the largest p99 among the per-master row groups. The reference is
// the same cell mapped and run by hand.
TEST(Explorer, RowColumnsEqualLatencyDistOfTheCell) {
  Platform shared;
  shared.name = "shared";
  shared.bus = BusKind::SharedBus;
  Platform plb;
  plb.name = "plb";
  Platform split = plb;
  split.name = "plb-split4";
  split.split_txns = true;
  split.max_outstanding = 4;
  Platform opb;
  opb.name = "opb";
  opb.bus = BusKind::Opb;
  opb.bus_cycle = 20_ns;
  Platform xbar;
  xbar.name = "xbar";
  xbar.bus = BusKind::Crossbar;
  const WorkloadCase wl = two_streams(10, 256);
  for (const Platform& p : {shared, plb, split, opb, xbar}) {
    Explorer ex;
    const ExplorationRow row = ex.evaluate(p, wl, 100_ms);
    ASSERT_TRUE(row.completed) << p.name;

    std::vector<std::unique_ptr<ProcessingElement>> owned;
    SystemGraph graph;
    wl.factory(graph, owned);
    graph.discover_roles();
    Simulator sim;
    auto ms = Mapper::map(sim, graph, p, AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(100_ms)) << p.name;
    const trace::LatencyDist d = trace::latency_dist(ms->txn_log().records());
    ASSERT_GT(d.count, 0u) << p.name;
    EXPECT_EQ(row.transactions, d.count) << p.name;
    EXPECT_EQ(row.bytes, d.bytes) << p.name;
    EXPECT_EQ(row.mean_latency_ns, d.mean_ns) << p.name;
    EXPECT_EQ(row.p50_latency_ns, d.p50_ns) << p.name;
    EXPECT_EQ(row.p95_latency_ns, d.p95_ns) << p.name;
    EXPECT_EQ(row.p99_latency_ns, d.p99_ns) << p.name;
    EXPECT_EQ(row.mean_queue_ns, d.mean_queue_ns) << p.name;

    const cam::CamIf& bus = *ms->bus();
    std::set<std::string> masters;
    for (std::size_t i = 0; i < bus.master_count(); ++i) {
      masters.insert(bus.name() + "." + bus.master_label(i));
    }
    double worst_p99 = 0.0;
    std::size_t master_groups = 0;
    for (const auto& c : trace::per_channel_stats(ms->txn_log())) {
      if (masters.count(c.channel) == 0) continue;
      ++master_groups;
      worst_p99 = std::max(worst_p99, c.dist.p99_ns);
    }
    EXPECT_EQ(master_groups, 2u) << p.name;
    EXPECT_EQ(row.worst_master_p99_ns, worst_p99) << p.name;
  }
}

TEST(Explorer, PrintTableRestoresStreamFormatting) {
  Explorer ex;
  const auto rows = ex.sweep_parallel({Platform{}}, {two_streams(4, 32)},
                                      10_ms, 1);
  std::ostringstream os;
  const auto flags = os.flags();
  const auto precision = os.precision();
  const char fill = os.fill();
  Explorer::print_table(os, rows);
  // print_table uses std::fixed/std::setprecision internally; none of it
  // may leak into the caller's stream.
  EXPECT_EQ(os.flags(), flags);
  EXPECT_EQ(os.precision(), precision);
  EXPECT_EQ(os.fill(), fill);
  os << 1.23456789;
  EXPECT_EQ(os.str().substr(os.str().size() - 7), "1.23457");  // default fmt
}

TEST(Explorer, GridCoversCrossProduct) {
  const auto cands = grid_candidates();
  // 3 arbitrated buses x 3 arbiters + crossbar, each x 2 cycles x 2
  // widths; split-capable points (all but OPB) double across the
  // outstanding axis {1, 4}: (12 + 12 + 4) x 2 + 12 = 68 timing points.
  // The fast-target axis then duplicates each of the 40 atomic points
  // as a "-fast" variant: 68 + 40 = 108.
  EXPECT_EQ(cands.size(), 108u);
  std::set<std::string> names;
  for (const auto& p : cands) names.insert(p.name);
  EXPECT_EQ(names.size(), cands.size()) << "grid names must be unique";
  EXPECT_TRUE(names.count("plb-round-robin-10ns-64b"));
  EXPECT_TRUE(names.count("plb-round-robin-10ns-64b-fast"));
  EXPECT_TRUE(names.count("plb-round-robin-10ns-64b-split4"));
  EXPECT_TRUE(names.count("crossbar-20ns-32b"));
  EXPECT_TRUE(names.count("crossbar-20ns-32b-fast"));
  EXPECT_TRUE(names.count("crossbar-20ns-32b-split4"));
  EXPECT_FALSE(names.count("plb-round-robin-10ns-64b-split4-fast"))
      << "the fast axis must not apply to split points";
  std::size_t fast_points = 0;
  for (const auto& p : cands) {
    if (p.bus == core::BusKind::Opb) {
      EXPECT_FALSE(p.split_txns) << p.name;  // OPB has no split points
    }
    if (p.fast_targets) {
      ++fast_points;
      EXPECT_FALSE(p.split_txns) << p.name;  // fast is atomic-mode only
    }
  }
  EXPECT_EQ(fast_points, 40u);
}

TEST(Explorer, GridSpecIsParameterizable) {
  GridSpec spec;
  spec.knobs.buses = {BusKind::Plb};
  spec.knobs.arbs = {ArbKind::Priority};
  spec.knobs.bus_cycles = {10_ns};
  spec.knobs.data_widths = {4, 8, 16};
  spec.knobs.max_outstanding = {1};
  spec.knobs.fast_targets = {false};
  const auto cands = grid_candidates(spec);
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[2].data_width_bytes, 16u);
  EXPECT_EQ(cands[2].bus_width_bytes(), 16u);

  // The outstanding axis multiplies split-capable points and stamps the
  // split knobs onto the platform.
  spec.knobs.max_outstanding = {1, 2, 8};
  const auto split_cands = grid_candidates(spec);
  ASSERT_EQ(split_cands.size(), 9u);
  EXPECT_FALSE(split_cands[0].split_txns);
  EXPECT_TRUE(split_cands[1].split_txns);
  EXPECT_EQ(split_cands[1].max_outstanding, 2u);
  EXPECT_EQ(split_cands[2].name, "plb-priority-10ns-32b-split8");

  // The fast-target axis duplicates atomic points only, with a "-fast"
  // suffix and the knob stamped onto the platform.
  spec.knobs.fast_targets = {false, true};
  const auto fast_cands = grid_candidates(spec);
  ASSERT_EQ(fast_cands.size(), 12u);  // 3 atomic x 2 fast + 6 split
  EXPECT_FALSE(fast_cands[0].fast_targets);
  EXPECT_TRUE(fast_cands[1].fast_targets);
  EXPECT_EQ(fast_cands[1].name, "plb-priority-10ns-32b-fast");
}

TEST(Explorer, DataWidthChangesTiming) {
  Explorer ex;
  const WorkloadCase wl = two_streams(10, 256);
  Platform narrow;
  narrow.name = "plb-32b";
  narrow.data_width_bytes = 4;
  Platform wide;
  wide.name = "plb-64b";
  wide.data_width_bytes = 8;
  const auto r_narrow = ex.evaluate(narrow, wl, 100_ms);
  const auto r_wide = ex.evaluate(wide, wl, 100_ms);
  ASSERT_TRUE(r_narrow.completed);
  ASSERT_TRUE(r_wide.completed);
  // Halving the data path doubles the beats per payload: the narrow bus
  // must finish the same workload later.
  EXPECT_LT(r_wide.sim_time_us, r_narrow.sim_time_us);
}

TEST(Explorer, ParallelSweepMatchesSequentialBitExactly) {
  Explorer ex;
  const auto cands = grid_candidates();
  const std::vector<WorkloadCase> wl{two_streams(5, 96)};
  const Time budget = 200_ms;
  const auto seq = ex.sweep_parallel(cands, wl, budget, 1);
  const auto par = ex.sweep_parallel(cands, wl, budget, 4);
  ASSERT_EQ(par.size(), seq.size());
  // Each worker runs its own Simulator from fresh state, so thread
  // interleaving cannot perturb any simulated column.
  for (std::size_t i = 0; i < seq.size(); ++i) {
    expect_sim_columns_equal(par[i], seq[i]);
  }
}

TEST(Explorer, WorkloadGridRowsArePlatformMajorAndComplete) {
  Explorer ex;
  const auto plats = default_candidates();
  const auto loads = workload_candidates();
  const auto rows = ex.sweep_parallel(plats, loads, 200_ms, 1);
  ASSERT_EQ(rows.size(), plats.size() * loads.size());
  for (std::size_t pi = 0; pi < plats.size(); ++pi) {
    for (std::size_t wi = 0; wi < loads.size(); ++wi) {
      const auto& r = rows[pi * loads.size() + wi];
      EXPECT_EQ(r.platform, plats[pi].name);
      EXPECT_EQ(r.workload, loads[wi].name);
      EXPECT_TRUE(r.completed) << r.platform << "/" << r.workload;
      EXPECT_GT(r.transactions, 0u) << r.platform << "/" << r.workload;
    }
  }
}

TEST(Explorer, WorkloadChoiceChangesTiming) {
  // The same platform must rank workloads differently — otherwise the
  // new axis adds rows but no information.
  Explorer ex;
  const auto loads = workload_candidates();
  const auto rows = ex.sweep_parallel({Platform{}}, loads, 200_ms, 1);
  std::set<double> times;
  for (const auto& r : rows) times.insert(r.sim_time_us);
  EXPECT_EQ(times.size(), rows.size()) << "workloads are indistinguishable";
}

// The acceptance bar for the workload axis: the atomic 40-platform x
// 5-workload grid (200 rows, banked included) is bit-identical between
// a 1-thread and a 4-thread sweep. (The split axis is pinned to depth 1
// here to keep this anchor's platform list at its historical size; the
// split-mode platforms get the same guarantee from
// Explorer.ParallelSweepMatchesSequentialBitExactly.)
TEST(Explorer, WorkloadGrid200RowsParallelMatchesSequentialBitExactly) {
  Explorer ex;
  GridSpec atomic_spec;
  atomic_spec.knobs.max_outstanding = {1};
  atomic_spec.knobs.fast_targets = {false};  // keep the historical 40 platforms
  const auto plats = grid_candidates(atomic_spec);
  const auto loads = workload_candidates();
  ASSERT_EQ(plats.size() * loads.size(), 200u);
  const Time budget = 200_ms;
  const auto seq = ex.sweep_parallel(plats, loads, budget, 1);
  const auto par = ex.sweep_parallel(plats, loads, budget, 4);
  ASSERT_EQ(seq.size(), 200u);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    expect_sim_columns_equal(par[i], seq[i]);
  }
}

// Time-scale law: the model has no hidden time constant, so doubling
// every clock of a platform doubles every simulated time column exactly
// and moves neither a transaction nor a byte. Checked on every non-fast
// default-grid point x every canonical workload except "banked", whose
// memory timing is the workload's own (BankedMemoryConfig), not the
// platform's.
TEST(Explorer, DoublingEveryClockDoublesEveryTimeColumn) {
  GridSpec spec;
  spec.knobs.fast_targets = {false};
  const auto plats = grid_candidates(spec);
  auto loads = workload_candidates();
  std::erase_if(loads, [](const WorkloadCase& w) { return w.name == "banked"; });
  ASSERT_EQ(plats.size() * loads.size(), 272u);
  std::vector<Platform> slow = plats;
  for (Platform& p : slow) {
    p.bus_cycle = p.bus_cycle * 2;
    p.pe_clock = p.pe_clock * 2;
    p.cpu_clock = p.cpu_clock * 2;
    p.poll_interval = p.poll_interval * 2;
  }
  Explorer ex;
  const auto base = ex.sweep_parallel(plats, loads, 200_ms, 4);
  const auto twice = ex.sweep_parallel(slow, loads, 400_ms, 4);
  ASSERT_EQ(twice.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const ExplorationRow& a = base[i];
    const ExplorationRow& b = twice[i];
    const std::string cell = a.platform + "/" + a.workload;
    ASSERT_TRUE(a.completed && b.completed) << cell;
    EXPECT_EQ(b.sim_time_us, 2 * a.sim_time_us) << cell;
    EXPECT_EQ(b.mean_latency_ns, 2 * a.mean_latency_ns) << cell;
    EXPECT_EQ(b.p99_latency_ns, 2 * a.p99_latency_ns) << cell;
    EXPECT_EQ(b.transactions, a.transactions) << cell;
    EXPECT_EQ(b.bytes, a.bytes) << cell;
  }
}

namespace {

// Traffic signature of one grid cell: logical SHIP traffic plus the bus
// write traffic. Bus *reads* are excluded on purpose — the SHIP master
// wrapper polls RSTATUS on a timer, so the read count is a function of
// timing and legitimately differs between an atomic platform and its
// split counterpart. Writes (data bursts, commits, acks) and the SHIP
// rows are the conserved quantities.
struct TrafficSignature {
  std::uint64_t ship_count = 0, ship_bytes = 0;
  std::uint64_t write_count = 0, write_bytes = 0;
  bool completed = false;
};

TrafficSignature run_cell(const core::Platform& p,
                          const workload::WorkloadCase& w) {
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  w.factory(graph, owned);
  graph.discover_roles();
  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, p, core::AbstractionLevel::Cam);
  TrafficSignature sig;
  sig.completed = ms->run_until_done(200_ms);
  for (const auto& r : ms->txn_log().records()) {
    switch (r.kind) {
      case trace::TxnKind::Send:
      case trace::TxnKind::Request:
      case trace::TxnKind::Reply:
        ++sig.ship_count;
        sig.ship_bytes += r.bytes;
        break;
      case trace::TxnKind::Write:
        ++sig.write_count;
        sig.write_bytes += r.bytes;
        break;
      case trace::TxnKind::Read:
        break;  // includes timer-driven RSTATUS polls: not conserved
    }
  }
  return sig;
}

}  // namespace

// Grid-wide conservation property: on every platform of the default
// 68-platform grid x every canonical workload, the split/OoO points
// move exactly the traffic their atomic counterpart moves — split mode
// may reorder and pipeline, but it must not create, lose, or resize
// messages or bus writes. (The depth-1 bit-identity to seed *timing* is
// pinned separately by
// CamSplit.MaxOutstandingOneIsBitIdenticalToSeedTiming.)
TEST(Explorer, GridConservesTrafficAcrossSplitModeAndWorkloads) {
  const auto plats = grid_candidates();  // includes -split4 and -fast points
  const auto loads = workload_candidates();
  ASSERT_EQ(plats.size(), 108u);
  ASSERT_EQ(loads.size(), 5u);

  // "-splitN" / "-fast" strips to the plain atomic counterpart's name.
  auto base_name = [](const std::string& name) {
    for (const char* suffix : {"-split", "-fast"}) {
      const auto pos = name.rfind(suffix);
      if (pos != std::string::npos) return name.substr(0, pos);
    }
    return name;
  };

  std::map<std::pair<std::string, std::string>, TrafficSignature> atomic;
  for (const auto& p : plats) {
    if (p.split_txns || p.fast_targets) continue;
    for (const auto& w : loads) {
      TrafficSignature sig = run_cell(p, w);
      EXPECT_TRUE(sig.completed) << p.name << "/" << w.name;
      EXPECT_GT(sig.ship_count + sig.write_count, 0u)
          << p.name << "/" << w.name;
      atomic[{p.name, w.name}] = sig;
    }
  }
  std::size_t split_points = 0;
  std::size_t fast_points = 0;
  for (const auto& p : plats) {
    if (!p.split_txns && !p.fast_targets) continue;
    ++(p.split_txns ? split_points : fast_points);
    for (const auto& w : loads) {
      const TrafficSignature sig = run_cell(p, w);
      EXPECT_TRUE(sig.completed) << p.name << "/" << w.name;
      const auto it = atomic.find({base_name(p.name), w.name});
      ASSERT_NE(it, atomic.end()) << p.name;
      const TrafficSignature& a = it->second;
      EXPECT_EQ(sig.ship_count, a.ship_count) << p.name << "/" << w.name;
      EXPECT_EQ(sig.ship_bytes, a.ship_bytes) << p.name << "/" << w.name;
      EXPECT_EQ(sig.write_count, a.write_count) << p.name << "/" << w.name;
      EXPECT_EQ(sig.write_bytes, a.write_bytes) << p.name << "/" << w.name;
    }
  }
  EXPECT_EQ(split_points, 28u);  // 68 timing points - 40 atomic points
  EXPECT_EQ(fast_points, 40u);   // one -fast variant per atomic point
}

TEST(Explorer, PrintTableShowsWorkloadColumnOnlyWhenPresent) {
  Explorer ex;
  const auto plain =
      ex.sweep_parallel({Platform{}}, {two_streams(4, 32)}, 10_ms, 1);
  std::ostringstream os_plain;
  Explorer::print_table(os_plain, plain);
  EXPECT_EQ(os_plain.str().find("workload"), std::string::npos);

  const auto rows =
      ex.sweep_parallel({Platform{}}, workload_candidates(), 200_ms, 1);
  std::ostringstream os;
  Explorer::print_table(os, rows);
  EXPECT_NE(os.str().find("workload"), std::string::npos);
  EXPECT_NE(os.str().find("bursty"), std::string::npos);
  EXPECT_NE(os.str().find("pipeline"), std::string::npos);
}

TEST(Explorer, OneThreadSweepRunsCellsOnTheCallerInQueueOrder) {
  // Each factory call records which cell it builds; with one thread the
  // caller must build them in queue order: one graph per workload to
  // find the shape groups, then one task per representative and shape
  // group, which runs the representative's cells and then, per arbiter
  // sibling, the cells its representative made a contended pick in.
  // "a" and "b" have one shape, so each platform's simulated cells share
  // one mapped system.
  std::vector<std::string> built;
  const std::thread::id caller = std::this_thread::get_id();
  auto recording = [&](std::string name, WorkloadCase inner) {
    return WorkloadCase{name, [&built, caller, name, inner](
                                  SystemGraph& g, auto& owned) {
                          EXPECT_EQ(std::this_thread::get_id(), caller);
                          built.push_back(name);
                          inner.factory(g, owned);
                        }};
  };
  Explorer ex;
  const auto cands = default_candidates();
  const std::vector<WorkloadCase> loads{recording("a", two_streams(4, 64)),
                                        recording("b", two_streams(2, 32))};
  const auto rows = ex.sweep_parallel(cands, loads, 50_ms, 1);
  ASSERT_EQ(rows.size(), cands.size() * loads.size());
  // plb-round-robin and plb-tdma are plb-priority's arbiter siblings and
  // follow it in the candidate list, so the simulated cells run in row
  // order: a sibling's cell is simulated when plb-priority's cell of its
  // workload made a contended pick, and copied otherwise.
  ASSERT_EQ(cands[1].name, "plb-priority");
  auto sibling = [](const std::string& name) {
    return name == "plb-round-robin" || name == "plb-tdma";
  };
  std::vector<std::string> expected{"a", "b"};
  std::size_t contended = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].completed) << rows[i].platform;
    const ExplorationRow& rep = rows[loads.size() + i % loads.size()];
    if (sibling(rows[i].platform) && rep.contended_picks == 0) continue;
    expected.push_back(rows[i].workload);
    if (sibling(rows[i].platform)) ++contended;
  }
  ASSERT_GT(contended, 0u) << "no sibling cell is simulated";
  EXPECT_EQ(built, expected);
  EXPECT_EQ(built.size() + ex.last_shared_cells(), rows.size() + loads.size());
  // One mapped system per simulated platform.
  EXPECT_EQ(ex.last_mapped_cells(), 6u);
}

TEST(Explorer, ParallelSweepPropagatesWorkerExceptions) {
  Explorer ex;
  // A mailbox window below one OCP word fails wrapper elaboration inside
  // the worker thread; the error must resurface on the calling thread.
  auto cands = default_candidates();
  Platform bad;
  bad.name = "bad-mailbox";
  bad.mailbox_window = 1;
  cands.insert(cands.begin() + 2, bad);
  EXPECT_THROW(ex.sweep_parallel(cands, {two_streams(4, 64)}, 50_ms, 4),
               SimulationError);
}

TEST(Explorer, ParallelSweepPropagatesFactoryExceptions) {
  Explorer ex;
  const WorkloadCase boom{
      "", [](SystemGraph&, std::vector<std::unique_ptr<ProcessingElement>>&) {
        throw std::runtime_error("factory boom");
      }};
  EXPECT_THROW(ex.sweep_parallel(default_candidates(), {boom}, 10_ms, 4),
               std::runtime_error);
}

// A workload that deadlocks by construction — each sink waits for more
// messages than its producer sends — stops where its activity runs out,
// long before the horizon: run_until_done reports an unfinished
// workload on an idle simulator, and the row reads neither completed
// nor pruned, with its simulated time below the horizon. Checked with
// hardware sinks and with a software sink behind the HW/SW driver.
TEST(Explorer, DeadlockedCellStopsAtItsDeadlock) {
  for (const bool sw_sink : {false, true}) {
    const WorkloadCase starved = stlm::test::starved_sink(sw_sink);
    SCOPED_TRACE(starved.name);
    const Time horizon = 10_ms;
    std::vector<std::unique_ptr<ProcessingElement>> owned;
    SystemGraph graph;
    starved.factory(graph, owned);
    graph.discover_roles();
    Simulator sim;
    auto ms = Mapper::map(sim, graph, Platform{}, AbstractionLevel::Cam);
    EXPECT_FALSE(ms->run_until_done(horizon));
    EXPECT_TRUE(sim.idle());
    EXPECT_GT(sim.now(), Time::zero());
    EXPECT_LT(sim.now(), horizon);

    Explorer ex;
    const ExplorationRow row = ex.evaluate(Platform{}, starved, horizon);
    EXPECT_FALSE(row.completed);
    EXPECT_FALSE(row.pruned);
    EXPECT_EQ(row.sim_time_us, sim.now().to_seconds() * 1e6);
    EXPECT_LT(row.sim_time_us, horizon.to_seconds() * 1e6);
    EXPECT_GT(row.transactions, 0u);
  }
}

// A horizon too short to finish leaves PE threads parked inside bus
// transactions. Tearing such a cell down must unwind them before the
// MappedSystem frees the wrappers their frames point into (sanitized
// builds unwind parked stacks; see Simulator::kill_process).
TEST(Explorer, HorizonCutCellsTearDownCleanly) {
  // One atomic, one -split4 and one crossbar grid point.
  std::vector<Platform> plats;
  for (const auto& p : grid_candidates()) {
    if (p.name == "shared-bus-priority-10ns-32b" ||
        p.name == "shared-bus-priority-10ns-32b-split4" ||
        p.name == "crossbar-10ns-32b") {
      plats.push_back(p);
    }
  }
  ASSERT_EQ(plats.size(), 3u);
  // The canonical workloads plus a HW/SW variant whose sinks are RTOS
  // tasks behind the software driver.
  auto loads = workload_candidates();
  std::size_t sw_tasks = 0;
  WorkloadCase sw = loads.front();
  sw.name += "-sw-sinks";
  sw.factory = [inner = sw.factory, &sw_tasks](
                   SystemGraph& g,
                   std::vector<std::unique_ptr<ProcessingElement>>& o) {
    inner(g, o);
    for (ProcessingElement* pe : g.pes()) {
      if (pe->name().ends_with(".sink")) {
        g.set_partition(*pe, Partition::Software);
        ++sw_tasks;
      }
    }
  };
  loads.push_back(sw);
  const Time horizon = 2_us;
  Explorer ex;
  for (const auto& p : plats) {
    for (const auto& w : loads) {
      const auto row = ex.evaluate(p, w, horizon);
      EXPECT_FALSE(row.completed) << p.name << "/" << w.name;
      EXPECT_FALSE(row.pruned) << p.name << "/" << w.name;
      EXPECT_DOUBLE_EQ(row.sim_time_us, 2.0) << p.name << "/" << w.name;
    }
  }
  EXPECT_GT(sw_tasks, 0u);
}

TEST(Explorer, PrintTableSeparatorMatchesHeaderWidth) {
  // The rule line is computed from the rendered header, so it cannot
  // drift as columns are appended (it was a hard-coded 218 for a while).
  auto check = [](const std::vector<ExplorationRow>& rows) {
    std::ostringstream os;
    Explorer::print_table(os, rows);
    std::istringstream in(os.str());
    std::string header, rule;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, rule));
    EXPECT_EQ(rule, std::string(header.size(), '-'));
  };
  ExplorationRow plain;
  plain.platform = "a-platform-name-much-longer-than-the-minimum-column";
  check({plain});
  ExplorationRow with_wl = plain;
  with_wl.workload = "bursty";
  check({with_wl});
}

TEST(Explorer, GoodputCountsLateButDeliveredTimeoutPayloads) {
  // Spike-only faults + a tight watchdog: some transactions finish with
  // Status::Timeout — late, but the payload arrived (data_valid()).
  // Goodput must count those bytes; with no injected errors, statuses
  // are Ok or Timeout only, so goodput equals raw throughput exactly.
  // (The old Ok-only goodput was strictly lower whenever timeouts > 0.)
  Explorer ex;
  Platform p;
  p.fault.name = "spiky";
  p.fault.seed = 7;
  p.fault.spike_rate = 0.3;
  p.fault.spike_cycles = 40;
  p.retry.name = "wd";
  p.retry.timeout = 300_ns;  // tight enough that spiked bursts miss it
  p.name = "plb-priority-10ns-64b-spiky-wd";
  const auto row = ex.evaluate(p, two_streams(20, 256), 50_ms);
  ASSERT_TRUE(row.completed);
  ASSERT_GT(row.timeouts, 0u);
  EXPECT_GT(row.error_rate, 0.0);  // timeouts still count as not-Ok
  EXPECT_EQ(row.aborted, 0u);
  EXPECT_GT(row.goodput_mbps, 0.0);
  EXPECT_DOUBLE_EQ(row.goodput_mbps,
                   static_cast<double>(row.bytes) / row.sim_time_us);
}

namespace {

// Sweeps `plats` x `loads` at 1 and 4 threads and holds every row, copied
// or simulated, to its own cell's evaluate() in every simulated column. A
// copied row must name a simulated row of the same workload. Returns the
// shared-cell count, which must not depend on the thread count.
std::size_t expect_shared_rows_equal_evaluated(
    const std::vector<Platform>& plats,
    const std::vector<WorkloadCase>& loads) {
  const Time horizon = 200_ms;
  Explorer ex;
  std::vector<ExplorationRow> evaluated;
  for (const auto& p : plats) {
    for (const auto& w : loads) evaluated.push_back(ex.evaluate(p, w, horizon));
  }
  std::size_t shared = 0;
  for (unsigned threads : {1u, 4u}) {
    const auto rows = ex.sweep_parallel(plats, loads, horizon, threads);
    if (rows.size() != evaluated.size()) {
      ADD_FAILURE() << "sweep returned " << rows.size() << " rows";
      return 0;
    }
    std::map<std::pair<std::string, std::string>, const ExplorationRow*> cell;
    for (const auto& r : rows) cell[{r.platform, r.workload}] = &r;
    std::size_t n = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ExplorationRow& r = rows[i];
      expect_sim_columns_equal(r, evaluated[i]);
      if (r.shared_from.empty()) continue;
      ++n;
      EXPECT_EQ(r.wall_ms, 0.0) << r.platform << "/" << r.workload;
      EXPECT_EQ(r.contended_picks, 0u) << r.platform << "/" << r.workload;
      const auto rep = cell.find({r.shared_from, r.workload});
      EXPECT_TRUE(rep != cell.end() && rep->second->shared_from.empty())
          << r.platform << " copies " << r.shared_from;
    }
    EXPECT_EQ(n, ex.last_shared_cells()) << threads << " threads";
    if (threads == 1) {
      shared = n;
    } else {
      EXPECT_EQ(n, shared) << threads << " threads";
    }
  }
  return shared;
}

}  // namespace

// A certified representative's row is exact for its arbiter siblings:
// every copied row equals the row its own evaluate() produces, on the
// default grid, a five-arbiter space with non-default policy
// parameters, a faulted + retry space and a HW/SW workload.
TEST(Explorer, SharedRowsEqualEvaluatedCells) {
  const auto grid = grid_candidates();
  EXPECT_EQ(expect_shared_rows_equal_evaluated(grid, workload_candidates()),
            42u);
  EXPECT_GT(expect_shared_rows_equal_evaluated(grid, workload_candidates(1)),
            0u);

  GridSpec five;
  five.knobs.arbs = {ArbKind::Priority, ArbKind::RoundRobin, ArbKind::Tdma,
                     ArbKind::PriorityAging, ArbKind::Bandwidth};
  five.knobs.bus_cycles = {10_ns};
  five.knobs.data_widths = {4};
  auto qos = grid_candidates(five);
  for (auto& p : qos) {
    p.tdma_slot_cycles = 4;
    p.aging_cycles = 8;
    p.qos_shares = {3, 1, 2};
  }
  EXPECT_GT(expect_shared_rows_equal_evaluated(qos, workload_candidates()),
            0u);

  GridSpec faulted;
  faulted.knobs.buses = {BusKind::SharedBus, BusKind::Plb};
  faulted.knobs.bus_cycles = {10_ns};
  faulted.knobs.data_widths = {4};
  faulted.faults = {{"flaky", 0xfa, 0.05, 0.03, 4, 0.02, 2}};
  faulted.retries = {{"r6", 6, 2, Time::zero()}};
  EXPECT_GT(expect_shared_rows_equal_evaluated(grid_candidates(faulted),
                                               workload_candidates()),
            0u);

  std::atomic<std::size_t> sw_tasks{0};
  WorkloadCase sw = workload_candidates().front();
  sw.name += "-sw-sinks";
  sw.factory = [inner = sw.factory, &sw_tasks](
                   SystemGraph& g,
                   std::vector<std::unique_ptr<ProcessingElement>>& o) {
    inner(g, o);
    for (ProcessingElement* pe : g.pes()) {
      if (pe->name().ends_with(".sink")) {
        g.set_partition(*pe, Partition::Software);
        ++sw_tasks;
      }
    }
  };
  EXPECT_GT(expect_shared_rows_equal_evaluated(grid, {sw}), 0u);
  EXPECT_GT(sw_tasks.load(), 0u);
}

// A copied row skips its sibling's elaboration, yet a sibling whose
// arbiter cannot be built (a zero TDMA slot) must still fail the sweep,
// as its own evaluate() does.
TEST(Explorer, SweepRejectsASiblingWhoseArbiterCannotBeBuilt) {
  const WorkloadCase one_stream{
      "", [](SystemGraph& g,
             std::vector<std::unique_ptr<ProcessingElement>>& o) {
        auto p = std::make_unique<workload::ProducerPe>("p", 4, 64, 20);
        auto s = std::make_unique<workload::SinkPe>("s", 4);
        g.add_pe(*p);
        g.add_pe(*s);
        g.connect("ch", *p, "out", *s, "in", 2);
        o.push_back(std::move(p));
        o.push_back(std::move(s));
      }};
  Platform rep;  // plb-priority
  Platform tdma = rep;
  tdma.name = "plb-tdma";
  tdma.arb = ArbKind::Tdma;
  Explorer ex;
  // One bus master never contends, so the TDMA row is a copy.
  const auto rows = ex.sweep_parallel({rep, tdma}, {one_stream}, 10_ms, 1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].shared_from, rep.name);

  tdma.tdma_slot_cycles = 0;
  EXPECT_THROW(ex.evaluate(tdma, one_stream, 10_ms), SimulationError);
  EXPECT_THROW(ex.sweep_parallel({rep, tdma}, {one_stream}, 10_ms, 1),
               SimulationError);
}

namespace {

// The canonical workloads at each of `seeds`, named "<case>#<seed>": one
// shape group per canonical workload, so the sweep maps each of its
// cells once per platform and resets the system for every further seed.
std::vector<WorkloadCase> seed_groups(std::initializer_list<std::uint64_t> seeds) {
  std::vector<WorkloadCase> loads;
  for (std::uint64_t seed : seeds) {
    for (WorkloadCase c : workload_candidates(seed)) {
      c.name += "#" + std::to_string(seed);
      loads.push_back(std::move(c));
    }
  }
  return loads;
}

// `loads`'s cases with every sink PE moved into the software partition.
std::vector<WorkloadCase> with_sw_sinks(std::vector<WorkloadCase> loads) {
  for (WorkloadCase& c : loads) {
    c.name += "-sw-sinks";
    c.factory = [inner = c.factory](
                    SystemGraph& g,
                    std::vector<std::unique_ptr<ProcessingElement>>& o) {
      inner(g, o);
      for (ProcessingElement* pe : g.pes()) {
        if (pe->name().ends_with(".sink") || pe->name() == "sink") {
          g.set_partition(*pe, Partition::Software);
        }
      }
    };
  }
  return loads;
}

// Sweeps `plats` x `loads` at 1 and 4 threads and holds every row to a
// fresh evaluate() of its cell in every simulated column. Every shape
// group holds `seeds` cases, so each platform maps at most one cell per
// group, and fewer cells are mapped than simulated.
void expect_reset_rows_equal_fresh(const std::vector<Platform>& plats,
                                   const std::vector<WorkloadCase>& loads,
                                   std::size_t seeds, Time horizon) {
  Explorer ex;
  std::vector<ExplorationRow> fresh;
  for (const auto& p : plats) {
    for (const auto& w : loads) fresh.push_back(ex.evaluate(p, w, horizon));
  }
  std::size_t mapped = 0;
  for (unsigned threads : {1u, 4u}) {
    const auto rows = ex.sweep_parallel(plats, loads, horizon, threads);
    ASSERT_EQ(rows.size(), fresh.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      expect_sim_columns_equal(rows[i], fresh[i]);
    }
    const std::size_t simulated = rows.size() - ex.last_shared_cells();
    EXPECT_GT(ex.last_mapped_cells(), 0u);
    EXPECT_LE(ex.last_mapped_cells(), plats.size() * loads.size() / seeds);
    EXPECT_LT(ex.last_mapped_cells(), simulated) << threads << " threads";
    if (threads == 1) {
      mapped = ex.last_mapped_cells();
    } else {
      EXPECT_EQ(ex.last_mapped_cells(), mapped) << threads << " threads";
    }
  }
}

}  // namespace

// Elaborate once, run many: a cell run on a system reset and rebound to
// its graph (MappedSystem::reset, by way of the sweep's shape groups)
// gives the row a fresh map() gives, on the default grid at three seeds
// run to completion and cut off mid-flight (PEs parked in bus
// transactions, messages waiting in mailboxes), on a faulted grid with
// retries, and with software sinks behind the HW/SW driver.
TEST(Explorer, ResetRowsEqualFreshCells) {
  const auto grid = grid_candidates();
  const auto seeded = seed_groups({0x5eed, 1, 20261016});
  expect_reset_rows_equal_fresh(grid, seeded, 3, 200_ms);
  for (const Time cut : {2_us, 5_us}) {
    SCOPED_TRACE("horizon " + cut.to_string());
    expect_reset_rows_equal_fresh(grid, seeded, 3, cut);
  }

  GridSpec faulted;
  faulted.faults = {{"flaky", 0xfa, 0.05, 0.03, 4, 0.02, 2}};
  faulted.retries = {{"r6", 6, 2, Time::zero()}};
  const auto faulted_grid = grid_candidates(faulted);
  ASSERT_EQ(faulted_grid.size(), grid.size());
  expect_reset_rows_equal_fresh(faulted_grid, seed_groups({0x5eed, 1}), 2,
                                200_ms);

  std::vector<Platform> sw_plats;
  for (const auto& p : grid) {
    if (p.name == "shared-bus-round-robin-10ns-32b" ||
        p.name == "plb-priority-20ns-64b-split4" ||
        p.name == "opb-tdma-10ns-32b-fast" || p.name == "crossbar-10ns-64b") {
      sw_plats.push_back(p);
    }
  }
  ASSERT_EQ(sw_plats.size(), 4u);
  const auto sw = with_sw_sinks(seed_groups({0x5eed, 1, 20261016}));
  expect_reset_rows_equal_fresh(sw_plats, sw, 3, 200_ms);
  expect_reset_rows_equal_fresh(sw_plats, sw, 3, 20_us);
}

// The 10-seed default grid (perfbench's grid-sweep shape): 108 platforms
// x 5 canonical workloads at 10 seeds map at most 540 systems, and rows,
// shared cells and mapped cells do not depend on the thread count.
TEST(Explorer, TenSeedGridMapsEachPlatformWorkloadPairAtMostOnce) {
  std::vector<WorkloadCase> loads;
  for (std::uint64_t k = 0; k < 10; ++k) {
    for (WorkloadCase c :
         workload_candidates(workload::SplitMix64::derive(1, k))) {
      c.name += "#" + std::to_string(k);
      loads.push_back(std::move(c));
    }
  }
  const auto grid = grid_candidates();
  Explorer ex;
  const auto one = ex.sweep_parallel(grid, loads, 200_ms, 1);
  const std::size_t shared = ex.last_shared_cells();
  const std::size_t mapped = ex.last_mapped_cells();
  EXPECT_LE(mapped, 540u);
  EXPECT_GT(mapped, 0u);
  const auto four = ex.sweep_parallel(grid, loads, 200_ms, 4);
  ASSERT_EQ(four.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_sim_columns_equal(four[i], one[i]);
    EXPECT_EQ(four[i].shared_from, one[i].shared_from);
  }
  EXPECT_EQ(ex.last_shared_cells(), shared);
  EXPECT_EQ(ex.last_mapped_cells(), mapped);
}

namespace {

// Sweeps `plats` x `loads` at 1 and 4 threads with the trace target on
// row `target` (written to `path`) and holds the sweep to the untraced
// one: the traced cell is simulated, on a system mapped afresh (one map
// more than the untraced sweep when `one_more_map`, at most one more
// otherwise), and every row's simulated columns and provenance equal
// the untraced sweep's. The cells after the traced one in its shape group and task
// run on the reset traced system; `after` lists those rows, and each
// must equal a fresh evaluate() of its cell. The trace file is left for
// a ctest entry that validates it with tools/check_trace.py.
void expect_traced_sweep_equals_untraced(
    const std::vector<Platform>& plats,
    const std::vector<WorkloadCase>& loads, std::size_t target,
    const std::vector<std::size_t>& after, bool one_more_map,
    const std::string& path) {
  const Time horizon = 200_ms;
  const std::size_t nw = loads.size();
  Explorer ex;
  const auto plain = ex.sweep_parallel(plats, loads, horizon, 4);
  const std::size_t shared = ex.last_shared_cells();
  const std::size_t mapped = ex.last_mapped_cells();
  const bool was_copied = !plain[target].shared_from.empty();

  std::remove(path.c_str());
  ex.set_trace_target(
      {plats[target / nw].name, loads[target % nw].name, path});
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto rows = ex.sweep_parallel(plats, loads, horizon, threads);
    ASSERT_EQ(rows.size(), plain.size());
    EXPECT_TRUE(rows[target].shared_from.empty());
    EXPECT_GT(rows[target].wall_ms, 0.0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      expect_sim_columns_equal(rows[i], plain[i]);
      if (i != target) {
        EXPECT_EQ(rows[i].shared_from, plain[i].shared_from)
            << rows[i].platform << "/" << rows[i].workload;
      }
    }
    EXPECT_EQ(ex.last_shared_cells(), shared - (was_copied ? 1 : 0));
    if (one_more_map) {
      EXPECT_EQ(ex.last_mapped_cells(), mapped + 1);
    } else {
      EXPECT_GE(ex.last_mapped_cells(), mapped);
      EXPECT_LE(ex.last_mapped_cells(), mapped + 1);
    }
    for (std::size_t i : after) {
      EXPECT_TRUE(rows[i].shared_from.empty());
      Explorer fresh;
      expect_sim_columns_equal(
          rows[i], fresh.evaluate(plats[i / nw], loads[i % nw], horizon));
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace target file missing";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"ph\":\"B\""), std::string::npos);
}

// The rows after row `i` in its shape group of `loads` ("<case>#<seed>"
// names) on the same platform that the sweep `rows` simulated.
std::vector<std::size_t> simulated_after(
    const std::vector<ExplorationRow>& rows,
    const std::vector<WorkloadCase>& loads, std::size_t i) {
  const std::size_t nw = loads.size();
  auto group = [&](std::size_t w) {
    return loads[w].name.substr(0, loads[w].name.find('#'));
  };
  std::vector<std::size_t> after;
  for (std::size_t w = i % nw + 1; w < nw; ++w) {
    const std::size_t j = i - i % nw + w;
    if (group(w) == group(i % nw) && rows[j].shared_from.empty()) {
      after.push_back(j);
    }
  }
  return after;
}

}  // namespace

// The trace target in the middle of a representative's shape group is
// mapped afresh inside its task with the trace attached; the group's
// next cell runs on that system, reset, with no trace.
TEST(Explorer, TraceTargetInTheMiddleOfAShapeGroupIsMappedFresh) {
  const auto plats = grid_candidates();
  const auto loads = seed_groups({0x5eed, 1, 20261016});
  const std::size_t nw = loads.size();
  // Row `target` is uniform#1 on the first platform, a representative;
  // uniform#20261016 follows it in its group.
  const std::size_t target = nw / 3;
  ASSERT_EQ(loads[target].name, "uniform#1");
  ASSERT_EQ(loads[2 * nw / 3].name, "uniform#20261016");
  expect_traced_sweep_equals_untraced(plats, loads, target, {2 * nw / 3},
                                      true, "explore_task_trace.json");
}

// The trace target is always simulated, even when it is a certified
// sibling whose row the sweep would otherwise copy, so its trace file is
// written. The sibling's own runner maps it afresh (which is no extra
// map when the sibling would otherwise have mapped a later cell); a
// later cell of its group that the sibling must simulate runs on that
// system, reset.
TEST(Explorer, TraceTargetOnACertifiedSiblingIsSimulated) {
  const auto plats = grid_candidates();
  const auto loads = seed_groups({0x5eed, 1, 20261016});
  Explorer ex;
  const auto plain = ex.sweep_parallel(plats, loads, 200_ms, 4);
  // A copied row, preferably one with a simulated cell after it in its
  // group.
  std::size_t target = plain.size();
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (plain[i].shared_from.empty()) continue;
    if (target == plain.size()) target = i;
    if (!simulated_after(plain, loads, i).empty()) {
      target = i;
      break;
    }
  }
  ASSERT_LT(target, plain.size()) << "no copied row";
  expect_traced_sweep_equals_untraced(plats, loads, target,
                                      simulated_after(plain, loads, target),
                                      false, "explore_sibling_trace.json");
}
