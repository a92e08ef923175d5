// Tests for adaptive exploration: the Pareto/successive-halving search
// driver, the FIFO work pool underneath it, the knob-space neighbor
// enumeration it mutates with, and the pruning of dominated survivors
// at a shorter horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "explore/explore.hpp"
#include "explore_fixtures.hpp"
#include "kernel/kernel.hpp"
#include "workload/rng.hpp"

using namespace stlm;
using namespace stlm::core;
using namespace stlm::expl;
using stlm::test::expect_row_invariants;
using stlm::test::expect_sim_columns_equal;
using stlm::test::starved_sink;
using stlm::test::two_streams;
using namespace stlm::time_literals;

// ------------------------------------------------ knob space / naming ----

TEST(KnobSpace, GridPointNameReproducesGridCandidateNames) {
  for (const auto& p : grid_candidates()) {
    EXPECT_EQ(p.name, grid_point_name(p));
  }
  // A cycle that is not a whole number of nanoseconds is spelled
  // exactly: 2 ns and 2.5 ns platforms must not share a name (the
  // search dedups cells by name).
  GridSpec sub_ns;
  sub_ns.knobs.bus_cycles = {2_ns, Time::ps(2500)};
  const auto cands = grid_candidates(sub_ns);
  std::set<std::string> names;
  for (const auto& p : cands) {
    EXPECT_EQ(p.name, grid_point_name(p));
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate name " << p.name;
  }
  EXPECT_TRUE(names.count("plb-priority-2ns-32b"));
  EXPECT_TRUE(names.count("plb-priority-2500ps-32b"));
  Platform sub_ps = cands.front();
  sub_ps.bus_cycle = Time::fs(2500);
  EXPECT_NE(grid_point_name(sub_ps).find("-2500fs-"), std::string::npos);
}

TEST(KnobSpace, GridPointNameCoversFailureAxes) {
  GridSpec spec;
  fault::FaultProfile fp;
  fp.name = "noisy";
  fp.error_rate = 0.01;
  fault::RetrySpec rs;
  rs.name = "r3";
  rs.max_retries = 3;
  spec.faults = {fp};
  spec.retries = {rs};
  for (const auto& p : grid_candidates(spec)) {
    EXPECT_EQ(p.name, grid_point_name(p));
    EXPECT_NE(p.name.find("-noisy-r3"), std::string::npos) << p.name;
  }
}

TEST(KnobSpace, NeighborsStepOneKnobInAxisOrder) {
  GridSpec spec;
  Platform p;  // plb-priority @10ns, width 0 -> native 8B... pin explicitly:
  p.bus = BusKind::Plb;
  p.arb = ArbKind::Priority;
  p.bus_cycle = 10_ns;
  p.data_width_bytes = 4;
  p.name = grid_point_name(p);
  ASSERT_EQ(p.name, "plb-priority-10ns-32b");
  const auto nb = grid_neighbors(p, spec.knobs);
  std::vector<std::string> names;
  names.reserve(nb.size());
  for (const auto& n : nb) names.push_back(n.name);
  const std::vector<std::string> expected{
      "shared-bus-priority-10ns-32b",  // bus axis, -1
      "opb-priority-10ns-32b",         // bus axis, +1
      "plb-round-robin-10ns-32b",      // arb axis, +1
      "plb-priority-20ns-32b",         // cycle axis, +1
      "plb-priority-10ns-64b",         // width axis, +1
      "plb-priority-10ns-32b-split4",  // outstanding axis, +1
      "plb-priority-10ns-32b-fast",    // fast axis, +1
  };
  EXPECT_EQ(names, expected);
}

TEST(KnobSpace, NeighborsRespectValidityRules) {
  GridSpec spec;
  Platform opb;
  opb.bus = BusKind::Opb;
  opb.arb = ArbKind::Priority;
  opb.bus_cycle = 10_ns;
  opb.data_width_bytes = 4;
  opb.name = grid_point_name(opb);
  for (const auto& n : grid_neighbors(opb, spec.knobs)) {
    // No OPB split point may ever be proposed.
    EXPECT_TRUE(knob_point_valid(
        n.bus, n.split_active() ? n.max_outstanding : 1, n.fast_targets))
        << n.name;
    EXPECT_EQ(n.name.find("opb") != std::string::npos &&
                  n.name.find("split") != std::string::npos,
              false)
        << n.name;
  }
  // A fast platform must not propose a fast split neighbor.
  Platform fast;
  fast.bus = BusKind::Plb;
  fast.arb = ArbKind::Priority;
  fast.bus_cycle = 10_ns;
  fast.data_width_bytes = 4;
  fast.fast_targets = true;
  fast.name = grid_point_name(fast);
  for (const auto& n : grid_neighbors(fast, spec.knobs)) {
    EXPECT_FALSE(n.fast_targets && n.split_active()) << n.name;
  }
}

namespace {

// The knob fields of a platform: two points with the same grid name must
// agree on all of them.
auto knob_fields(const Platform& p) {
  return std::tuple(p.bus, p.arb, p.bus_cycle, p.bus_width_bytes(),
                    p.split_txns, p.max_outstanding, p.fast_targets);
}

}  // namespace

TEST(KnobSpace, NeighborsOfGridPointsStayInsideTheGrid) {
  // With the mutation space set to the grid's own axes, every neighbor
  // of every grid candidate must *be* a grid candidate: the grid's exact
  // name and the same knob fields — the dedup-by-name invariant mutation
  // relies on. The second spec's arbiter axis does not start at the
  // Platform default, so a crossbar's pinned `arb` is checked too.
  GridSpec rr_tdma;
  rr_tdma.knobs.arbs = {ArbKind::RoundRobin, ArbKind::Tdma};
  for (const GridSpec& spec : {GridSpec{}, rr_tdma}) {
    const auto grid = grid_candidates(spec);
    std::map<std::string, const Platform*> by_name;
    for (const auto& p : grid) by_name.emplace(p.name, &p);
    for (const auto& p : grid) {
      std::set<std::string> local;
      for (const auto& n : grid_neighbors(p, spec.knobs)) {
        const auto it = by_name.find(n.name);
        ASSERT_NE(it, by_name.end()) << n.name << " (from " << p.name << ")";
        EXPECT_EQ(knob_fields(n), knob_fields(*it->second))
            << n.name << " (from " << p.name << ")";
        EXPECT_NE(n.name, p.name);
        EXPECT_TRUE(local.insert(n.name).second)
            << "duplicate neighbor " << n.name;
      }
    }
  }
}

TEST(KnobSpace, CostProxyOrdersStructuralComplexity) {
  Platform narrow;
  narrow.bus = BusKind::SharedBus;
  narrow.bus_cycle = 20_ns;
  narrow.data_width_bytes = 4;
  Platform wide = narrow;
  wide.data_width_bytes = 8;
  Platform faster = narrow;
  faster.bus_cycle = 10_ns;
  Platform xbar = narrow;
  xbar.bus = BusKind::Crossbar;
  Platform split = narrow;
  split.split_txns = true;
  split.max_outstanding = 4;
  EXPECT_GT(wide.cost_proxy(), narrow.cost_proxy());
  EXPECT_GT(faster.cost_proxy(), narrow.cost_proxy());
  EXPECT_GT(xbar.cost_proxy(), narrow.cost_proxy());
  EXPECT_GT(split.cost_proxy(), narrow.cost_proxy());
  // The fast-path knob models simulation speed, not hardware: no cost.
  Platform fast = narrow;
  fast.fast_targets = true;
  EXPECT_EQ(fast.cost_proxy(), narrow.cost_proxy());
}

// --------------------------------------------------------- work pool ----

TEST(WorkPool, RunsDynamicallySubmittedTasks) {
  WorkPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &ran] {
      ++ran;
      // Tasks discovered mid-drain (mutation proposals) must run too.
      pool.submit([&ran] { ++ran; });
    });
  }
  pool.run();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.first_error(), nullptr);
  EXPECT_EQ(pool.spawn_failures(), 0u);
}

TEST(WorkPool, TaskSubmittedFromATaskRunsAfterTheQueuedOnes) {
  // One FIFO queue: work discovered by a running task joins the back,
  // behind the tasks that were already queued.
  WorkPool pool(1);
  std::vector<int> order;
  pool.submit([&pool, &order] {
    order.push_back(0);
    pool.submit([&order] { order.push_back(3); });
  });
  pool.submit([&order] { order.push_back(1); });
  pool.submit([&order] { order.push_back(2); });
  pool.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(pool.first_error(), nullptr);
}

TEST(WorkPool, CompletesWhenEveryHelperSpawnFails) {
  WorkPool pool(4, [](std::function<void()>) -> std::thread {
    throw std::runtime_error("no threads today");
  });
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) pool.submit([&ran] { ++ran; });
  pool.run();  // the calling thread drains everything itself
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(pool.helpers_requested(), 3u);
  EXPECT_EQ(pool.spawn_failures(), 3u);
  EXPECT_EQ(pool.first_error(), nullptr);
}

TEST(WorkPool, FirstTaskErrorIsHeldAndRemainingWorkDiscarded) {
  WorkPool pool(1);  // single-threaded: deterministic execution order
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  pool.submit([&ran] { ++ran; });
  pool.run();
  ASSERT_NE(pool.first_error(), nullptr);
  EXPECT_THROW(std::rethrow_exception(pool.first_error()),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0);  // discarded after the error
}

TEST(Explorer, SpawnFailureDegradesParallelSweepLoudly) {
  // A thread factory that always fails must not lose the sweep *or* the
  // signal: results match the 1-thread sweep bit for bit and the
  // degradation is visible on the explorer.
  Explorer ex;
  const auto cands = default_candidates();
  const std::vector<WorkloadCase> wl{two_streams(6, 64)};
  const auto seq = ex.sweep_parallel(cands, wl, 50_ms, 1);
  ex.set_thread_factory([](std::function<void()>) -> std::thread {
    throw std::runtime_error("EAGAIN");
  });
  const auto par = ex.sweep_parallel(cands, wl, 50_ms, 4);
  EXPECT_EQ(ex.last_spawn_failures(), 3u);
  ASSERT_EQ(par.size(), seq.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    expect_sim_columns_equal(par[i], seq[i]);
  }
}

TEST(SearchDriver, RungPoolsUseTheExplorersThreadFactory) {
  // Every rung's pool spawns its helpers through the explorer's factory.
  // With every spawn failing, the search completes on the calling
  // thread, prints the 1-thread frontier byte for byte, and the explorer
  // reports each failed helper of each rung.
  const auto cands = default_candidates();
  const std::vector<WorkloadCase> wl{two_streams(6, 64)};
  auto search = [&](Explorer& ex, unsigned n_threads) {
    SearchConfig cfg;
    cfg.horizons = {2_ms, 50_ms};
    cfg.mutation_depth = 1;
    cfg.n_threads = n_threads;
    const SearchReport report = SearchDriver(cfg).run(ex, cands, wl);
    std::ostringstream os;
    SearchDriver::print_frontier(os, report);
    return std::pair<SearchReport, std::string>(report, os.str());
  };

  Explorer one;
  const auto [one_report, one_text] = search(one, 1);
  EXPECT_EQ(one.last_spawn_failures(), 0u);

  Explorer ex;
  ex.set_thread_factory([](std::function<void()>) -> std::thread {
    throw std::runtime_error("EAGAIN");
  });
  const auto [report, text] = search(ex, 4);
  EXPECT_EQ(text, one_text);
  ASSERT_EQ(report.rungs.size(), 2u);
  EXPECT_EQ(ex.last_spawn_failures(), report.rungs.size() * 3u);

  // The count is the last search's own, not a sum across runs.
  ex.set_thread_factory({});
  search(ex, 4);
  EXPECT_EQ(ex.last_spawn_failures(), 0u);
}

// ---------------------------------------------------------- abort ----

TEST(SearchDriver, DominatedCandidateIsAbortedMidRun) {
  // A fast platform and a much slower one on a single-objective search:
  // the slow cell survives rung 0 as a pad, is off the front, and at the
  // full-horizon rung its budgeted re-run must be cut off at
  // abort_slack x the fast cell's demonstrated completion time.
  Explorer ex;
  const WorkloadCase wl = two_streams(200, 512);
  Platform fast;
  fast.name = "fast-plb";
  Platform slow;
  slow.name = "slow-opb";
  slow.bus = BusKind::Opb;
  slow.bus_cycle = 20_ns;
  const auto tf = ex.evaluate(fast, wl, 500_ms);
  const auto ts = ex.evaluate(slow, wl, 500_ms);
  ASSERT_TRUE(tf.completed);
  ASSERT_TRUE(ts.completed);
  ASSERT_GT(ts.sim_time_us, 2.0 * tf.sim_time_us);

  SearchConfig cfg;
  cfg.objectives = {Objective::Throughput};
  const double mid_us = 0.5 * (tf.sim_time_us + ts.sim_time_us);
  cfg.horizons = {Time::us(static_cast<std::uint64_t>(mid_us)), 500_ms};
  cfg.keep_fraction = 1.0;  // the slow cell survives selection...
  cfg.pad_fraction = 1.0;
  cfg.abort_slack = mid_us / tf.sim_time_us;  // ...but not the budget
  SearchDriver driver(cfg);
  const auto report = driver.run(ex, {fast, slow}, {wl});

  ASSERT_EQ(report.rungs.size(), 2u);
  EXPECT_EQ(report.rungs[0].evaluated, 2u);
  EXPECT_EQ(report.rungs[1].carried, 1u);   // fast: final at rung 0
  EXPECT_EQ(report.rungs[1].evaluated, 1u); // slow: re-run under budget
  EXPECT_EQ(report.rungs[1].aborted, 1u);
  EXPECT_EQ(report.pruned_cells, 1u);
  ASSERT_EQ(report.frontier.size(), 1u);
  EXPECT_EQ(report.frontier[0].platform, "fast-plb");
  expect_sim_columns_equal(report.frontier[0], tf);
}

// ------------------------------------------------- search vs. sweep ----

TEST(SearchDriver, RecoversExhaustiveParetoFrontOnTheDefaultGrid) {
  // The acceptance bar: on the default 108-platform x 5-workload grid
  // the search must reproduce the exhaustive sweep's Pareto front bit
  // for bit while running at most half the cells at the full horizon.
  Explorer ex;
  const auto plats = grid_candidates();
  const auto wls = workload::workload_candidates();
  ASSERT_EQ(plats.size(), 108u);
  ASSERT_EQ(wls.size(), 5u);

  SearchConfig cfg;  // default horizons / objectives / fractions
  cfg.n_threads = 4;
  SearchDriver driver(cfg);
  const auto report = driver.run(ex, plats, wls);

  const Time full_horizon = cfg.horizons.back();
  const auto sweep = ex.sweep_parallel(plats, wls, full_horizon, 4);

  // Expected frontier: per-workload Pareto fronts of the exhaustive
  // rows, groups in workload order, rows sorted by platform name.
  std::vector<ExplorationRow> expected;
  for (std::size_t w = 0; w < wls.size(); ++w) {
    std::vector<ExplorationRow> group;
    for (std::size_t p = 0; p < plats.size(); ++p) {
      group.push_back(sweep[p * wls.size() + w]);
    }
    std::sort(group.begin(), group.end(),
              [](const ExplorationRow& a, const ExplorationRow& b) {
                return a.platform < b.platform;
              });
    for (const std::size_t i : pareto_front(group, cfg.objectives)) {
      expected.push_back(group[i]);
    }
  }
  ASSERT_EQ(report.frontier.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_sim_columns_equal(report.frontier[i], expected[i]);
  }
  ASSERT_EQ(report.frontier.size(), report.frontier_platforms.size());
  for (std::size_t i = 0; i < report.frontier.size(); ++i) {
    expect_row_invariants(report.frontier_platforms[i], report.frontier[i]);
  }

  // The carry-forward economy: at most 50% of the 540 cells may pay the
  // full horizon (here every workload completes inside rung 0, so the
  // final rung re-simulates nothing at all).
  EXPECT_LE(report.full_horizon_evals, plats.size() * wls.size() / 2);
  EXPECT_EQ(report.candidates_seen, plats.size() * wls.size());
  ASSERT_EQ(report.rungs.size(), cfg.horizons.size());
  EXPECT_EQ(report.rungs.front().evaluated, plats.size() * wls.size());
  EXPECT_EQ(report.pruned_cells, 0u);
}

TEST(SearchDriver, SameSeedSearchesAreByteIdenticalAcrossThreadCounts) {
  // Mutation on, starting from a handful of seeds: the discovered
  // candidate set, the report counters, and the printed frontier must
  // not depend on run or thread count. Two spaces: the default grid's,
  // and perfbench's expanded one mutated three hops deep from ten
  // grid points (349 admitted cells, 978 duplicate proposals). Under
  // TSan this also checks the driver lock's discipline.
  struct Case {
    const char* name;
    KnobSpace space;
    std::vector<Platform> seeds;
    std::vector<WorkloadCase> wls;
    std::size_t depth;
    std::size_t limit;
  };
  const auto grid = grid_candidates();
  KnobSpace expanded;
  expanded.buses = {BusKind::SharedBus, BusKind::Plb, BusKind::Opb,
                    BusKind::Crossbar};
  expanded.arbs = {ArbKind::Priority, ArbKind::RoundRobin, ArbKind::Tdma,
                   ArbKind::PriorityAging, ArbKind::Bandwidth};
  expanded.bus_cycles = {5_ns, 10_ns, 20_ns, 40_ns};
  expanded.data_widths = {2, 4, 8, 16};
  expanded.max_outstanding = {1, 2, 4, 8};
  expanded.fast_targets = {false, true};
  const std::vector<Case> cases{
      {"default grid", GridSpec{}.knobs,
       std::vector<Platform>(grid.begin(), grid.begin() + 4),
       {workload::workload_candidates()[0]}, 2, 3},
      {"perfbench space", expanded,
       std::vector<Platform>(grid.begin(), grid.begin() + 10),
       {two_streams(1, 16)}, 3, 12}};

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto search = [&](unsigned n_threads) {
      Explorer ex;
      SearchConfig cfg;
      cfg.space = c.space;
      cfg.mutation_depth = c.depth;
      cfg.mutation_limit = c.limit;
      cfg.n_threads = n_threads;
      SearchDriver driver(cfg);
      const auto report = driver.run(ex, c.seeds, c.wls);
      std::ostringstream os;
      SearchDriver::print_frontier(os, report);
      return std::pair<SearchReport, std::string>(report, os.str());
    };

    const auto [one, one_text] = search(1);
    EXPECT_GT(one.proposed, 0u);
    EXPECT_GT(one.candidates_seen, c.seeds.size());  // mutation found work
    for (const unsigned n_threads : {1u, 4u, 4u}) {
      const auto [r, text] = search(n_threads);
      EXPECT_EQ(text, one_text);
      EXPECT_EQ(r.candidates_seen, one.candidates_seen);
      EXPECT_EQ(r.proposed, one.proposed);
      EXPECT_EQ(r.duplicates, one.duplicates);
      EXPECT_EQ(r.pruned_cells, one.pruned_cells);
      EXPECT_EQ(r.deadlocked_cells, one.deadlocked_cells);
      EXPECT_EQ(r.full_horizon_evals, one.full_horizon_evals);
      ASSERT_EQ(r.rungs.size(), one.rungs.size());
      for (std::size_t i = 0; i < r.rungs.size(); ++i) {
        EXPECT_EQ(r.rungs[i].evaluated, one.rungs[i].evaluated) << i;
        EXPECT_EQ(r.rungs[i].carried, one.rungs[i].carried) << i;
        EXPECT_EQ(r.rungs[i].cut, one.rungs[i].cut) << i;
        EXPECT_EQ(r.rungs[i].aborted, one.rungs[i].aborted) << i;
      }
      ASSERT_EQ(r.frontier.size(), one.frontier.size());
      for (std::size_t i = 0; i < r.frontier.size(); ++i) {
        expect_sim_columns_equal(r.frontier[i], one.frontier[i]);
      }
    }
  }
}

TEST(SearchDriver, PrintFrontierSeparatorMatchesHeaderWidth) {
  Explorer ex;
  SearchConfig cfg;
  cfg.horizons = {10_ms};
  SearchDriver driver(cfg);
  const auto report =
      driver.run(ex, default_candidates(), {two_streams(6, 64)});
  std::ostringstream os;
  SearchDriver::print_frontier(os, report);
  std::istringstream in(os.str());
  std::string header, rule;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, rule));
  EXPECT_EQ(rule, std::string(header.size(), '-'));
}

TEST(SearchDriver, SingleHorizonSearchFrontsAllCandidates) {
  // One rung == plain sweep + Pareto extraction; every frontier row must
  // match a direct evaluation bit for bit.
  Explorer ex;
  const WorkloadCase wl = two_streams(8, 128);
  SearchConfig cfg;
  cfg.horizons = {50_ms};
  SearchDriver driver(cfg);
  const auto cands = default_candidates();
  const auto report = driver.run(ex, cands, {wl});
  ASSERT_EQ(report.rungs.size(), 1u);
  EXPECT_EQ(report.rungs[0].evaluated, cands.size());
  EXPECT_EQ(report.full_horizon_evals, cands.size());
  ASSERT_GE(report.frontier.size(), 1u);
  for (std::size_t i = 0; i < report.frontier.size(); ++i) {
    const auto direct = ex.evaluate(report.frontier_platforms[i], wl, 50_ms);
    expect_sim_columns_equal(report.frontier[i], direct);
  }
}

// ------------------------------------------------------- deadlocks ----

namespace {

std::vector<Platform> plb_and_opb() {
  std::vector<Platform> out;
  for (const auto& p : grid_candidates()) {
    if (p.name == "plb-priority-10ns-32b" ||
        p.name == "opb-priority-20ns-32b") {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace

TEST(SearchDriver, DeadlockedCellsAreFinalAtRungZero) {
  const auto plats = plb_and_opb();
  ASSERT_EQ(plats.size(), 2u);
  Explorer ex;
  SearchDriver driver{SearchConfig{}};
  const auto report = driver.run(ex, plats, {starved_sink()});

  ASSERT_EQ(report.rungs.size(), 2u);
  EXPECT_EQ(report.rungs[0].evaluated, 2u);
  EXPECT_EQ(report.rungs[1].evaluated, 0u);  // never re-simulated
  EXPECT_EQ(report.rungs[1].carried, 0u);
  EXPECT_EQ(report.full_horizon_evals, 0u);
  EXPECT_EQ(report.deadlocked_cells, 2u);
  EXPECT_EQ(report.pruned_cells, 0u);
  EXPECT_TRUE(report.frontier.empty());
  EXPECT_TRUE(report.frontier_platforms.empty());

  std::ostringstream os;
  SearchDriver::print_frontier(os, report);
  EXPECT_NE(os.str().find(" deadlocked=2 "), std::string::npos) << os.str();
}

TEST(SearchDriver, DeadlockedCellsLeaveOnlyTheCompletingWorkloadOnTheFront) {
  const auto plats = plb_and_opb();
  ASSERT_EQ(plats.size(), 2u);
  WorkloadCase fine = two_streams(8, 128);
  fine.name = "fine";
  Explorer ex;
  SearchDriver driver{SearchConfig{}};
  const auto report = driver.run(ex, plats, {starved_sink(), fine});

  EXPECT_EQ(report.deadlocked_cells, 2u);
  EXPECT_EQ(report.full_horizon_evals, 0u);
  ASSERT_FALSE(report.frontier.empty());
  ASSERT_EQ(report.frontier.size(), report.frontier_platforms.size());
  for (std::size_t i = 0; i < report.frontier.size(); ++i) {
    EXPECT_EQ(report.frontier[i].workload, "fine");
    expect_row_invariants(report.frontier_platforms[i], report.frontier[i]);
  }

  // A search that meets no deadlock prints no deadlock count.
  SearchReport none = report;
  none.deadlocked_cells = 0;
  std::ostringstream os;
  SearchDriver::print_frontier(os, none);
  EXPECT_EQ(os.str().find("deadlocked"), std::string::npos) << os.str();
}

// ---------------------------------------------------- pareto front ----

TEST(ParetoFront, MatchesTheQuadraticDefinition) {
  // The reference: a row is on the front when no other row dominates it.
  const auto reference = [](const std::vector<ExplorationRow>& rows,
                            const std::vector<Objective>& objectives) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < rows.size() && !dominated; ++j) {
        dominated = j != i && dominates(rows[j], rows[i], objectives);
      }
      if (!dominated) front.push_back(i);
    }
    return front;
  };
  const std::vector<Objective> all{Objective::Throughput, Objective::Goodput,
                                   Objective::P99, Objective::Cost};
  workload::SplitMix64 g(0x9a2e70);
  std::size_t nonempty_fronts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Objectives: 1-4 distinct axes in a random order.
    std::vector<Objective> objectives = all;
    for (std::size_t k = 0; k + 1 < objectives.size(); ++k) {
      std::swap(objectives[k],
                objectives[k + g.uniform(0, objectives.size() - 1 - k)]);
    }
    objectives.resize(g.uniform(1, 4));
    // Small value ranges force ties on single axes; a wide one gives
    // long fronts.
    const std::uint64_t span = trial % 3 == 0 ? 1000 : g.uniform(1, 6);
    const std::size_t n = trial == 0 ? 0 : g.uniform(0, 400);
    std::vector<ExplorationRow> rows;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rows.empty() && g.uniform(0, 9) == 0) {
        rows.push_back(rows[g.uniform(0, rows.size() - 1)]);  // exact copy
        continue;
      }
      ExplorationRow r;
      r.sim_time_us = static_cast<double>(g.uniform(0, span));
      r.bytes = g.uniform(0, span);
      r.goodput_mbps = static_cast<double>(g.uniform(0, span));
      r.p99_latency_ns = static_cast<double>(g.uniform(0, span)) * 0.5;
      r.cost = static_cast<double>(g.uniform(0, span));
      rows.push_back(r);
    }
    const auto got = pareto_front(rows, objectives);
    ASSERT_EQ(got, reference(rows, objectives))
        << "trial " << trial << ", " << n << " rows, "
        << objectives.size() << " objectives";
    if (!got.empty()) ++nonempty_fronts;
  }
  EXPECT_GT(nonempty_fronts, 250u);
}
