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

using namespace stlm;
using namespace stlm::core;
using namespace stlm::expl;
using stlm::test::expect_row_invariants;
using stlm::test::expect_sim_columns_equal;
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
  // not depend on run or thread count.
  const GridSpec spec;
  const auto grid = grid_candidates(spec);
  const std::vector<Platform> seeds(grid.begin(), grid.begin() + 4);
  const std::vector<workload::WorkloadCase> wls{
      workload::workload_candidates()[0]};

  auto search = [&](unsigned n_threads) {
    Explorer ex;
    SearchConfig cfg;
    cfg.space = spec.knobs;
    cfg.mutation_depth = 2;
    cfg.mutation_limit = 3;
    cfg.n_threads = n_threads;
    SearchDriver driver(cfg);
    const auto report = driver.run(ex, seeds, wls);
    std::ostringstream os;
    SearchDriver::print_frontier(os, report);
    return std::pair<SearchReport, std::string>(report, os.str());
  };

  const auto [ra, sa] = search(4);
  const auto [rb, sb] = search(4);
  const auto [rc, sc] = search(1);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa, sc);
  EXPECT_GT(ra.proposed, 0u);
  EXPECT_GT(ra.candidates_seen, seeds.size());  // mutation discovered work
  EXPECT_EQ(ra.candidates_seen, rb.candidates_seen);
  EXPECT_EQ(ra.candidates_seen, rc.candidates_seen);
  EXPECT_EQ(ra.duplicates, rb.duplicates);
  EXPECT_EQ(ra.proposed, rb.proposed);
  ASSERT_EQ(ra.frontier.size(), rc.frontier.size());
  for (std::size_t i = 0; i < ra.frontier.size(); ++i) {
    expect_sim_columns_equal(ra.frontier[i], rc.frontier[i]);
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
