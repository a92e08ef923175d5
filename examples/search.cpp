// Adaptive exploration walkthrough (src/explore/search.hpp): Pareto-
// front search with successive halving and seeded neighbor mutation,
// instead of an exhaustive sweep.
//
// The default 108-platform grid seeds the search, but the knob space it
// mutates inside is much larger: five arbiters (including the QoS
// pair), four bus clocks, four data widths, four outstanding depths.
// Cells that complete at the short rung-0 horizon propose one-knob
// neighbors (core::grid_neighbors) while the rung drains — the FIFO
// work pool admits the proposals dynamically — and the search grows
// well past a thousand distinct platforms without ever enumerating the
// cross product. Successive halving then keeps the Pareto front (plus a
// near-front pad) for the full-horizon rung, and dominated survivors
// run only to a shorter horizon, where they are pruned if unfinished.
//
// It writes one artifact:
//
//   <prefix>frontier.txt   print_frontier() of the final report — sim
//                          columns only, no wall clock.
//
// The search is a pure function of (seeds, knob space, config seed), so
// two runs produce a byte-identical frontier file — the CI `search` job
// runs the binary twice and diffs the artifacts. The binary exits
// non-zero if mutation discovered fewer than 1000 distinct platforms.
//
// Build & run:  ./example_search [output-prefix]

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::core;
using namespace stlm::time_literals;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "search_";

  // The mutation space: a superset of the default grid's axes. Every
  // seed platform's knob settings appear in these lists, so each seed
  // can step along every axis.
  KnobSpace space;
  space.buses = {BusKind::SharedBus, BusKind::Plb, BusKind::Opb,
                 BusKind::Crossbar};
  space.arbs = {ArbKind::Priority, ArbKind::RoundRobin, ArbKind::Tdma,
                ArbKind::PriorityAging, ArbKind::Bandwidth};
  space.bus_cycles = {5_ns, 10_ns, 20_ns, 40_ns};
  space.data_widths = {2, 4, 8, 16};
  space.max_outstanding = {1, 2, 4, 8};
  space.fast_targets = {false, true};

  expl::SearchConfig cfg;
  cfg.space = space;
  // Limit >= the max neighbor count means full one-knob expansion; the
  // depth comfortably covers the distance from the nearest grid seed to
  // any point of the space (about five hops), so the search reaches the
  // whole ~1040-point valid space without enumerating it up front.
  cfg.mutation_depth = 10;
  cfg.mutation_limit = 12;
  cfg.horizons = {2_ms, 200_ms};
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.n_threads = hw != 0 ? hw : 4;

  expl::Explorer ex;
  expl::SearchDriver driver(cfg);
  const std::vector<workload::WorkloadCase> wls{
      workload::workload_candidates()[0]};
  const auto seeds = expl::grid_candidates();
  const auto report = driver.run(ex, seeds, wls);

  {
    std::ofstream out(prefix + "frontier.txt");
    expl::SearchDriver::print_frontier(out, report);
  }

  std::ostringstream table;
  expl::SearchDriver::print_frontier(table, report);
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nseeds=%zu discovered=%zu (proposed=%zu duplicates=%zu) "
      "pruned=%zu full_horizon_evals=%zu frontier=%zu\n",
      seeds.size(), report.candidates_seen, report.proposed,
      report.duplicates, report.pruned_cells, report.full_horizon_evals,
      report.frontier.size());
  std::printf("artifact: %sfrontier.txt\n", prefix.c_str());

  if (report.candidates_seen < 1000) {
    std::fprintf(stderr,
                 "FAIL: expected >= 1000 distinct platforms, got %zu\n",
                 report.candidates_seen);
    return 1;
  }
  return 0;
}
