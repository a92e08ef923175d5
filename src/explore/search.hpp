#pragma once
// Adaptive exploration: Pareto-front search over the Platform x Workload
// knob space (successive halving + neighbor mutation) instead of an
// exhaustive sweep.
//
// The driver evaluates candidate cells in rungs of increasing simulated
// horizon. A cell whose workload *completes* at any horizon has a final,
// horizon-independent row (the run stops at the last PE's return, so
// re-running it with a longer horizon reproduces the same row bit for
// bit) — it is carried forward, never re-simulated. So is a cell that
// deadlocks: it stops, incomplete, before the time it was run to, and a
// longer horizon would stop it at the same instant; it leaves the search
// (SearchReport::deadlocked_cells) and never reaches the frontier. Only
// cells still running at the rung's horizon pay for the next, longer
// rung; that is what caps full-horizon evaluations well below the grid
// size. Between rungs the survivor set shrinks to the Pareto front plus
// a configurable pad of near-front cells, and surviving dominated cells
// re-run under a shorter horizon: the completion time the front has
// already demonstrated, times abort_slack. One that does not finish by
// then is pruned.
//
// Determinism: candidate identity is (platform name, workload), results
// land in per-cell slots, every set operation (selection, fronts, the
// final frontier) runs over canonically sorted cells, and mutation draws
// its SplitMix64 stream from the parent cell's name hash — never from
// execution order. Same-seed searches are byte-identical, at any thread
// count.
//
// Concurrency: workers simulate cells and enumerate neighbors without
// holding the driver's lock; they take it only for bookkeeping (the cell
// table, depths, counters) and submit follow-up tasks after releasing it.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "explore/explorer.hpp"

namespace stlm::expl {

// Search objectives. All are minimized internally; bandwidth objectives
// are negated so "higher is better" fits the same dominance rule.
enum class Objective : std::uint8_t { Throughput, Goodput, P99, Cost };
const char* objective_name(Objective o);

// The minimized scalar objective `o` takes on row `r`.
double objective_value(const ExplorationRow& r, Objective o);

// True when `a` Pareto-dominates `b`: no objective worse, at least one
// strictly better (minimized values).
bool dominates(const ExplorationRow& a, const ExplorationRow& b,
               const std::vector<Objective>& objectives);

// Indices of the non-dominated rows of `rows` under `objectives`, in
// input order. Non-strict ties survive: two rows with identical
// objective vectors are both on the front. Precondition: no objective
// value is NaN (throughput_mbps() and cost_proxy() guard their
// divisions, so rows from Explorer::evaluate never carry one). Sorts the
// rows by objective vector, then scans each against the front so far:
// O(n log n + n * |front|) rather than all pairs.
std::vector<std::size_t> pareto_front(const std::vector<ExplorationRow>& rows,
                                      const std::vector<Objective>& objectives);

struct SearchConfig {
  // Dominance objectives for selection and the final frontier. P99 reads
  // ExplorationRow::p99_latency_ns, which on every canonical cell (fewer
  // than 100 transactions) is the worst transaction, not a tail
  // percentile.
  std::vector<Objective> objectives{Objective::Throughput, Objective::P99,
                                    Objective::Cost};
  // Successive-halving horizons, shortest first; the last entry is the
  // full horizon an exhaustive sweep would use. Cells completing at an
  // early horizon are exact and never re-run (see file comment).
  std::vector<Time> horizons{Time::ms(2), Time::ms(200)};
  // After each non-final rung, survivors per workload group are capped
  // at max(ceil(keep_fraction * group), front size): the front always
  // survives; dominated cells beyond the cap are cut.
  double keep_fraction = 0.5;
  // Per-objective insurance pad: the top ceil(pad_fraction * group)
  // cells on each single objective survive selection even when
  // dominated (a short-horizon row may under-sell a cell).
  double pad_fraction = 0.10;
  // Neighbor mutation (0 = off): a cell whose rung-0 evaluation
  // completes proposes up to mutation_limit one-knob neighbors
  // (core::grid_neighbors over `space`), which join rung 0 while it
  // drains; their cells may propose again up to mutation_depth hops
  // from a seed candidate.
  std::size_t mutation_depth = 0;
  std::size_t mutation_limit = 4;
  core::KnobSpace space{};
  // Root seed for mutation's neighbor choice (per-cell streams derive
  // from it and the cell's name hash).
  std::uint64_t seed = 0x5eed;
  unsigned n_threads = 1;
  // Early termination of dominated survivors at rungs > 0: when
  // abort_slack x the longest completion time any completed cell has
  // demonstrated (0 disables) comes before the rung's horizon, they run
  // only that long. One that does not finish by then is pruned —
  // dropped from the search with a truncated row.
  double abort_slack = 4.0;
};

struct RungStats {
  Time horizon = Time::zero();
  std::size_t evaluated = 0;  // cells simulated at this rung's horizon
  std::size_t carried = 0;    // completed cells carried forward, not re-run
  std::size_t cut = 0;        // cells dropped by selection after this rung
  std::size_t aborted = 0;    // cells pruned at their abort time this rung
};

struct SearchReport {
  // Per-workload-group Pareto fronts of the surviving full-horizon rows,
  // sorted by (workload, platform name); frontier_platforms[i] is the
  // full Platform the i-th row was measured on.
  std::vector<ExplorationRow> frontier;
  std::vector<core::Platform> frontier_platforms;
  std::vector<RungStats> rungs;
  std::size_t candidates_seen = 0;     // distinct cells admitted overall
  std::size_t proposed = 0;            // mutation proposals generated
  std::size_t duplicates = 0;          // proposals rejected as already seen
  std::size_t pruned_cells = 0;        // cells pruned at their abort time
  std::size_t deadlocked_cells = 0;    // cells that stopped short, incomplete
  std::size_t full_horizon_evals = 0;  // evaluations run at the last horizon
};

class SearchDriver {
public:
  explicit SearchDriver(SearchConfig cfg = {});

  // Search the platform x workload grid with `ex` evaluating cells.
  // Deterministic for a fixed (config, platforms, workloads).
  SearchReport run(Explorer& ex, const std::vector<core::Platform>& platforms,
                   const std::vector<WorkloadCase>& workloads);

  // Frontier table. Sim columns only — no wall clock — so the printout
  // for a given report is byte-identical across runs and hosts (the CI
  // search job diffs two of these).
  static void print_frontier(std::ostream& os, const SearchReport& report);

private:
  SearchConfig cfg_;
};

}  // namespace stlm::expl
