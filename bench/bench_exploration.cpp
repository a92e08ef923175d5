// E2 — Fast communication architecture exploration (paper §3).
//
// One benchmark iteration = a complete exploration: the synthetic SoC is
// mapped onto every architecture in the candidate set and simulated to
// completion. The benchmark time is the *exploration cost on the host* —
// the paper's "fast yet timing-accurate exploration" claim. The
// BM_ExploreGrid/threads:* family runs the 40-platform cross-product grid
// through Explorer::sweep_parallel at several worker counts, so the
// emitted JSON (CI's BENCH_exploration.json) carries the threads=1 vs
// threads=N trajectory across PRs. The per-architecture simulated results
// (the designer-facing table) and the measured parallel speedup are
// printed once at the end.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>

#include "explore/explore.hpp"
#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

workload::GraphFactory soc_factory() {
  return [](core::SystemGraph& g,
            std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    auto video = std::make_unique<workload::ProducerPe>("video", 16, 512, 50);
    auto audio = std::make_unique<workload::ProducerPe>("audio", 16, 64, 200);
    auto v_sink = std::make_unique<workload::SinkPe>("v_sink", 16);
    auto a_sink = std::make_unique<workload::SinkPe>("a_sink", 16);
    auto client = std::make_unique<workload::RequesterPe>("client", 8, 32, 100);
    auto server = std::make_unique<workload::EchoServerPe>("server", 8, 50);
    g.add_pe(*video);
    g.add_pe(*audio);
    g.add_pe(*v_sink);
    g.add_pe(*a_sink);
    g.add_pe(*client);
    g.add_pe(*server);
    g.connect("video_ch", *video, "out", *v_sink, "in", 2);
    g.connect("audio_ch", *audio, "out", *a_sink, "in", 2);
    g.connect("rpc", *client, "out", *server, "in", 1);
    o.push_back(std::move(video));
    o.push_back(std::move(audio));
    o.push_back(std::move(v_sink));
    o.push_back(std::move(a_sink));
    o.push_back(std::move(client));
    o.push_back(std::move(server));
  };
}

std::vector<expl::ExplorationRow> g_last_rows;
bool g_grid_bench_ran = false;

// Begins one transaction with no simulator current: its id is the
// process-wide count of transactions begun so far, itself included.
std::uint64_t process_wide_txn_id() {
  Txn probe;
  probe.begin_msg();
  return probe.id;
}

// Kernel-observability counters from the last sweep's rows (src/obs):
// total coroutine dispatches across the grid and the mean fast-path hit
// rate. Both land in the emitted JSON next to real_time, so the bench
// history records *why* a wall-clock number moved (fewer switches /
// more fast-path completions), not just that it moved.
void set_obs_counters(benchmark::State& state,
                      const std::vector<expl::ExplorationRow>& rows) {
  double switches = 0.0;
  double hit_sum = 0.0;
  for (const auto& r : rows) {
    switches += static_cast<double>(r.ctx_switches);
    hit_sum += r.fast_hit_rate;
  }
  state.counters["ctx_switches"] = switches;
  state.counters["fast_hit_rate"] =
      rows.empty() ? 0.0 : hit_sum / static_cast<double>(rows.size());
}

void BM_ExploreCamLibrary(benchmark::State& state) {
  expl::Explorer explorer;
  const std::vector<workload::WorkloadCase> soc{{"", soc_factory()}};
  const auto candidates = expl::default_candidates();
  for (auto _ : state) {
    g_last_rows = explorer.sweep_parallel(candidates, soc, 200_ms, 1);
    for (const auto& r : g_last_rows) {
      if (!r.completed) state.SkipWithError("candidate did not complete");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates.size()));
  state.counters["architectures"] = static_cast<double>(candidates.size());
}

// The atomic grid (max_outstanding pinned to 1, fast path off: the
// historical 40-platform cross product) keeps this row family
// comparable across PRs even as the default grid grows new axes.
std::vector<core::Platform> atomic_grid() {
  expl::GridSpec spec;
  spec.knobs.max_outstanding = {1};
  spec.knobs.fast_targets = {false};
  return expl::grid_candidates(spec);
}

// The same 40 atomic points with the kernel fast path on: identical
// simulated timing (modulo the documented same-delta arbitration
// corner), so the wall-clock ratio BM_ExploreGrid / BM_ExploreFastGrid
// is pure kernel overhead removed by fast targets.
std::vector<core::Platform> fast_grid() {
  expl::GridSpec spec;
  spec.knobs.max_outstanding = {1};
  spec.knobs.fast_targets = {true};
  return expl::grid_candidates(spec);
}

// The 40-platform cross-product grid sharded over `threads` workers.
// threads=1 is the one-thread baseline; the ratio of the two real-time
// entries in BENCH_exploration.json is the parallel-exploration speedup
// CI tracks across PRs.
void BM_ExploreGrid(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  g_grid_bench_ran = true;
  expl::Explorer explorer;
  const std::vector<workload::WorkloadCase> soc{{"", soc_factory()}};
  const auto candidates = atomic_grid();
  std::vector<expl::ExplorationRow> rows;
  for (auto _ : state) {
    rows = explorer.sweep_parallel(candidates, soc, 200_ms, threads);
    for (const auto& r : rows) {
      if (!r.completed) state.SkipWithError("candidate did not complete");
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates.size()));
  state.counters["architectures"] = static_cast<double>(candidates.size());
  state.counters["threads"] = static_cast<double>(threads);
  set_obs_counters(state, rows);
}

// The 40-platform atomic grid with fast targets on, sharded over
// `threads` workers — BM_ExploreGrid's counterpart on the kernel fast
// path (same simulated work, no grant-engine wakeups, no coroutine
// switches on uncontended transactions).
void BM_ExploreFastGrid(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  g_grid_bench_ran = true;
  expl::Explorer explorer;
  const std::vector<workload::WorkloadCase> soc{{"", soc_factory()}};
  const auto candidates = fast_grid();
  std::vector<expl::ExplorationRow> rows;
  for (auto _ : state) {
    rows = explorer.sweep_parallel(candidates, soc, 200_ms, threads);
    for (const auto& r : rows) {
      if (!r.completed) state.SkipWithError("candidate did not complete");
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates.size()));
  state.counters["architectures"] = static_cast<double>(candidates.size());
  state.counters["threads"] = static_cast<double>(threads);
  set_obs_counters(state, rows);
}

// The 68-platform timing grid — the 40 atomic points plus the -split4
// variants of every split-capable bus (fast axis off so the family stays
// comparable across PRs) — sharded over `threads` workers. The delta
// between this family and BM_ExploreGrid is the host cost of simulating
// the split pipelines (more processes, more context switches per
// simulated transaction).
void BM_ExploreSplitGrid(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  g_grid_bench_ran = true;
  expl::Explorer explorer;
  const std::vector<workload::WorkloadCase> soc{{"", soc_factory()}};
  expl::GridSpec spec;
  spec.knobs.fast_targets = {false};
  const auto candidates = expl::grid_candidates(spec);
  for (auto _ : state) {
    auto rows = explorer.sweep_parallel(candidates, soc, 200_ms, threads);
    for (const auto& r : rows) {
      if (!r.completed) state.SkipWithError("candidate did not complete");
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates.size()));
  state.counters["architectures"] = static_cast<double>(candidates.size());
  state.counters["threads"] = static_cast<double>(threads);
}

// The two-dimensional grid: 40 atomic platforms x 5 canonical seeded
// workloads (uniform / bursty / reqreply / pipeline / banked) = 200
// cells, sharded over `threads` workers. This is the workload-axis cost
// CI tracks alongside the single-workload grid. `shared_cells` counts
// the cells whose row was copied from a certified arbiter sibling and
// `simulated_cells` the rest; both are simulated facts, so the perf gate
// holds them exactly. At the default seed no atomic group is certified
// (0 shared), so the gate catches a certificate that shares too much;
// Explorer.SharedRowsEqualEvaluatedCells pins the 42 shared cells of
// the full 108-platform grid.
//
// The seeds axis (second argument; the plain rows run 1 seed) repeats
// the canonical workloads at that many seeds, as perfbench's grid-sweep
// does. Each (platform, workload) pair is one shape group, mapped once:
// `mapped_cells` counts the cells that were mapped and `reused_cells`
// the simulated ones that ran on a reset system, both exact.
void explore_workload_grid(benchmark::State& state, std::size_t seeds) {
  const auto threads = static_cast<unsigned>(state.range(0));
  expl::Explorer explorer;
  const auto candidates = atomic_grid();
  std::vector<workload::WorkloadCase> workloads;
  for (std::size_t k = 0; k < seeds; ++k) {
    for (workload::WorkloadCase c : expl::workload_candidates(
             k == 0 ? 0x5eed : workload::SplitMix64::derive(0x5eed, k))) {
      if (seeds > 1) c.name += "#" + std::to_string(k);
      workloads.push_back(std::move(c));
    }
  }
  const std::size_t cells = candidates.size() * workloads.size();
  for (auto _ : state) {
    auto rows = explorer.sweep_parallel(candidates, workloads, 200_ms,
                                        threads);
    for (const auto& r : rows) {
      if (!r.completed) state.SkipWithError("grid cell did not complete");
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["shared_cells"] =
      static_cast<double>(explorer.last_shared_cells());
  const std::size_t simulated = cells - explorer.last_shared_cells();
  state.counters["simulated_cells"] = static_cast<double>(simulated);
  state.counters["mapped_cells"] =
      static_cast<double>(explorer.last_mapped_cells());
  state.counters["reused_cells"] =
      static_cast<double>(simulated - explorer.last_mapped_cells());
  state.counters["seeds"] = static_cast<double>(seeds);
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_ExploreWorkloadGrid(benchmark::State& state) {
  explore_workload_grid(state, 1);
}

void BM_ExploreWorkloadGridSeeds(benchmark::State& state) {
  explore_workload_grid(state, static_cast<std::size_t>(state.range(1)));
}

// Adaptive Pareto search (src/explore/search.hpp) over the default
// 108-platform x 5-workload grid — the 540 cells BM_ExploreWorkloadGrid
// would sweep exhaustively at the full horizon. Rung 0 settles every
// completing cell exactly at a short horizon, successive halving keeps
// the Pareto front plus a pad, and only survivors pay the full horizon;
// the emitted counters record how much full-horizon work the search
// avoided (full_horizon_evals vs cells) next to its wall cost.
//
// txns_begun is every transaction the search's simulators began, read
// as perfbench's search workload reads its divisor: the difference of
// two process-wide ids around the run. It must not depend on the thread
// count.
void BM_SearchFrontier(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  expl::Explorer explorer;
  const auto seeds = expl::grid_candidates();
  const auto workloads = expl::workload_candidates();
  expl::SearchConfig cfg;
  cfg.n_threads = threads;
  expl::SearchReport report;
  std::uint64_t txns_begun = 0;
  for (auto _ : state) {
    expl::SearchDriver driver(cfg);
    const std::uint64_t ids_before = process_wide_txn_id();
    report = driver.run(explorer, seeds, workloads);
    txns_begun = process_wide_txn_id() - ids_before - 1;
    if (report.frontier.empty()) state.SkipWithError("empty frontier");
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(report.candidates_seen));
  state.counters["txns_begun"] = static_cast<double>(txns_begun);
  state.counters["cells"] = static_cast<double>(report.candidates_seen);
  state.counters["frontier"] = static_cast<double>(report.frontier.size());
  state.counters["full_horizon_evals"] =
      static_cast<double>(report.full_horizon_evals);
  state.counters["pruned_cells"] = static_cast<double>(report.pruned_cells);
  state.counters["threads"] = static_cast<double>(threads);
}

// The search's abort path, which the default grid never takes: the
// two-platform search of SearchDriver.DominatedCandidateIsAbortedMidRun.
// A PLB and a twice-slower OPB carry two 200-message streams; the OPB
// cell survives rung 0 off the front, and the full-horizon rung runs it
// only to abort_slack x the PLB cell's completion time, where it is
// pruned. The gated counters pin that verdict (pruned_cells=1,
// full_horizon_evals=1, frontier=1) and the transactions it cost.
void BM_SearchPrunesDominatedCell(benchmark::State& state) {
  const workload::WorkloadCase streams{
      "", [](core::SystemGraph& g,
             std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
        for (const char* n : {"0", "1"}) {
          auto p = std::make_unique<workload::ProducerPe>(
              std::string("p") + n, 200, 512, 20);
          auto s = std::make_unique<workload::SinkPe>(std::string("s") + n,
                                                      200);
          g.add_pe(*p);
          g.add_pe(*s);
          g.connect(std::string("ch") + n, *p, "out", *s, "in", 2);
          o.push_back(std::move(p));
          o.push_back(std::move(s));
        }
      }};
  core::Platform fast;
  fast.name = "fast-plb";
  core::Platform slow;
  slow.name = "slow-opb";
  slow.bus = core::BusKind::Opb;
  slow.bus_cycle = 20_ns;
  expl::Explorer explorer;
  const double fast_us = explorer.evaluate(fast, streams, 500_ms).sim_time_us;
  const double slow_us = explorer.evaluate(slow, streams, 500_ms).sim_time_us;
  const double mid_us = 0.5 * (fast_us + slow_us);
  expl::SearchConfig cfg;
  cfg.objectives = {expl::Objective::Throughput};
  cfg.horizons = {Time::us(static_cast<std::uint64_t>(mid_us)), 500_ms};
  cfg.keep_fraction = 1.0;
  cfg.pad_fraction = 1.0;
  cfg.abort_slack = mid_us / fast_us;
  expl::SearchReport report;
  std::uint64_t txns_begun = 0;
  for (auto _ : state) {
    expl::SearchDriver driver(cfg);
    const std::uint64_t ids_before = process_wide_txn_id();
    report = driver.run(explorer, {fast, slow}, {streams});
    txns_begun = process_wide_txn_id() - ids_before - 1;
    if (report.pruned_cells != 1) state.SkipWithError("slow cell not pruned");
    benchmark::DoNotOptimize(report);
  }
  state.counters["txns_begun"] = static_cast<double>(txns_begun);
  state.counters["frontier"] = static_cast<double>(report.frontier.size());
  state.counters["full_horizon_evals"] =
      static_cast<double>(report.full_horizon_evals);
  state.counters["pruned_cells"] = static_cast<double>(report.pruned_cells);
}

// Exploring at CCATB instead (no CAM structure, SHIP annotation only):
// even faster, less detailed — the level above in Figure 1.
void BM_ExploreAtCcatbLevel(benchmark::State& state) {
  const auto factory = soc_factory();
  const auto candidates = expl::default_candidates();
  for (auto _ : state) {
    for (const auto& p : candidates) {
      std::vector<std::unique_ptr<core::ProcessingElement>> owned;
      core::SystemGraph g;
      factory(g, owned);
      g.discover_roles();
      Simulator sim;
      auto ms = core::Mapper::map(sim, g, p, core::AbstractionLevel::Ccatb);
      if (!ms->run_until_done(200_ms)) {
        state.SkipWithError("ccatb candidate did not complete");
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates.size()));
}

// One-shot wall-clock comparison printed after the benchmark run (only
// when a grid benchmark was actually selected — a narrow
// --benchmark_filter must not pay for four extra full-grid sweeps): the
// human-readable speedup table for README/EXPERIMENTS updates.
void report_parallel_speedup() {
  if (!g_grid_bench_ran) return;
  expl::Explorer explorer;
  const std::vector<workload::WorkloadCase> soc{{"", soc_factory()}};
  const auto candidates = expl::grid_candidates();
  const unsigned hw = std::thread::hardware_concurrency();

  auto timed_sweep = [&](unsigned threads) {
    const auto t0 = std::chrono::steady_clock::now();
    auto rows = explorer.sweep_parallel(candidates, soc, 200_ms, threads);
    const auto t1 = std::chrono::steady_clock::now();
    g_last_rows = std::move(rows);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  // stderr keeps stdout clean for --benchmark_format=json artifacts.
  std::fprintf(stderr,
               "\nParallel sweep speedup over the %zu-platform grid (host "
               "has %u hardware threads):\n",
               candidates.size(), hw);
  std::fprintf(stderr, "  %8s %12s %9s\n", "threads", "wall_ms", "speedup");
  const double base = timed_sweep(1);
  std::fprintf(stderr, "  %8u %12.1f %9s\n", 1u, base, "1.00x");
  for (unsigned t : {2u, 4u, 8u}) {
    if (t > candidates.size()) break;
    const double ms = timed_sweep(t);
    std::fprintf(stderr, "  %8u %12.1f %8.2fx\n", t, ms, base / ms);
  }
}

}  // namespace

BENCHMARK(BM_ExploreCamLibrary)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExploreGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExploreFastGrid)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExploreSplitGrid)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExploreWorkloadGrid)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
// Rows BM_ExploreWorkloadGrid/<threads>/10: the same grid at 10 seeds.
BENCHMARK(BM_ExploreWorkloadGridSeeds)
    ->Name("BM_ExploreWorkloadGrid")
    ->Args({1, 10})
    ->Args({4, 10})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_SearchFrontier)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExploreAtCcatbLevel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SearchPrunesDominatedCell)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_parallel_speedup();
  if (!g_last_rows.empty()) {
    std::cerr << "\nExploration table (simulated, CAM level):\n";
    expl::Explorer::print_table(std::cerr, g_last_rows);
  }
  return 0;
}
