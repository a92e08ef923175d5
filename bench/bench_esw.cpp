// E7 — eSW synthesis: the same PE source in HW and SW bindings (paper §4
// + Herrera et al. substitution).
//
// A producer->consumer system is mapped at CAM level with the producer in
// three configurations: HW/HW (wrappers), SW/HW (RTOS task + driver +
// HW/SW interface), SW/SW (RTOS-local channels). Reported: simulated
// completion time (SW bindings pay driver/IRQ/scheduler overhead) and
// host simulation cost. A context-switch-cost sweep quantifies the RTOS
// knob. Functional results are identical by construction — asserted in
// the loop.

#include <benchmark/benchmark.h>

#include "core/core.hpp"
#include "kernel/kernel.hpp"
#include "workload/generators.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr std::uint64_t kMessages = 48;
constexpr std::size_t kPayload = 64;

void run_partitioned(benchmark::State& state, core::Partition prod_part,
                     core::Partition sink_part,
                     std::uint64_t ctx_switch_cycles = 20) {
  double sim_us = 0.0, switches = 0.0;
  for (auto _ : state) {
    workload::ProducerPe prod("prod", kMessages, kPayload, 10);
    workload::SinkPe sink("sink", kMessages);
    core::SystemGraph g;
    g.add_pe(prod, prod_part);
    g.add_pe(sink, sink_part);
    g.connect("stream", prod, "out", sink, "in", 2, ship::Role::Master);
    core::Platform p;
    p.rtos_cfg.context_switch_cycles = ctx_switch_cycles;
    Simulator sim;
    auto ms = core::Mapper::map(sim, g, p, core::AbstractionLevel::Cam);
    if (!ms->run_until_done(1_sec)) {
      state.SkipWithError("workload did not complete");
    }
    if (sink.received() != kMessages) {
      state.SkipWithError("functional mismatch across binding");
    }
    sim_us = sim.now().to_seconds() * 1e6;
    switches = ms->os() ? static_cast<double>(ms->os()->context_switches())
                        : 0.0;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMessages));
  state.counters["sim_us"] = sim_us;
  state.counters["ctx_switches"] = switches;
}

void BM_HwHw(benchmark::State& state) {
  run_partitioned(state, core::Partition::Hardware,
                  core::Partition::Hardware);
}
void BM_SwHw(benchmark::State& state) {
  run_partitioned(state, core::Partition::Software,
                  core::Partition::Hardware);
}
void BM_SwSw(benchmark::State& state) {
  run_partitioned(state, core::Partition::Software,
                  core::Partition::Software);
}

// RTOS overhead ablation: SW/HW mapping with varying context switch cost.
void BM_SwHwCtxSwitchSweep(benchmark::State& state) {
  run_partitioned(state, core::Partition::Software,
                  core::Partition::Hardware,
                  static_cast<std::uint64_t>(state.range(0)));
}

}  // namespace

BENCHMARK(BM_HwHw)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SwHw)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SwSw)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SwHwCtxSwitchSweep)
    ->Arg(0)
    ->Arg(20)
    ->Arg(200)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
