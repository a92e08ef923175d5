// E1 — Simulation speed across abstraction levels (paper §1 claim, Fig. 1
// flow; CCATB numbers per Pasricha et al. [4]).
//
// The same producer->consumer workload (kMessages x kPayload bytes, small
// compute budget) is simulated at four levels:
//   component-assembly (untimed SHIP) > CCATB (annotated SHIP)
//   > CAM (wrappers + PLB model) > pin (OCP pins + accessors + RTL bus).
// Reported: host wall time per workload (the benchmark time itself),
// simulated time, and messages/second of host time. Expected shape:
// each refinement step costs simulation speed; pin level is slowest by a
// wide margin.

#include <benchmark/benchmark.h>

#include "core/core.hpp"
#include "kernel/kernel.hpp"
#include "pin_rig.hpp"
#include "workload/generators.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr std::uint64_t kMessages = 400;
constexpr std::size_t kPayload = 64;
constexpr std::uint64_t kCompute = 10;

void run_mapped_level(benchmark::State& state, core::AbstractionLevel level) {
  double sim_us = 0.0;
  for (auto _ : state) {
    workload::ProducerPe prod("prod", kMessages, kPayload, kCompute);
    workload::SinkPe sink("sink", kMessages);
    core::SystemGraph g;
    g.add_pe(prod);
    g.add_pe(sink);
    // Roles declared: producer side is the master (skips discovery).
    g.connect("stream", prod, "out", sink, "in", 2, ship::Role::Master);
    Simulator sim;
    auto ms = core::Mapper::map(sim, g, core::Platform{}, level);
    const bool done = ms->run_until_done(1_sec);
    if (!done) state.SkipWithError("workload did not complete");
    sim_us = sim.now().to_seconds() * 1e6;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMessages));
  state.counters["sim_us"] = sim_us;
  state.counters["msgs_per_wall_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kMessages),
      benchmark::Counter::kIsRate);
}

void BM_ComponentAssembly(benchmark::State& state) {
  run_mapped_level(state, core::AbstractionLevel::ComponentAssembly);
}
void BM_Ccatb(benchmark::State& state) {
  run_mapped_level(state, core::AbstractionLevel::Ccatb);
}
void BM_Cam(benchmark::State& state) {
  run_mapped_level(state, core::AbstractionLevel::Cam);
}

// Pin level: the equivalent traffic as pin-accurate bursts through the
// accessor stack onto an RTL bus (one 64-byte write per message).
// Its thread resumes per message are simulated, hence exact: the pin
// rung's switching cost, gated next to sim_us.
void BM_Pin(benchmark::State& state) {
  double sim_us = 0.0;
  std::uint64_t ctx_switches = 0;
  for (auto _ : state) {
    bench::PinRig rig;
    // The compute budget the mapped producer charges, as clock cycles.
    if (!rig.run_stream(kMessages, kPayload, kCompute)) {
      state.SkipWithError("pin-level write failed");
    }
    sim_us = rig.sim.now().to_seconds() * 1e6;
    ctx_switches = rig.sim.ctx_switches();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMessages));
  state.counters["sim_us"] = sim_us;
  state.counters["ctx_switches_per_msg"] =
      static_cast<double>(ctx_switches) / static_cast<double>(kMessages);
  state.counters["msgs_per_wall_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kMessages),
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_ComponentAssembly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ccatb)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cam)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Pin)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
