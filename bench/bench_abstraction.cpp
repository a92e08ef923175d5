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

#include "accessor/accessor.hpp"
#include "core/core.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "ocp/ocp.hpp"
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
void BM_Pin(benchmark::State& state) {
  double sim_us = 0.0;
  for (auto _ : state) {
    Simulator sim;
    Clock clk(sim, "clk", 10_ns);
    accessor::BusPins bus(sim, "bus");
    accessor::RtlArbiter arb(sim, "arb", bus, clk);
    ocp::OcpPins pe_pins(sim, "pe");
    ocp::OcpPinMaster pe(sim, "pe.m", pe_pins, clk);
    accessor::MasterAccessor acc(sim, "acc", pe_pins, bus, arb, clk);
    ocp::OcpPins mem_pins(sim, "mem");
    ocp::MemorySlave mem("mem", 0x0, 0x10000);
    ocp::OcpPinSlave mem_pe(sim, "mem.s", mem_pins, clk, mem);
    accessor::SlaveAccessor sacc(sim, "sacc", mem_pins, bus, clk,
                                 {0x0, 0x10000});
    bool ok = true;
    sim.spawn_thread("producer", [&] {
      std::vector<std::uint8_t> payload(kPayload, 0xa5);
      for (std::uint64_t i = 0; i < kMessages; ++i) {
        // The compute budget the mapped producer charges.
        wait(10_ns * kCompute);
        const auto addr = (i * kPayload) % 0x8000;
        if (!pe.transport(ocp::Request::write(addr, payload)).good()) {
          ok = false;
        }
      }
      sim.stop();
    });
    sim.run();
    if (!ok) state.SkipWithError("pin-level write failed");
    sim_us = sim.now().to_seconds() * 1e6;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMessages));
  state.counters["sim_us"] = sim_us;
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
