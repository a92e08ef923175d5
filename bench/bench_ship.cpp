// E3 — SHIP primitive overhead (paper §2: SHIP is "lightweight").
//
// Cost of the four blocking interface method calls through an untimed
// channel (pure protocol + serialization overhead, no modeled bus time),
// swept over payload size. Expected shape: near-constant base cost,
// linear growth once the payload dominates (the serialization memcpy).
// The `ctx_switches` counter (kernel coroutine dispatches of one run) is
// simulated, so bench/baselines/BENCH_ship.baseline.json gates it
// exactly.

#include <benchmark/benchmark.h>

#include "kernel/kernel.hpp"
#include "ship/ship.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr int kMessagesPerRun = 256;

void BM_SendRecv(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  double switches = 0.0;
  for (auto _ : state) {
    Simulator sim;
    ship::ShipChannel ch(sim, "ch", 2);
    sim.spawn_thread("p", [&] {
      ship::VectorMsg<> m(payload, 0x5a);
      for (int i = 0; i < kMessagesPerRun; ++i) ch.a().send(m);
    });
    sim.spawn_thread("c", [&] {
      ship::VectorMsg<> m;
      for (int i = 0; i < kMessagesPerRun; ++i) ch.b().recv(m);
    });
    sim.run();
    switches = static_cast<double>(sim.ctx_switches());
  }
  state.SetItemsProcessed(state.iterations() * kMessagesPerRun);
  state.SetBytesProcessed(state.iterations() * kMessagesPerRun *
                          static_cast<std::int64_t>(payload));
  state.counters["ctx_switches"] = switches;
}

void BM_RequestReply(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  double switches = 0.0;
  for (auto _ : state) {
    Simulator sim;
    ship::ShipChannel ch(sim, "ch");
    sim.spawn_thread("m", [&] {
      ship::VectorMsg<> req(payload, 0x11), resp;
      for (int i = 0; i < kMessagesPerRun; ++i) ch.a().request(req, resp);
    });
    sim.spawn_thread("s", [&] {
      ship::VectorMsg<> m;
      for (int i = 0; i < kMessagesPerRun; ++i) {
        ch.b().recv(m);
        ch.b().reply(m);
      }
    });
    sim.run();
    switches = static_cast<double>(sim.ctx_switches());
  }
  state.SetItemsProcessed(state.iterations() * kMessagesPerRun);
  state.SetBytesProcessed(state.iterations() * kMessagesPerRun * 2 *
                          static_cast<std::int64_t>(payload));
  state.counters["ctx_switches"] = switches;
}

// Baseline: the cost of a bare coroutine handoff through the kernel (one
// event wait + notify round trip), to show SHIP's overhead on top.
void BM_RawHandoffBaseline(benchmark::State& state) {
  double switches = 0.0;
  for (auto _ : state) {
    Simulator sim;
    Event ping(sim, "ping"), pong(sim, "pong");
    sim.spawn_thread("a", [&] {
      for (int i = 0; i < kMessagesPerRun; ++i) {
        ping.notify_delta();
        wait(pong);
      }
    });
    sim.spawn_thread("b", [&] {
      for (int i = 0; i < kMessagesPerRun; ++i) {
        wait(ping);
        pong.notify_delta();
      }
    });
    sim.run();
    switches = static_cast<double>(sim.ctx_switches());
  }
  state.SetItemsProcessed(state.iterations() * kMessagesPerRun);
  state.counters["ctx_switches"] = switches;
}

}  // namespace

BENCHMARK(BM_SendRecv)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384)->Arg(65536);
BENCHMARK(BM_RequestReply)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_RawHandoffBaseline);

BENCHMARK_MAIN();
