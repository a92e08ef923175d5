// Kernel scheduling paths, one per row.
//
// Each row builds one small model per iteration, runs it to its end and
// reports the host time per resume of a process (or per clock edge),
// measured over the whole timed loop, setup included. The rows isolate
// the scheduler's paths:
//
//   BM_ImmediatePingPong  two threads hand an event back and forth by
//                         immediate notification: one evaluation phase,
//                         every resume a direct process-to-process switch
//   BM_DeltaPingPong      the same by delta notification: an update and a
//                         delta phase between resumes
//   BM_TimedWaiters       two threads waiting 1 ns each, in step, so
//                         every resume goes through the timed queue
//   BM_ClockEdgeFanout    four threads waiting on one clock's rising edge
//   BM_LoneClock          a clock and nothing else: method dispatches and
//                         signal updates, no thread at all
//   BM_MethodOnDeltaEvent a method that re-triggers itself by delta
//                         notification
//
// The counters ctx_switches (thread resumes), timed_pushes, deltas and
// inline_advances are simulated and deterministic, so
// bench/baselines/BENCH_kernel.baseline.json gates them exactly.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr int kRounds = 2048;

// Host time over a row's timed loop, and the last run's counters.
class Row {
public:
  explicit Row(benchmark::State& state)
      : state_(state), t0_(std::chrono::steady_clock::now()) {}

  // After each iteration's run: `units` resumes (or edges) in that run.
  void record(const Simulator& sim, std::uint64_t units) {
    units_ = static_cast<double>(units);
    ctx_switches_ = static_cast<double>(sim.ctx_switches());
    timed_pushes_ = static_cast<double>(sim.timed_queue().stats().pushes);
    deltas_ = static_cast<double>(sim.delta_count());
    inline_advances_ = static_cast<double>(sim.inline_advances());
  }

  void report(const char* per_unit) {
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
    const auto iters = static_cast<double>(state_.iterations());
    state_.counters[per_unit] = ns / (units_ * iters);
    state_.counters["ctx_switches"] = ctx_switches_;
    state_.counters["timed_pushes"] = timed_pushes_;
    state_.counters["deltas"] = deltas_;
    state_.counters["inline_advances"] = inline_advances_;
    state_.SetItemsProcessed(state_.iterations() *
                             static_cast<std::int64_t>(units_));
  }

private:
  benchmark::State& state_;
  std::chrono::steady_clock::time_point t0_;
  double units_ = 1.0;
  double ctx_switches_ = 0.0;
  double timed_pushes_ = 0.0;
  double deltas_ = 0.0;
  double inline_advances_ = 0.0;
};

// "b" parks on ping first, so no notification is lost.
template <class Notify>
void ping_pong(benchmark::State& state, Notify notify) {
  Row row(state);
  for (auto _ : state) {
    Simulator sim;
    Event ping(sim, "ping"), pong(sim, "pong");
    sim.spawn_thread("b", [&] {
      for (int i = 0; i < kRounds; ++i) {
        wait(ping);
        notify(pong);
      }
    });
    sim.spawn_thread("a", [&] {
      for (int i = 0; i < kRounds; ++i) {
        notify(ping);
        wait(pong);
      }
    });
    sim.run();
    row.record(sim, sim.ctx_switches());
  }
  row.report("ns_per_resume");
}

void BM_ImmediatePingPong(benchmark::State& state) {
  ping_pong(state, [](Event& e) { e.notify(); });
}

void BM_DeltaPingPong(benchmark::State& state) {
  ping_pong(state, [](Event& e) { e.notify_delta(); });
}

// Equal periods keep each waiter's wake-up behind the other's entry, so
// neither ever takes the lone-runner inline advance.
void BM_TimedWaiters(benchmark::State& state) {
  Row row(state);
  for (auto _ : state) {
    Simulator sim;
    for (const char* name : {"w0", "w1"}) {
      sim.spawn_thread(name, [] {
        for (int i = 0; i < kRounds; ++i) wait(1_ns);
      });
    }
    sim.run();
    row.record(sim, sim.ctx_switches());
  }
  row.report("ns_per_resume");
}

// kRounds rising edges: at 0, 10, ..., 10 * (kRounds - 1) ns.
Time clock_horizon() {
  return Time::ns(10 * static_cast<std::uint64_t>(kRounds)) - 1_ns;
}

void BM_ClockEdgeFanout(benchmark::State& state) {
  Row row(state);
  for (auto _ : state) {
    Simulator sim;
    Clock clk(sim, "clk", 10_ns);
    for (int t = 0; t < 4; ++t) {
      sim.spawn_thread("t" + std::to_string(t), [&clk] {
        while (true) wait(clk.posedge_event());
      });
    }
    sim.run_for(clock_horizon());
    row.record(sim, sim.ctx_switches());
  }
  row.report("ns_per_resume");
}

void BM_LoneClock(benchmark::State& state) {
  Row row(state);
  for (auto _ : state) {
    Simulator sim;
    Clock clk(sim, "clk", 10_ns);
    sim.run_for(clock_horizon());
    row.record(sim, 2 * clk.cycle_count());  // rising and falling edges
  }
  row.report("ns_per_edge");
}

void BM_MethodOnDeltaEvent(benchmark::State& state) {
  Row row(state);
  for (auto _ : state) {
    Simulator sim;
    Event ev(sim, "ev");
    std::uint64_t runs = 0;
    sim.spawn_method(
        "m",
        [&] {
          if (++runs < kRounds) ev.notify_delta();
        },
        {&ev});
    sim.run();
    row.record(sim, runs);
  }
  row.report("ns_per_resume");
}

}  // namespace

BENCHMARK(BM_ImmediatePingPong);
BENCHMARK(BM_DeltaPingPong);
BENCHMARK(BM_TimedWaiters);
BENCHMARK(BM_ClockEdgeFanout);
BENCHMARK(BM_LoneClock);
BENCHMARK(BM_MethodOnDeltaEvent);

BENCHMARK_MAIN();
