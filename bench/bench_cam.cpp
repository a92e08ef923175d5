// E5 — CAM contention & arbitration (paper §3: CAMs are CCATB-accurate).
//
// N masters hammer a PLB-class bus with 64-byte writes under three
// arbitration policies. Reported per configuration: simulated completion
// time, bus utilization, and mean per-master latency. Expected shape:
// completion time grows ~linearly with master count (single shared
// resource); priority starves the low-priority master (max latency grows)
// while round-robin keeps latencies even; TDMA bounds worst-case latency
// at some bandwidth cost.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "cam/cam.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr int kTxnsPerMaster = 200;
constexpr std::size_t kPayload = 64;

std::unique_ptr<cam::Arbiter> make_arbiter(int kind, std::size_t masters) {
  switch (kind) {
    case 0: return std::make_unique<cam::PriorityArbiter>();
    case 1: return std::make_unique<cam::RoundRobinArbiter>();
    default: {
      std::vector<std::size_t> table(masters);
      for (std::size_t i = 0; i < masters; ++i) table[i] = i;
      return std::make_unique<cam::TdmaArbiter>(table, 16);
    }
  }
}

const char* arb_name(int kind) {
  return kind == 0 ? "priority" : kind == 1 ? "round-robin" : "tdma";
}

// Single-master uncontended roundtrips — the kernel fast path's home
// turf. fast=0 takes the grant engine (a timed-queue wakeup plus two
// coroutine switches per transaction); fast=1 resolves the identical
// timing inline from the initiator's coroutine. Simulated time is the
// same in both rows; the wall-clock ratio is pure kernel overhead
// removed by fast targets.
void BM_CamRoundtrip(benchmark::State& state) {
  const bool fast = state.range(0) != 0;
  constexpr int kRoundtrips = 4000;
  double sim_us = 0.0;
  double fast_hits = 0.0;

  for (auto _ : state) {
    Simulator sim;
    cam::PlbCam bus(sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>(),
                    0, {}, fast);
    ocp::MemorySlave mem("mem", 0, 1 << 20);
    bus.attach_slave(mem, {0, 1 << 20}, "mem");
    const std::size_t idx = bus.add_master("m0");
    sim.spawn_thread("pe", [&] {
      std::vector<std::uint8_t> payload(kPayload, 1);
      Txn txn;
      for (int i = 0; i < kRoundtrips; ++i) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(i % 32) * kPayload;
        txn.begin_write(addr, payload.data(), payload.size());
        bus.master_port(idx).transport(txn);
      }
    });
    sim.run();
    sim_us = sim.now().to_seconds() * 1e6;
    fast_hits = static_cast<double>(bus.fast_path_hits());
  }

  state.SetLabel(fast ? "fast" : "engine");
  state.SetItemsProcessed(state.iterations() * kRoundtrips);
  state.counters["sim_us"] = sim_us;
  state.counters["fast_hits"] = fast_hits;
}

// Simulated outcome of one run (the timed loop keeps the last one).
struct RunOut {
  double sim_us = 0.0;
  double util = 0.0;
  double ctx_switches = 0.0;
};

RunOut finish_run(Simulator& sim, const cam::PlbCam& bus) {
  RunOut out;
  out.sim_us = sim.now().to_seconds() * 1e6;
  out.util = bus.utilization();
  out.ctx_switches = static_cast<double>(sim.ctx_switches());
  return out;
}

// Latency figures of one run, from its rows: the mean over all rows, the
// worst per-master mean, and the queueing (issue -> grant) and service
// (grant -> completion) means. Rows come from one extra, untimed run
// with a logger attached, so the timed loop stays logger-free.
struct RowFigures {
  double mean_lat = 0.0;
  double worst_master_lat = 0.0;
  double mean_queue = 0.0;
  double mean_service = 0.0;
};

RowFigures row_figures(const trace::TxnLogger& log, const std::string& bus) {
  const trace::LatencyDist d = trace::latency_dist(log.records());
  RowFigures f;
  f.mean_lat = d.mean_ns;
  f.mean_queue = d.mean_queue_ns;
  f.mean_service = d.mean_service_ns;
  for (const auto& c : trace::per_channel_stats(log)) {
    if (c.channel != bus) {
      f.worst_master_lat = std::max(f.worst_master_lat, c.dist.mean_ns);
    }
  }
  return f;
}

// N masters hammer a PLB-class bus with 64-byte writes; `log`, when
// set, receives every transaction's row.
RunOut run_contention(std::size_t masters, int arb_kind,
                      trace::TxnLogger* log) {
  Simulator sim;
  cam::PlbCam bus(sim, "plb", 10_ns, make_arbiter(arb_kind, masters));
  bus.set_txn_logger(log);
  ocp::MemorySlave mem("mem", 0, 1 << 20);
  bus.attach_slave(mem, {0, 1 << 20}, "mem");
  for (std::size_t m = 0; m < masters; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::vector<std::uint8_t> payload(kPayload,
                                        static_cast<std::uint8_t>(m));
      // Hot path: one reusable descriptor per master — zero allocation
      // and zero event-registry churn per transaction.
      Txn txn;
      for (int i = 0; i < kTxnsPerMaster; ++i) {
        const std::uint64_t addr =
            (m << 12) + static_cast<std::uint64_t>(i % 32) * kPayload;
        txn.begin_write(addr, payload.data(), payload.size());
        bus.master_port(idx).transport(txn);
      }
    });
  }
  sim.run();
  return finish_run(sim, bus);
}

void BM_Contention(benchmark::State& state) {
  const auto masters = static_cast<std::size_t>(state.range(0));
  const int arb_kind = static_cast<int>(state.range(1));
  RunOut run;
  for (auto _ : state) run = run_contention(masters, arb_kind, nullptr);
  trace::TxnLogger log;
  run_contention(masters, arb_kind, &log);
  const RowFigures f = row_figures(log, "plb");

  state.SetLabel(arb_name(arb_kind));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(masters) *
                          kTxnsPerMaster);
  state.counters["sim_us"] = run.sim_us;
  state.counters["bus_util"] = run.util;
  state.counters["mean_lat_ns"] = f.mean_lat;
  state.counters["worst_master_lat_ns"] = f.worst_master_lat;
}

// N masters keep a window of `outstanding` posted 64-byte writes against
// a PLB whose memory target has real service latency; `log`, when set,
// receives every transaction's row.
RunOut run_split(std::size_t masters, std::size_t outstanding,
                 trace::TxnLogger* log) {
  const cam::SplitConfig split{outstanding > 1, outstanding};
  Simulator sim;
  cam::PlbCam bus(sim, "plb", 10_ns, std::make_unique<cam::RoundRobinArbiter>(),
                  0, split);
  bus.set_txn_logger(log);
  ocp::MemorySlave mem("mem", 0, 1 << 20, /*access_time=*/200_ns);
  bus.attach_slave(mem, {0, 1 << 20}, "mem");
  for (std::size_t m = 0; m < masters; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::vector<std::uint8_t> payload(kPayload,
                                        static_cast<std::uint8_t>(m));
      // Sliding window of `outstanding` reusable descriptors.
      std::vector<Txn> txns(outstanding);
      for (int i = 0; i < kTxnsPerMaster; ++i) {
        Txn& t = txns[static_cast<std::size_t>(i) % outstanding];
        if (static_cast<std::size_t>(i) >= outstanding) t.done.wait(sim);
        const std::uint64_t addr =
            (m << 12) + static_cast<std::uint64_t>(i % 32) * kPayload;
        t.begin_write(addr, payload.data(), payload.size());
        bus.post(idx, t);
      }
      for (auto& t : txns) t.done.wait(sim);
    });
  }
  sim.run();
  return finish_run(sim, bus);
}

// Split/out-of-order mode: outstanding == 1 runs the atomic engine (the
// seed timing); deeper windows engage the split engine — address/data
// phases pipeline and target service runs off the bus, so simulated
// completion time (sim_us) drops while the transaction count stays
// fixed. The sim_us ratio between /1 and /4 rows is the simulated-
// throughput gain the split mode exists for.
void BM_SplitOutstanding(benchmark::State& state) {
  const auto masters = static_cast<std::size_t>(state.range(0));
  const auto outstanding = static_cast<std::size_t>(state.range(1));
  RunOut run;
  for (auto _ : state) run = run_split(masters, outstanding, nullptr);
  trace::TxnLogger log;
  run_split(masters, outstanding, &log);
  const RowFigures f = row_figures(log, "plb");

  state.SetLabel(outstanding > 1 ? "split" : "atomic");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(masters) *
                          kTxnsPerMaster);
  state.counters["sim_us"] = run.sim_us;
  state.counters["bus_util"] = run.util;
  state.counters["mean_lat_ns"] = f.mean_lat;
  // The queue/service split: a deep posted window inflates end-to-end
  // latency with queueing while the service span stays flat — the
  // number that says the split bus did not get slower, it got deeper.
  state.counters["mean_queue_ns"] = f.mean_queue;
  state.counters["mean_service_ns"] = f.mean_service;
  // Coroutine resumes of one run: deterministic, and the number that
  // shows whether a granted split transaction wakes one service worker
  // or the whole pool (it then grows with the window depth).
  state.counters["ctx_switches"] = run.ctx_switches;
}

// Crossbar lanes: N masters write 64-byte payloads across four memory
// lanes, master m moving to the next lane every m + 1 writes, so the
// masters drift in and out of each other's lanes and contend there. outstanding == 1 runs the
// atomic route through the blocking access point; deeper windows post
// into the split lane engines. sim_us and ctx_switches are simulated
// and exact, like the PLB rows above.
void BM_Crossbar(benchmark::State& state) {
  const auto masters = static_cast<std::size_t>(state.range(0));
  const auto outstanding = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kLanes = 4;
  constexpr std::uint64_t kLaneBytes = 1 << 16;
  const cam::SplitConfig split{outstanding > 1, outstanding};
  double sim_us = 0.0, ctx_switches = 0.0;

  for (auto _ : state) {
    Simulator sim;
    cam::CrossbarCam xbar(sim, "xbar", 10_ns, 8, split);
    std::vector<std::unique_ptr<ocp::MemorySlave>> mems;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::string name = "mem" + std::to_string(l);
      mems.push_back(std::make_unique<ocp::MemorySlave>(
          name, l * kLaneBytes, kLaneBytes, /*access_time=*/20_ns));
      xbar.attach_slave(*mems.back(), {l * kLaneBytes, kLaneBytes}, name);
    }
    for (std::size_t m = 0; m < masters; ++m) {
      const std::size_t idx = xbar.add_master("m" + std::to_string(m));
      sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
        std::vector<std::uint8_t> payload(kPayload,
                                          static_cast<std::uint8_t>(m));
        std::vector<Txn> txns(outstanding);
        for (int i = 0; i < kTxnsPerMaster; ++i) {
          const auto n = static_cast<std::size_t>(i);
          const std::uint64_t addr = (n / (m + 1) % kLanes) * kLaneBytes +
                                     (m << 10) + (n % 16) * kPayload;
          Txn& t = txns[n % outstanding];
          if (outstanding == 1) {
            t.begin_write(addr, payload.data(), payload.size());
            xbar.master_port(idx).transport(t);
            continue;
          }
          if (n >= outstanding) t.done.wait(sim);
          t.begin_write(addr, payload.data(), payload.size());
          xbar.post(idx, t);
        }
        if (outstanding > 1) {
          for (auto& t : txns) t.done.wait(sim);
        }
      });
    }
    sim.run();
    sim_us = sim.now().to_seconds() * 1e6;
    ctx_switches = static_cast<double>(sim.ctx_switches());
  }

  state.SetLabel(outstanding > 1 ? "split" : "atomic");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(masters) *
                          kTxnsPerMaster);
  state.counters["sim_us"] = sim_us;
  state.counters["ctx_switches"] = ctx_switches;
}

}  // namespace

BENCHMARK(BM_CamRoundtrip)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Contention)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SplitOutstanding)
    ->ArgsProduct({{1, 2, 4}, {1, 4, 8}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Crossbar)
    ->ArgsProduct({{1, 2, 4}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
