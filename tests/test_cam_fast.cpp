// Tests for the kernel fast path (fast-target contract): with
// `fast_targets` on, uncontended blocking transactions to fast-capable
// slaves resolve inline — no grant-engine wakeup, no coroutine switch — and
// every observable (simulated time, counters, rows, bank state
// evolution) stays bit-identical to the engine path. Contention
// falls back to the unchanged engine.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cam/cam.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "ocp/banked_memory.hpp"
#include "ocp/memory.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::time_literals;

namespace {

// Observables a fast run must reproduce bit-identically from a slow run.
struct RunResult {
  Time end = Time::zero();
  double mean_latency_ns = 0.0;
  double mean_service_ns = 0.0;
  double utilization = 0.0;
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fast_hits = 0;
};

enum class BusProto { Shared, Plb, Opb };

std::unique_ptr<CamBase> make_bus(Simulator& sim, BusProto proto, bool fast) {
  switch (proto) {
    case BusProto::Shared:
      return std::make_unique<SharedBusCam>(
          sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
          SplitConfig{}, fast);
    case BusProto::Plb:
      return std::make_unique<PlbCam>(sim, "bus", 10_ns,
                                      std::make_unique<PriorityArbiter>(), 0,
                                      SplitConfig{}, fast);
    case BusProto::Opb:
      return std::make_unique<OpbCam>(sim, "bus", 20_ns,
                                      std::make_unique<PriorityArbiter>(), 0,
                                      SplitConfig{}, fast);
  }
  return nullptr;
}

// `log` is the logger attached to `bus` for the whole run: the latency
// and service means come from its rows.
RunResult collect(Simulator& sim, const CamBase& bus,
                  const trace::TxnLogger& log) {
  const trace::LatencyDist d = trace::latency_dist(log.records());
  RunResult r;
  r.end = sim.now();
  r.mean_latency_ns = d.mean_ns;
  r.mean_service_ns = d.mean_service_ns;
  r.utilization = bus.utilization();
  r.transactions = bus.stats().counter("transactions");
  r.bytes = bus.stats().counter("bytes");
  r.fast_hits = bus.fast_path_hits();
  return r;
}

void expect_identical(const RunResult& fast, const RunResult& slow) {
  EXPECT_EQ(fast.end, slow.end);
  EXPECT_DOUBLE_EQ(fast.mean_latency_ns, slow.mean_latency_ns);
  EXPECT_DOUBLE_EQ(fast.mean_service_ns, slow.mean_service_ns);
  EXPECT_DOUBLE_EQ(fast.utilization, slow.utilization);
  EXPECT_EQ(fast.transactions, slow.transactions);
  EXPECT_EQ(fast.bytes, slow.bytes);
}

// The dispatch-order check (docs/ARCHITECTURE.md): a run under
// DispatchOrder::Reverse reproduces the Fifo run of the same path.
void expect_order_free(const RunResult& reverse, const RunResult& fifo,
                       const char* path) {
  SCOPED_TRACE(std::string(path) + ": Reverse vs Fifo");
  expect_identical(reverse, fifo);
}

// Single blocking master: writes and reads with think-time gaps against
// a memory with real service latency.
RunResult run_single_master(BusProto proto, bool fast, Time access_time) {
  Simulator sim;
  trace::TxnLogger log;
  auto bus = make_bus(sim, proto, fast);
  ocp::MemorySlave mem("mem", 0, 1 << 16, access_time);
  bus->attach_slave(mem, {0, 1 << 16}, "mem");
  const std::size_t m = bus->add_master("cpu");
  sim.spawn_thread("cpu", [&] {
    std::vector<std::uint8_t> payload(64, 7);
    Txn txn;
    for (int i = 0; i < 20; ++i) {
      txn.begin_write(static_cast<std::uint64_t>(i % 8) * 64, payload.data(),
                      payload.size());
      bus->master_port(m).transport(txn);
      wait(5_ns);  // think time: the bus goes idle between transactions
      txn.begin_read(static_cast<std::uint64_t>(i % 8) * 64, 64);
      bus->master_port(m).transport(txn);
      wait(5_ns);
    }
  });
  bus->set_txn_logger(&log);
  sim.run();
  return collect(sim, *bus, log);
}

}  // namespace

// Every CamBase protocol: the fast path reproduces the engine's timing
// and statistics bit-identically for uncontended traffic, with and
// without target service latency, and actually engages (hits > 0).
TEST(CamFast, SingleMasterBitIdenticalAcrossProtocols) {
  for (BusProto proto : {BusProto::Shared, BusProto::Plb, BusProto::Opb}) {
    for (Time access : {Time::zero(), Time::ns(50)}) {
      const RunResult slow = run_single_master(proto, false, access);
      const RunResult fast = run_single_master(proto, true, access);
      expect_identical(fast, slow);
      EXPECT_EQ(slow.fast_hits, 0u);
      EXPECT_EQ(fast.fast_hits, fast.transactions)
          << "an uncontended single master must stay on the fast path";
      EXPECT_EQ(fast.transactions, 40u);
    }
  }
}

// The posted (non-blocking) API always takes the grant engine, even on an
// idle fast bus; the run is bit-identical to the engine-only one.
TEST(CamFast, PostedTransactionsBitIdentical) {
  auto run = [](bool fast) {
    Simulator sim;
    trace::TxnLogger log;
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, fast);
    ocp::MemorySlave mem("mem", 0, 1 << 16, 30_ns);
    bus.attach_slave(mem, {0, 1 << 16}, "mem");
    const std::size_t m = bus.add_master("cpu");
    sim.spawn_thread("cpu", [&] {
      std::vector<std::uint8_t> payload(32, 3);
      Txn txn;
      for (int i = 0; i < 10; ++i) {
        txn.begin_write(static_cast<std::uint64_t>(i) * 32, payload.data(),
                        payload.size());
        bus.post(m, txn);
        txn.done.wait(sim);
        wait(7_ns);
      }
    });
    bus.set_txn_logger(&log);
    sim.run();
    return collect(sim, bus, log);
  };
  const RunResult slow = run(false);
  const RunResult fast = run(true);
  expect_identical(fast, slow);
  EXPECT_EQ(fast.fast_hits, 0u) << "posts never take the fast path";
}

// Banked memory: the fast path must evolve the bank state (free_at /
// open row) exactly as the waiting path does — row hits, row misses and
// bank-conflict stalls all land on the same cycle.
TEST(CamFast, BankedMemoryStateEvolutionBitIdentical) {
  auto run = [](bool fast) {
    Simulator sim;
    trace::TxnLogger log;
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, fast);
    ocp::BankedMemorySlave mem("dram", 0, 1 << 18);
    bus.attach_slave(mem, {0, 1 << 18}, "dram");
    const std::size_t m = bus.add_master("cpu");
    sim.spawn_thread("cpu", [&] {
      std::vector<std::uint8_t> payload(64, 5);
      Txn txn;
      // Mix of same-row hits, row switches, and same-bank back-to-back
      // conflicts (stride 256 with 4 banks x 64B interleave revisits
      // bank 0 every iteration).
      for (int i = 0; i < 30; ++i) {
        const std::uint64_t addr =
            (i % 3 == 0) ? static_cast<std::uint64_t>(i) * 256
                         : static_cast<std::uint64_t>(i % 7) * 64;
        txn.begin_write(addr, payload.data(), payload.size());
        bus.master_port(m).transport(txn);
        if (i % 4 == 0) wait(15_ns);
      }
    });
    bus.set_txn_logger(&log);
    sim.run();
    return collect(sim, bus, log);
  };
  const RunResult slow = run(false);
  const RunResult fast = run(true);
  expect_identical(fast, slow);
  EXPECT_GT(fast.fast_hits, 0u);
}

// Contention: while a fast transaction holds the bus, a second master's
// request falls back to the engine, which stalls behind the fast
// occupancy — total timing still bit-identical to the all-engine run.
// (The masters issue at different instants; same-delta issue is the one
// documented divergence and is pinned by FallbackKeepsDeterminism.)
TEST(CamFast, ContendedTrafficFallsBackBitIdentical) {
  auto run = [](bool fast, DispatchOrder order) {
    Simulator sim;
    sim.set_dispatch_order(order);
    trace::TxnLogger log;
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, fast);
    ocp::MemorySlave mem("mem", 0, 1 << 16, 40_ns);
    bus.attach_slave(mem, {0, 1 << 16}, "mem");
    const std::size_t m0 = bus.add_master("a");
    const std::size_t m1 = bus.add_master("b");
    sim.spawn_thread("a", [&] {
      std::vector<std::uint8_t> payload(64, 1);
      Txn txn;
      for (int i = 0; i < 12; ++i) {
        txn.begin_write(static_cast<std::uint64_t>(i % 8) * 64,
                        payload.data(), payload.size());
        bus.master_port(m0).transport(txn);
        wait(30_ns);
      }
    });
    sim.spawn_thread("b", [&] {
      wait(15_ns);  // issues mid-occupancy of a's first transaction
      std::vector<std::uint8_t> payload(32, 2);
      Txn txn;
      for (int i = 0; i < 12; ++i) {
        txn.begin_read(0x1000 + static_cast<std::uint64_t>(i % 4) * 32, 32);
        bus.master_port(m1).transport(txn);
        wait(10_ns);
      }
    });
    bus.set_txn_logger(&log);
    sim.run();
    return collect(sim, bus, log);
  };
  const RunResult slow = run(false, DispatchOrder::Fifo);
  const RunResult fast = run(true, DispatchOrder::Fifo);
  expect_identical(fast, slow);
  expect_order_free(run(false, DispatchOrder::Reverse), slow, "engine");
  expect_order_free(run(true, DispatchOrder::Reverse), fast, "fast path");
  // Some transactions ride the fast path (idle windows), some fall back
  // (contended windows) — both must occur for this test to mean much.
  EXPECT_GT(fast.fast_hits, 0u);
  EXPECT_LT(fast.fast_hits, fast.transactions);
}

// Occupancy-end boundary: master b's timed wake is registered *before*
// a's fast transaction exists and lands at exactly the instant a's bus
// occupancy ends — so b runs first at that timestamp, before a's own
// resume. b must still see the bus as taken (the in-flight guard, not
// just the strict fast_busy_until_ check) and fall back to the engine;
// otherwise two fast transactions overlap and bank-state evolution
// diverges from the engine run.
TEST(CamFast, OccupancyEndBoundaryContentionBitIdentical) {
  auto run = [](bool fast, DispatchOrder order) {
    Simulator sim;
    sim.set_dispatch_order(order);
    trace::TxnLogger log;
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, fast);
    ocp::BankedMemorySlave mem("dram", 0, 1 << 18);  // variable latency
    bus.attach_slave(mem, {0, 1 << 18}, "dram");
    const std::size_t m0 = bus.add_master("a");
    const std::size_t m1 = bus.add_master("b");
    // PLB @10ns, 8-byte width, 64-byte payload: a non-back-to-back
    // write occupies 2 + 8 = 10 cycles = 100 ns. b is spawned first so
    // its wait(100ns) gets the smaller timed sequence number and runs
    // before a's occupancy-end resume at the same instant.
    sim.spawn_thread("b", [&] {
      wait(100_ns);
      std::vector<std::uint8_t> p(64, 2);
      Txn t;
      for (int i = 0; i < 6; ++i) {
        t.begin_write(0x8000 + static_cast<std::uint64_t>(i) * 64, p.data(),
                      p.size());
        bus.master_port(m1).transport(t);
      }
    });
    sim.spawn_thread("a", [&] {
      std::vector<std::uint8_t> p(64, 1);
      Txn t;
      for (int i = 0; i < 6; ++i) {
        t.begin_write(static_cast<std::uint64_t>(i) * 256, p.data(),
                      p.size());
        bus.master_port(m0).transport(t);
        wait(40_ns);
      }
    });
    bus.set_txn_logger(&log);
    sim.run();
    return collect(sim, bus, log);
  };
  const RunResult slow = run(false, DispatchOrder::Fifo);
  const RunResult fast = run(true, DispatchOrder::Fifo);
  expect_identical(fast, slow);
  // Exactly, not within a few ULPs: "close" would hide order bugs.
  EXPECT_EQ(fast.mean_latency_ns, slow.mean_latency_ns);
  EXPECT_EQ(fast.mean_service_ns, slow.mean_service_ns);
  EXPECT_GT(fast.fast_hits, 0u);
  EXPECT_LT(fast.fast_hits, fast.transactions)
      << "the boundary-instant issue must fall back to the engine";
  // Neither path may depend on which co-runnable process goes first.
  expect_order_free(run(false, DispatchOrder::Reverse), slow, "engine");
  expect_order_free(run(true, DispatchOrder::Reverse), fast, "fast path");
}

// Completion-instant boundary (constant-latency target, which runs the
// same two-stage transport as any other): b wakes at exactly the
// instant a's fast transaction completes, before a's thread resumes.
// b must not read stale last-transaction state — the engine path would
// retire a first and then grant b with back-to-back timing.
TEST(CamFast, CompletionInstantBackToBackBitIdentical) {
  auto run = [](bool fast, DispatchOrder order) {
    Simulator sim;
    sim.set_dispatch_order(order);
    trace::TxnLogger log;
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, fast);
    ocp::MemorySlave mem("mem", 0, 1 << 16, 40_ns);  // two-stage transport
    bus.attach_slave(mem, {0, 1 << 16}, "mem");
    const std::size_t m0 = bus.add_master("a");
    const std::size_t m1 = bus.add_master("b");
    // a's first write: 10 cycles occupancy (100 ns) + 40 ns service —
    // completes at exactly 140 ns, where b's pre-registered wake lands.
    sim.spawn_thread("b", [&] {
      wait(140_ns);
      std::vector<std::uint8_t> p(64, 2);
      Txn t;
      for (int i = 0; i < 4; ++i) {
        t.begin_write(0x1000 + static_cast<std::uint64_t>(i) * 64, p.data(),
                      p.size());
        bus.master_port(m1).transport(t);
      }
    });
    sim.spawn_thread("a", [&] {
      std::vector<std::uint8_t> p(64, 1);
      Txn t;
      for (int i = 0; i < 4; ++i) {
        t.begin_write(static_cast<std::uint64_t>(i) * 64, p.data(), p.size());
        bus.master_port(m0).transport(t);
        wait(60_ns);
      }
    });
    bus.set_txn_logger(&log);
    sim.run();
    return collect(sim, bus, log);
  };
  const RunResult slow = run(false, DispatchOrder::Fifo);
  const RunResult fast = run(true, DispatchOrder::Fifo);
  expect_identical(fast, slow);
  EXPECT_GT(fast.fast_hits, 0u);
  expect_order_free(run(false, DispatchOrder::Reverse), slow, "engine");
  expect_order_free(run(true, DispatchOrder::Reverse), fast, "fast path");
}

// A utilization sample taken at the instant a fast transaction is
// granted. The bus charges occupancy when it has elapsed (the engine's
// convention), so the sample reads the same on both paths, whichever of
// sampler and master runs first there.
TEST(CamFast, UtilizationSampledAtGrantInstantIsOrderFree) {
  auto run = [](bool fast, DispatchOrder order) {
    Simulator sim;
    sim.set_dispatch_order(order);
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, fast);
    ocp::MemorySlave mem("mem", 0, 1 << 16, 40_ns);  // two-stage transport
    bus.attach_slave(mem, {0, 1 << 16}, "mem");
    const std::size_t m = bus.add_master("cpu");
    std::vector<double> samples;
    sim.spawn_thread("cpu", [&] {
      std::vector<std::uint8_t> p(64, 1);
      Txn t;
      wait(200_ns);
      t.begin_write(0, p.data(), p.size());
      bus.master_port(m).transport(t);
    });
    // Two hops to the grant instant: with one, Reverse would flip the
    // order of the two 200 ns wakes a second time and restore Fifo's.
    sim.spawn_thread("sampler", [&] {
      wait(100_ns);
      wait(100_ns);
      samples.push_back(bus.utilization());
    });
    sim.run();
    samples.push_back(bus.utilization());
    return std::make_pair(samples, bus.fast_path_hits());
  };
  const auto engine = run(false, DispatchOrder::Fifo);
  ASSERT_EQ(engine.first.size(), 2u);
  EXPECT_EQ(engine.first[0], 0.0) << "no occupancy has elapsed yet";
  const auto fast = run(true, DispatchOrder::Fifo);
  EXPECT_EQ(fast.second, 1u);
  EXPECT_EQ(fast.first, engine.first) << "fast path vs engine";
  EXPECT_EQ(run(true, DispatchOrder::Reverse).first, fast.first)
      << "fast path: Reverse vs Fifo";
  EXPECT_EQ(run(false, DispatchOrder::Reverse).first, engine.first)
      << "engine: Reverse vs Fifo";
}

// The documented divergence: two masters issuing in the same delta at
// the same instant are served first-issuer-first with fast on (the
// engine would let the arbiter rank them a delta later). The outcome
// must still be deterministic run-to-run.
TEST(CamFast, FallbackKeepsDeterminism) {
  auto run = [] {
    Simulator sim;
    trace::TxnLogger log;
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, /*fast_targets=*/true);
    ocp::MemorySlave mem("mem", 0, 1 << 16);
    bus.attach_slave(mem, {0, 1 << 16}, "mem");
    const std::size_t m0 = bus.add_master("a");
    const std::size_t m1 = bus.add_master("b");
    sim.spawn_thread("a", [&] {
      std::vector<std::uint8_t> p(64, 1);
      Txn t;
      t.begin_write(0, p.data(), p.size());
      bus.master_port(m0).transport(t);
    });
    sim.spawn_thread("b", [&] {
      std::vector<std::uint8_t> p(64, 2);
      Txn t;
      t.begin_write(0x100, p.data(), p.size());
      bus.master_port(m1).transport(t);
    });
    bus.set_txn_logger(&log);
    sim.run();
    return collect(sim, bus, log);
  };
  const RunResult first = run();
  const RunResult second = run();
  EXPECT_EQ(first.end, second.end);
  EXPECT_EQ(first.fast_hits, second.fast_hits);
  EXPECT_DOUBLE_EQ(first.mean_latency_ns, second.mean_latency_ns);
}

// Per-master latency distributions: every bus row carries its issuing
// master (TxnRecord::master), per_channel_stats groups by it, and the
// explorer's helper tells "<bus>.<master>" names apart from the bus
// channel.
TEST(CamFast, PerMasterChannelsCarryLatencyDistributions) {
  Simulator sim;
  trace::TxnLogger log;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  bus.set_txn_logger(&log);
  ocp::MemorySlave mem("mem", 0, 1 << 16);
  bus.attach_slave(mem, {0, 1 << 16}, "mem");
  const std::size_t m0 = bus.add_master("a");
  const std::size_t m1 = bus.add_master("b");
  sim.spawn_thread("a", [&] {
    std::vector<std::uint8_t> p(64, 1);
    Txn t;
    for (int i = 0; i < 3; ++i) {
      t.begin_write(static_cast<std::uint64_t>(i) * 64, p.data(), p.size());
      bus.master_port(m0).transport(t);
      wait(20_ns);
    }
  });
  sim.spawn_thread("b", [&] {
    wait(5_ns);
    std::vector<std::uint8_t> p(32, 2);
    Txn t;
    t.begin_read(0x200, 32);
    bus.master_port(m1).transport(t);
  });
  sim.run();

  // One row per transaction, all on the bus channel.
  ASSERT_EQ(log.size(), 4u);
  std::map<std::string, std::uint64_t> rows_of;
  for (const auto& r : log.records()) {
    EXPECT_EQ(log.channel_name(r.channel), "plb");
    ASSERT_NE(r.master, trace::kNoMaster);
    ++rows_of[log.channel_name(r.master)];
  }
  EXPECT_EQ(rows_of["plb.a"], 3u);
  EXPECT_EQ(rows_of["plb.b"], 1u);

  const auto stats = trace::per_channel_stats(log);
  const std::vector<std::string> labels{"a", "b"};
  double a_mean = -1.0, b_mean = -1.0;
  std::uint64_t bus_count = 0;
  for (const auto& c : stats) {
    if (c.channel == "plb") bus_count = c.dist.count;
    if (c.channel == "plb.a") a_mean = c.dist.mean_ns;
    if (c.channel == "plb.b") b_mean = c.dist.mean_ns;
    EXPECT_EQ(expl::is_master_channel(c.channel, "plb", labels),
              c.channel != "plb")
        << c.channel;
  }
  // Only registered master labels count: a channel that merely shares
  // the bus-name prefix (a hierarchical child, another module) stays in
  // the overall distribution.
  EXPECT_FALSE(expl::is_master_channel("plb.child", "plb", labels));
  EXPECT_FALSE(expl::is_master_channel("plb2.a", "plb", labels));
  EXPECT_TRUE(expl::is_master_channel("plb.a", "plb", labels));
  EXPECT_EQ(bus_count, 4u);
  EXPECT_GT(b_mean, a_mean) << "b queued behind a and must show it";
}
