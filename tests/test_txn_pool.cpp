// Tests for the pooled transaction hot path: CompletionEvent semantics,
// TxnQueue/TxnPool mechanics, and the timing-accuracy regression guard
// that pins the CAM hot path to (a) bit-identical simulated timing between
// the value-typed compat API and the reusable-Txn API and (b) zero
// per-transaction event registration or descriptor allocation in steady
// state.
#include <gtest/gtest.h>

#include "cam/cam.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::time_literals;

// ------------------------------------------------------ CompletionEvent --

TEST(CompletionEvent, CompleteWakesWaiterImmediately) {
  Simulator sim;
  CompletionEvent ev;
  std::uint64_t wake_delta = 999;
  sim.spawn_thread("waiter", [&] {
    ev.wait(sim);
    wake_delta = sim.delta_count();
  });
  sim.spawn_thread("completer", [&] { ev.complete(sim); });
  sim.run();
  EXPECT_EQ(wake_delta, 0u);  // immediate, like Event::notify()
}

TEST(CompletionEvent, CompleteBeforeWaitReturnsWithoutBlocking) {
  Simulator sim;
  CompletionEvent ev;
  ev.complete(sim);  // no waiter yet
  bool returned = false;
  sim.spawn_thread("waiter", [&] {
    ev.wait(sim);
    returned = true;
  });
  sim.run();
  EXPECT_TRUE(returned);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(CompletionEvent, RegistersNoSimulatorEvents) {
  Simulator sim;
  const std::uint64_t before = sim.events_registered_total();
  CompletionEvent ev;
  sim.spawn_thread("waiter", [&] { ev.wait(sim); });
  sim.spawn_thread("completer", [&] {
    wait(5_ns);
    ev.complete(sim);
  });
  sim.run();
  EXPECT_EQ(sim.events_registered_total(), before);
}

// ------------------------------------------------------- queue and pool --

TEST(TxnQueue, FifoOrderAndIntrusiveLinks) {
  TxnQueue q;
  Txn a, b, c;
  EXPECT_TRUE(q.empty());
  q.push_back(a);
  q.push_back(b);
  q.push_back(c);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop_front(), &a);
  EXPECT_EQ(q.pop_front(), &b);
  q.push_back(a);  // relink after pop
  EXPECT_EQ(q.pop_front(), &c);
  EXPECT_EQ(q.pop_front(), &a);
  EXPECT_EQ(q.pop_front(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(TxnPool, RecyclesDescriptorsAndPayloadCapacity) {
  TxnPool pool;
  Txn& a = pool.acquire();
  a.begin_write(0x10, std::vector<std::uint8_t>(256, 1).data(), 256);
  const std::uint8_t* payload_storage = a.data.data();
  pool.release(a);

  Txn& b = pool.acquire();
  EXPECT_EQ(&a, &b);  // free list returns the same descriptor
  EXPECT_TRUE(b.data.empty());
  EXPECT_GE(b.data.capacity(), 256u);  // capacity survived the release
  b.begin_write(0x10, std::vector<std::uint8_t>(256, 2).data(), 256);
  EXPECT_EQ(b.data.data(), payload_storage);  // no reallocation
  pool.release(b);

  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.acquired(), 2u);
  EXPECT_EQ(pool.outstanding(), 0u);
}

// ------------------------------------------- CAM utilization guard ------

TEST(CamUtilization, ZeroBeforeAnySimulatedTime) {
  Simulator sim;
  cam::PlbCam bus(sim, "plb", 10_ns,
                  std::make_unique<cam::RoundRobinArbiter>());
  // No time has elapsed: must report an idle bus, not divide by zero.
  EXPECT_EQ(bus.utilization(), 0.0);
}

// ------------------------------------- pooled hot path regression guard --

namespace {

struct RunResult {
  Time finished;
  std::uint64_t transactions;
  std::uint64_t bytes;
  double latency_sum_ns = 0.0;  // row order
  double latency_mean_ns;
  double utilization;
  std::uint64_t events_registered_during_run;
  std::uint64_t pool_created;
};

constexpr std::size_t kMasters = 4;
constexpr int kTxns = 250;
constexpr std::size_t kPayload = 64;

// Drives kMasters x kTxns 64-byte writes through a PLB-class CAM. When
// `use_txn_api` each master reuses one stack descriptor (the hot path);
// otherwise every transaction goes through the value-typed compat API.
RunResult run_scenario(bool use_txn_api) {
  Simulator sim;
  trace::TxnLogger log;
  cam::PlbCam bus(sim, "plb", 10_ns,
                  std::make_unique<cam::RoundRobinArbiter>());
  bus.set_txn_logger(&log);
  ocp::MemorySlave mem("mem", 0, 1 << 20);
  bus.attach_slave(mem, {0, 1 << 20}, "mem");
  for (std::size_t m = 0; m < kMasters; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::vector<std::uint8_t> payload(kPayload,
                                        static_cast<std::uint8_t>(m));
      Txn txn;
      for (int i = 0; i < kTxns; ++i) {
        const std::uint64_t addr =
            (m << 12) + static_cast<std::uint64_t>(i % 32) * kPayload;
        if (use_txn_api) {
          txn.begin_write(addr, payload.data(), payload.size());
          bus.master_port(idx).transport(txn);
          ASSERT_TRUE(txn.ok());
        } else {
          auto r = bus.master_port(idx).transport(
              ocp::Request::write(addr, payload));
          ASSERT_TRUE(r.good());
        }
      }
    });
  }
  const std::uint64_t events_before = sim.events_registered_total();
  sim.run();
  RunResult r;
  r.finished = sim.now();
  r.transactions = bus.stats().counter("transactions");
  r.bytes = bus.stats().counter("bytes");
  for (const auto& row : log.records()) r.latency_sum_ns += row.latency_ns();
  r.latency_mean_ns = trace::latency_dist(log.records()).mean_ns;
  r.utilization = bus.utilization();
  r.events_registered_during_run =
      sim.events_registered_total() - events_before;
  r.pool_created = sim.txn_pool().created();
  return r;
}

}  // namespace

TEST(PooledTxnStress, TimingIsBitIdenticalAcrossApisAndMatchesCcatbModel) {
  const RunResult fast = run_scenario(/*use_txn_api=*/true);
  const RunResult compat = run_scenario(/*use_txn_api=*/false);

  // Identical simulated behaviour regardless of API (the compat shims are
  // views onto the same hot path).
  EXPECT_EQ(fast.finished, compat.finished);
  EXPECT_EQ(fast.transactions, compat.transactions);
  EXPECT_EQ(fast.bytes, compat.bytes);
  EXPECT_DOUBLE_EQ(fast.latency_sum_ns, compat.latency_sum_ns);
  EXPECT_DOUBLE_EQ(fast.latency_mean_ns, compat.latency_mean_ns);
  EXPECT_DOUBLE_EQ(fast.utilization, compat.utilization);

  // Analytic CCATB golden values (PLB, 10 ns cycle, 64-byte writes = 8
  // beats on the 64-bit data path): the first transaction pays 2 setup
  // cycles + 8 beats = 100 ns; every back-to-back successor hides the
  // setup and pays 80 ns. These constants pin the timing model: any
  // refactor that shifts them is a timing-accuracy regression.
  const std::uint64_t total = kMasters * static_cast<std::uint64_t>(kTxns);
  EXPECT_EQ(fast.transactions, total);
  EXPECT_EQ(fast.finished, Time::ns(20 + 80 * total));
  EXPECT_DOUBLE_EQ(fast.utilization, 1.0);
}

TEST(PooledTxnStress, SteadyStateHasZeroEventAndAllocationChurn) {
  const RunResult fast = run_scenario(/*use_txn_api=*/true);
  // The whole run — 1000 transactions — must register zero Events with
  // the simulator (the seed registered/unregistered one per transaction)
  // and must never touch the descriptor pool (masters reuse stack Txns).
  EXPECT_EQ(fast.events_registered_during_run, 0u);
  EXPECT_EQ(fast.pool_created, 0u);

  // The compat API may stage through the pool, but concurrency is bounded
  // by the number of masters, so the pool must not grow past it —
  // i.e. steady-state traffic recycles descriptors instead of allocating.
  const RunResult compat = run_scenario(/*use_txn_api=*/false);
  EXPECT_EQ(compat.events_registered_during_run, 0u);
  EXPECT_LE(compat.pool_created, kMasters);
}

// -------------------------------------------------- bridge forwarding --

TEST(PooledTxn, BridgeForwardsOnAPooledDescriptorOfItsOwn) {
  // Two-tier CoreConnect topology: the initiator's descriptor stays on
  // the PLB while the bridge carries the access across the OPB on a
  // pooled descriptor of its own, recycled between the two accesses.
  Simulator sim;
  cam::PlbCam plb(sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>());
  cam::OpbCam opb(sim, "opb", 20_ns, std::make_unique<cam::PriorityArbiter>());
  cam::BusBridge bridge(sim, "bridge", opb);
  ocp::MemorySlave mem("mem", 0x8000, 0x1000);
  opb.attach_slave(mem, {0x8000, 0x1000}, "mem");
  plb.attach_slave(bridge, {0x8000, 0x1000}, "opb_window");
  const std::size_t m = plb.add_master("cpu");

  bool ok = false;
  std::vector<std::uint8_t> readback;
  sim.spawn_thread("cpu", [&] {
    Txn txn;
    txn.begin_write(0x8010, std::vector<std::uint8_t>{1, 2, 3, 4}.data(), 4);
    plb.master_port(m).transport(txn);
    ok = txn.ok();
    txn.begin_read(0x8010, 4);
    plb.master_port(m).transport(txn);
    ok = ok && txn.ok();
    readback = txn.resp_data;
  });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(readback, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(bridge.forwarded(), 2u);
  EXPECT_EQ(plb.stats().counter("transactions"), 2u);
  EXPECT_EQ(opb.stats().counter("transactions"), 2u);
  EXPECT_EQ(sim.txn_pool().created(), 1u);
  EXPECT_EQ(sim.txn_pool().outstanding(), 0u);
}
