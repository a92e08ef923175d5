// Stress and property tests for the CAM library: randomized multi-master
// multi-slave traffic checked against analytic invariants, bridge
// topologies under load, and failure injection (bus errors mid-stream).
#include <gtest/gtest.h>

#include <random>

#include "cam/cam.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::time_literals;

namespace {

struct StressParams {
  std::size_t masters;
  std::size_t slaves;
  unsigned seed;
};

class CamStress : public ::testing::TestWithParam<StressParams> {};

}  // namespace

TEST_P(CamStress, RandomTrafficInvariantsHold) {
  const auto [masters, slaves, seed] = GetParam();
  Simulator sim;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<RoundRobinArbiter>());
  std::vector<std::unique_ptr<ocp::MemorySlave>> mems;
  for (std::size_t s = 0; s < slaves; ++s) {
    const std::uint64_t base = 0x10000ull * s;
    mems.push_back(
        std::make_unique<ocp::MemorySlave>("mem" + std::to_string(s), base,
                                           0x10000));
    bus.attach_slave(*mems.back(), {base, 0x10000}, "mem" + std::to_string(s));
  }

  constexpr int kTxnsPerMaster = 60;
  std::uint64_t expected_bytes = 0;
  int completed = 0;
  int failures = 0;

  for (std::size_t m = 0; m < masters; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::mt19937 rng(seed + static_cast<unsigned>(m));
      std::uniform_int_distribution<int> len(1, 256);
      std::uniform_int_distribution<std::size_t> pick_slave(0, slaves - 1);
      std::uniform_int_distribution<int> off(0, 0xf000);
      for (int i = 0; i < kTxnsPerMaster; ++i) {
        const auto n = static_cast<std::size_t>(len(rng));
        const std::uint64_t addr =
            0x10000ull * pick_slave(rng) + static_cast<std::uint64_t>(off(rng));
        std::vector<std::uint8_t> payload(n, static_cast<std::uint8_t>(i));
        expected_bytes += n;
        auto wr = bus.master_port(idx).transport(
            ocp::Request::write(addr, payload));
        if (!wr.good()) ++failures;
        // Read back a prefix and verify it (another master may have
        // overwritten it, but the response must be well-formed).
        auto rd = bus.master_port(idx).transport(
            ocp::Request::read(addr, static_cast<std::uint32_t>(n)));
        expected_bytes += n;
        if (!rd.good() || rd.data.size() != n) ++failures;
        ++completed;
      }
    });
  }
  sim.run();

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(completed, static_cast<int>(masters) * kTxnsPerMaster);
  // Invariants: the bus counted every transaction and every byte.
  EXPECT_EQ(bus.stats().counter("transactions"),
            2ull * masters * kTxnsPerMaster);
  EXPECT_EQ(bus.stats().counter("bytes"), expected_bytes);
  // Utilization is a valid fraction under load.
  EXPECT_GT(bus.utilization(), 0.0);
  EXPECT_LE(bus.utilization(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CamStress,
    ::testing::Values(StressParams{1, 1, 11}, StressParams{2, 1, 22},
                      StressParams{4, 2, 33}, StressParams{8, 4, 44}));

TEST(CamStressMisc, BridgeUnderConcurrentLoad) {
  // Two masters on the PLB: one hits a fast PLB memory, the other hammers
  // through the bridge into OPB space. Both finish; bridge counts match.
  Simulator sim;
  PlbCam plb(sim, "plb", 10_ns, std::make_unique<RoundRobinArbiter>());
  OpbCam opb(sim, "opb", 20_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave fast("fast", 0x00000, 0x1000);
  ocp::MemorySlave slow("slow", 0x80000, 0x1000);
  plb.attach_slave(fast, {0x00000, 0x1000}, "fast");
  opb.attach_slave(slow, {0x80000, 0x1000}, "slow");
  BusBridge bridge(sim, "bridge", opb, 2);
  plb.attach_slave(bridge, {0x80000, 0x1000}, "bridge");

  const std::size_t m0 = plb.add_master("direct");
  const std::size_t m1 = plb.add_master("bridged");
  int errors = 0;
  sim.spawn_thread("direct", [&] {
    for (int i = 0; i < 40; ++i) {
      if (!plb.master_port(m0)
               .transport(ocp::Request::write(
                   static_cast<std::uint64_t>(8 * (i % 64)),
                   {1, 2, 3, 4, 5, 6, 7, 8}))
               .good()) {
        ++errors;
      }
    }
  });
  sim.spawn_thread("bridged", [&] {
    for (int i = 0; i < 40; ++i) {
      if (!plb.master_port(m1)
               .transport(ocp::Request::write(
                   0x80000 + static_cast<std::uint64_t>(8 * (i % 64)),
                   {9, 9, 9, 9}))
               .good()) {
        ++errors;
      }
    }
  });
  sim.run();
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(bridge.forwarded(), 40u);
  EXPECT_EQ(slow.writes(), 40u);
  EXPECT_EQ(fast.writes(), 40u);
}

TEST(CamStressMisc, ErrorsMidStreamDoNotWedgeTheBus) {
  // Failure injection: every third transaction targets an unmapped
  // address. The bus must return Err for those and keep serving the rest.
  Simulator sim;
  SharedBusCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x1000);
  bus.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = bus.add_master("pe");
  int ok = 0, err = 0;
  sim.spawn_thread("pe", [&] {
    for (int i = 0; i < 30; ++i) {
      const std::uint64_t addr =
          (i % 3 == 2) ? 0xdead0000ull : static_cast<std::uint64_t>(4 * i);
      auto r = bus.master_port(m).transport(
          ocp::Request::write(addr, {1, 2, 3, 4}));
      r.good() ? ++ok : ++err;
    }
  });
  sim.run();
  EXPECT_EQ(ok, 20);
  EXPECT_EQ(err, 10);
  EXPECT_EQ(bus.stats().counter("decode_errors"), 10u);
}

TEST(CamStressMisc, CrossbarRandomTargetsAllComplete) {
  Simulator sim;
  CrossbarCam xbar(sim, "xbar", 10_ns);
  std::vector<std::unique_ptr<ocp::MemorySlave>> mems;
  for (int s = 0; s < 4; ++s) {
    const std::uint64_t base = 0x10000ull * static_cast<std::uint64_t>(s);
    mems.push_back(std::make_unique<ocp::MemorySlave>(
        "mem" + std::to_string(s), base, 0x10000));
    xbar.attach_slave(*mems.back(), {base, 0x10000}, "mem" + std::to_string(s));
  }
  int done = 0;
  for (int m = 0; m < 4; ++m) {
    const std::size_t idx = xbar.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::mt19937 rng(static_cast<unsigned>(m) * 7 + 1);
      std::uniform_int_distribution<std::uint64_t> slave(0, 3);
      for (int i = 0; i < 50; ++i) {
        const std::uint64_t addr = 0x10000ull * slave(rng) +
                                   static_cast<std::uint64_t>((i * 64) % 0xf000);
        ASSERT_TRUE(xbar.master_port(idx)
                        .transport(ocp::Request::write(
                            addr, std::vector<std::uint8_t>(64, 1)))
                        .good());
      }
      ++done;
    });
  }
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(xbar.stats().counter("transactions"), 200u);
}

TEST(CamStressMisc, TdmaBoundsWorstCaseLatencyVsPriority) {
  // Under saturation, the worst master's mean latency with TDMA must not
  // exceed its latency under static priority (where it is served last).
  auto run = [&](int arb_kind) {
    Simulator sim;
    trace::TxnLogger log;
    std::unique_ptr<Arbiter> arb;
    if (arb_kind == 0) {
      arb = std::make_unique<PriorityArbiter>();
    } else {
      arb = std::make_unique<TdmaArbiter>(std::vector<std::size_t>{0, 1, 2, 3},
                                          8);
    }
    PlbCam bus(sim, "plb", 10_ns, std::move(arb));
    bus.set_txn_logger(&log);
    ocp::MemorySlave mem("mem", 0, 1 << 20);
    bus.attach_slave(mem, {0, 1 << 20}, "mem");
    for (int m = 0; m < 4; ++m) {
      const std::size_t idx = bus.add_master("m" + std::to_string(m));
      sim.spawn_thread("pe" + std::to_string(m), [&bus, m, idx] {
        for (int i = 0; i < 100; ++i) {
          bus.master_port(idx).transport(ocp::Request::write(
              static_cast<std::uint64_t>(m) << 12,
              std::vector<std::uint8_t>(64, 0)));
        }
      });
    }
    sim.run();
    for (const auto& c : trace::per_channel_stats(log)) {
      if (c.channel == "plb.m3") return c.dist.mean_ns;
    }
    ADD_FAILURE() << "no rows for master m3";
    return 0.0;
  };
  const double prio_worst = run(0);
  const double tdma_worst = run(1);
  EXPECT_LE(tdma_worst, prio_worst * 1.05);
}
