// Tests for the banked memory target: row hit/miss timing, bank-conflict
// serialization, and seeded multi-master contention over a CAM.
#include <gtest/gtest.h>

#include "cam/cam.hpp"
#include "kernel/kernel.hpp"
#include "ocp/banked_memory.hpp"
#include "ocp/memory.hpp"
#include "workload/rng.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::time_literals;

namespace {

ocp::BankedMemoryConfig test_cfg() {
  ocp::BankedMemoryConfig cfg;
  cfg.banks = 4;
  cfg.interleave_bytes = 64;
  cfg.row_bytes = 1024;
  cfg.row_hit = 20_ns;
  cfg.row_miss = 60_ns;
  cfg.bank_busy = 40_ns;
  return cfg;
}

// Issue one write of `n` bytes at `addr` directly (no bus), returning the
// simulated time it took.
Time timed_write(Simulator& sim, ocp::BankedMemorySlave& mem,
                 std::uint64_t addr, std::size_t n) {
  Time elapsed = Time::zero();
  sim.spawn_thread("m", [&] {
    std::vector<std::uint8_t> payload(n, 0xcd);
    Txn t;
    t.begin_write(addr, payload.data(), payload.size());
    const Time start = sim.now();
    wait(mem.handle(t));
    EXPECT_TRUE(t.ok());
    elapsed = sim.now() - start;
  });
  sim.run();
  return elapsed;
}

}  // namespace

TEST(BankedMemory, RowMissThenHitTiming) {
  Simulator sim;
  ocp::BankedMemorySlave mem("ddr", 0x0, 0x10000, test_cfg());
  // First access opens the row: miss. Same row again: hit. Different row,
  // same bank: miss again.
  sim.spawn_thread("m", [&] {
    std::uint8_t b = 1;
    Txn t;
    t.begin_write(0x0, &b, 1);
    Time start = sim.now();
    wait(mem.handle(t));
    EXPECT_EQ((sim.now() - start), 60_ns);  // cold row: miss

    wait(100_ns);  // let the bank go idle
    t.begin_write(0x4, &b, 1);
    start = sim.now();
    wait(mem.handle(t));
    EXPECT_EQ((sim.now() - start), 20_ns);  // open row: hit

    wait(100_ns);
    // Row 4 lands on bank 0 too (4096/64 % 4 == 0) but a different row.
    t.begin_write(0x1000, &b, 1);
    start = sim.now();
    wait(mem.handle(t));
    EXPECT_EQ((sim.now() - start), 60_ns);  // row switch: miss
  });
  sim.run();
  EXPECT_EQ(mem.row_hits(), 1u);
  EXPECT_EQ(mem.row_misses(), 2u);
  EXPECT_EQ(mem.writes(), 3u);
  EXPECT_EQ(mem.bank_conflicts(), 0u);
}

TEST(BankedMemory, BackToBackSameBankPaysConflictPenalty) {
  Simulator sim;
  ocp::BankedMemorySlave same("ddr1", 0x0, 0x10000, test_cfg());
  ocp::BankedMemorySlave spread("ddr2", 0x0, 0x10000, test_cfg());
  sim.spawn_thread("m", [&] {
    std::uint8_t b = 1;
    Txn t;
    // Two immediate accesses to the same bank: the second stalls through
    // the 40 ns recovery window before paying its own latency.
    t.begin_write(0x0, &b, 1);
    wait(same.handle(t));
    const Time start_same = sim.now();
    t.begin_write(0x1000, &b, 1);  // bank 0 again, different row
    wait(same.handle(t));
    const Time same_cost = sim.now() - start_same;

    // Two immediate accesses to different banks: no stall.
    t.begin_write(0x0, &b, 1);
    wait(spread.handle(t));
    const Time start_spread = sim.now();
    t.begin_write(0x40, &b, 1);  // next 64B block -> bank 1
    wait(spread.handle(t));
    const Time spread_cost = sim.now() - start_spread;

    EXPECT_GT(same_cost, spread_cost);
  });
  sim.run();
  EXPECT_EQ(same.bank_conflicts(), 1u);
  EXPECT_GT(same.conflict_stall(), Time::zero());
  EXPECT_EQ(spread.bank_conflicts(), 0u);
}

TEST(BankedMemory, WideAccessSpansBanks) {
  Simulator sim;
  ocp::BankedMemorySlave mem("ddr", 0x0, 0x10000, test_cfg());
  // A 256-byte burst starting at 0 touches all four banks; a follow-up to
  // any of them conflicts.
  const Time first = timed_write(sim, mem, 0x0, 256);
  EXPECT_EQ(first, 60_ns);
  Simulator sim2;  // fresh clock, same memory state semantics don't matter
  ocp::BankedMemorySlave mem2("ddr", 0x0, 0x10000, test_cfg());
  sim2.spawn_thread("m", [&] {
    std::vector<std::uint8_t> payload(256, 0xab);
    Txn t;
    t.begin_write(0x0, payload.data(), payload.size());
    wait(mem2.handle(t));
    std::uint8_t b = 0;
    t.begin_write(0xc0, &b, 1);  // bank 3, still busy
    wait(mem2.handle(t));
  });
  sim2.run();
  EXPECT_EQ(mem2.bank_conflicts(), 1u);
}

TEST(BankedMemory, OutOfRangeRespondsError) {
  Simulator sim;
  ocp::BankedMemorySlave mem("ddr", 0x1000, 0x100, test_cfg());
  sim.spawn_thread("m", [&] {
    std::uint8_t b = 1;
    Txn t;
    t.begin_write(0xfff, &b, 1);
    wait(mem.handle(t));
    EXPECT_FALSE(t.ok());
    t.begin_read(0x10fd, 8);
    wait(mem.handle(t));
    EXPECT_FALSE(t.ok());
    t.begin_write(0x1000, &b, 1);
    wait(mem.handle(t));
    EXPECT_TRUE(t.ok());
  });
  sim.run();
  EXPECT_EQ(mem.writes(), 1u);
}

TEST(BankedMemory, DataRoundTripsThroughBus) {
  Simulator sim;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<RoundRobinArbiter>());
  ocp::BankedMemorySlave mem("ddr", 0x0, 0x10000, test_cfg());
  bus.attach_slave(mem, {0x0, 0x10000}, "ddr");
  const std::size_t idx = bus.add_master("m0");
  sim.spawn_thread("pe", [&] {
    std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
    auto wr = bus.master_port(idx).transport(
        ocp::Request::write(0x80, payload));
    EXPECT_TRUE(wr.good());
    auto rd = bus.master_port(idx).transport(ocp::Request::read(0x80, 8));
    ASSERT_TRUE(rd.good());
    EXPECT_EQ(rd.data, payload);
  });
  sim.run();
  EXPECT_EQ(mem.reads(), 1u);
  EXPECT_EQ(mem.writes(), 1u);
}

TEST(BankedMemory, SeededContentionIsDeterministicAndContended) {
  // Four masters with seeded address streams hammer the banked memory
  // through a shared bus: the run must be deterministic (same seed, same
  // final state) and must exhibit both conflicts and row misses.
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    SharedBusCam bus(sim, "bus", 10_ns,
                     std::make_unique<RoundRobinArbiter>());
    ocp::BankedMemorySlave mem("ddr", 0x0, 0x40000, test_cfg());
    bus.attach_slave(mem, {0x0, 0x40000}, "ddr");
    for (int m = 0; m < 4; ++m) {
      const std::size_t idx = bus.add_master("m" + std::to_string(m));
      sim.spawn_thread("pe" + std::to_string(m), [&, m, idx, seed] {
        workload::SplitMix64 rng(
            workload::SplitMix64::derive(seed, static_cast<std::uint64_t>(m)));
        for (int i = 0; i < 40; ++i) {
          const std::uint64_t addr = rng.uniform(0, 0x3ff) * 64;
          const auto n = static_cast<std::size_t>(rng.uniform(4, 64));
          std::vector<std::uint8_t> payload(n, static_cast<std::uint8_t>(i));
          auto wr = bus.master_port(idx).transport(
              ocp::Request::write(addr, payload));
          EXPECT_TRUE(wr.good());
        }
      });
    }
    sim.run();
    struct Out {
      Time end;
      std::uint64_t conflicts, misses, hits;
    };
    return Out{sim.now(), mem.bank_conflicts(), mem.row_misses(),
               mem.row_hits()};
  };

  const auto a = run_once(99);
  const auto b = run_once(99);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.hits + a.misses, 160u);
  EXPECT_GT(a.misses, 0u);
}

TEST(BankedMemory, SlowerThanFlatMemoryUnderSameTraffic) {
  auto run = [](bool banked) {
    Simulator sim;
    PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
    ocp::BankedMemorySlave bmem("ddr", 0x0, 0x10000, test_cfg());
    ocp::MemorySlave fmem("sram", 0x0, 0x10000, 20_ns);
    if (banked) {
      bus.attach_slave(bmem, {0x0, 0x10000}, "ddr");
    } else {
      bus.attach_slave(fmem, {0x0, 0x10000}, "sram");
    }
    const std::size_t idx = bus.add_master("m0");
    sim.spawn_thread("pe", [&, idx] {
      std::vector<std::uint8_t> payload(32, 0xee);
      for (int i = 0; i < 32; ++i) {
        // Stride through rows on one bank: all misses + conflicts for the
        // banked model, flat cost for the plain one.
        auto r = bus.master_port(idx).transport(
            ocp::Request::write(static_cast<std::uint64_t>(i) * 1024,
                                payload));
        EXPECT_TRUE(r.good());
      }
    });
    sim.run();
    return sim.now();
  };
  EXPECT_GT(run(true), run(false));
}
