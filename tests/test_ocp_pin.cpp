// Tests for the pin-accurate OCP master/slave FSMs and the protocol
// monitor: cycle counts, data integrity, wait states, and error responses.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "ocp/ocp.hpp"

using namespace stlm;
using namespace stlm::ocp;
using namespace stlm::time_literals;

namespace {

struct PinFixture {
  Simulator sim;
  Clock clk{sim, "clk", 10_ns};
  OcpPins pins{sim, "pins"};
  MemorySlave mem{"mem", 0, 4096};
  OcpPinMaster master{sim, "master", pins, clk};
  OcpPinSlave slave{sim, "slave", pins, clk, mem};
  OcpMonitor monitor{sim, "mon", pins, clk};
};

}  // namespace

TEST(OcpPin, SingleWordWriteRead) {
  PinFixture f;
  std::vector<std::uint8_t> got;
  f.sim.spawn_thread("pe", [&] {
    auto wr = f.master.transport(Request::write(0x10, {0xde, 0xad, 0xbe, 0xef}));
    EXPECT_TRUE(wr.good());
    auto rd = f.master.transport(Request::read(0x10, 4));
    EXPECT_TRUE(rd.good());
    got = rd.data;
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(f.mem.peek(0x10), 0xde);
  EXPECT_EQ(f.mem.peek(0x13), 0xef);
}

TEST(OcpPin, BurstWritePreservesByteOrder) {
  PinFixture f;
  std::vector<std::uint8_t> payload(32);
  std::iota(payload.begin(), payload.end(), 0);
  f.sim.spawn_thread("pe", [&] {
    f.master.transport(Request::write(0x100, payload));
    auto rd = f.master.transport(Request::read(0x100, 32));
    EXPECT_EQ(rd.data, payload);
    f.sim.stop();
  });
  f.sim.run();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(f.mem.peek(0x100 + i), payload[i]);
  }
}

TEST(OcpPin, NonWordSizedPayloadTrimmed) {
  PinFixture f;
  f.sim.spawn_thread("pe", [&] {
    f.master.transport(Request::write(0x20, {1, 2, 3, 4, 5, 6, 7}));
    auto rd = f.master.transport(Request::read(0x20, 7));
    EXPECT_EQ(rd.data.size(), 7u);
    EXPECT_EQ(rd.data, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7}));
    f.sim.stop();
  });
  f.sim.run();
}

TEST(OcpPin, WriteTakesExpectedCycles) {
  PinFixture f;
  Time done;
  f.sim.spawn_thread("pe", [&] {
    // 1-beat write: beat accepted at edge0, response DVA sampled at edge2
    // (slave drives DVA after edge0's capture; master samples at the next
    // edge it reaches). Protocol overhead is deterministic.
    f.master.transport(Request::write(0x0, {1, 2, 3, 4}));
    done = f.sim.now();
    f.sim.stop();
  });
  f.sim.run();
  // Deterministic small cycle count (not TL-instant, not unbounded).
  EXPECT_GE(done, 10_ns);
  EXPECT_LE(done, 40_ns);
}

namespace {

// Completion times (ns) of back-to-back transactions from one PE whose
// first command goes out `lead` after time zero: a single-word write, a
// 4-beat burst write, a single-word read, a 4-beat burst read, then —
// 13 ns later, mid-cycle whatever the phase — another single-word write.
// Rising edges are at multiples of 10 ns.
std::vector<std::uint64_t> pin_completion_ns(Time lead) {
  PinFixture f;
  std::vector<std::uint64_t> t;
  f.sim.spawn_thread("pe", [&] {
    auto note = [&] { t.push_back(f.sim.now() / 1_ns); };
    wait(lead);
    f.master.transport(Request::write(0x40, {1, 2, 3, 4}));
    note();
    f.master.transport(Request::write(0x80, std::vector<std::uint8_t>(16, 7)));
    note();
    EXPECT_EQ(f.master.transport(Request::read(0x40, 4)).data,
              (std::vector<std::uint8_t>{1, 2, 3, 4}));
    note();
    EXPECT_EQ(f.master.transport(Request::read(0x80, 16)).data,
              std::vector<std::uint8_t>(16, 7));
    note();
    wait(13_ns);
    f.master.transport(Request::write(0x40, {5, 6, 7, 8}));
    note();
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(f.monitor.violations(), 0u);
  return t;
}

}  // namespace

// The PE's wait ends on a rising edge, so MCmd is written in the same
// delta as the clock: the slave must sample the command at that edge.
TEST(OcpPin, CommandWrittenOnARisingEdgeCompletesAtPinnedTimes) {
  EXPECT_EQ(pin_completion_ns(20_ns),
            (std::vector<std::uint64_t>{30, 80, 100, 150, 180}));
}

// MCmd is written 3 ns after an edge: the slave samples it at the next.
TEST(OcpPin, CommandWrittenMidCycleCompletesAtPinnedTimes) {
  EXPECT_EQ(pin_completion_ns(23_ns),
            (std::vector<std::uint64_t>{40, 90, 110, 160, 190}));
}

TEST(OcpPin, ReadLatencyScalesWithBurstLength) {
  PinFixture f;
  Time t1, t8;
  f.sim.spawn_thread("pe", [&] {
    // Warm-up transaction so both measurements start from the same
    // steady-state bus-turnaround alignment.
    f.master.transport(Request::read(0x0, 4));
    const Time s1 = f.sim.now();
    f.master.transport(Request::read(0x0, 4));
    t1 = f.sim.now() - s1;
    const Time s8 = f.sim.now();
    f.master.transport(Request::read(0x0, 32));
    t8 = f.sim.now() - s8;
    f.sim.stop();
  });
  f.sim.run();
  // 8-beat read must cost exactly 7 more data cycles than 1-beat.
  EXPECT_EQ(t8 - t1, 7 * 10_ns);
}

TEST(OcpPin, DeviceWaitStatesStallMaster) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);
  OcpPins pins(sim, "pins");
  MemorySlave mem("mem", 0, 64);
  OcpPinMaster master(sim, "m", pins, clk);
  OcpPinSlave slave(sim, "s", pins, clk, mem, /*device_latency_cycles=*/5);
  Time fast_done, slow_done;
  sim.spawn_thread("pe", [&] {
    const Time s = sim.now();
    master.transport(Request::read(0, 4));
    slow_done = sim.now() - s;
    sim.stop();
  });
  sim.run();

  Simulator sim2;
  Clock clk2(sim2, "clk", 10_ns);
  OcpPins pins2(sim2, "pins");
  MemorySlave mem2("mem", 0, 64);
  OcpPinMaster master2(sim2, "m", pins2, clk2);
  OcpPinSlave slave2(sim2, "s", pins2, clk2, mem2, 0);
  sim2.spawn_thread("pe", [&] {
    const Time s = sim2.now();
    master2.transport(Request::read(0, 4));
    fast_done = sim2.now() - s;
    sim2.stop();
  });
  sim2.run();
  EXPECT_EQ(slow_done - fast_done, 5 * 10_ns);
}

TEST(OcpPin, ErrorResponsePropagates) {
  PinFixture f;
  RespCode got = RespCode::Null;
  f.sim.spawn_thread("pe", [&] {
    got = f.master.transport(Request::read(0x10000, 4)).resp;  // out of range
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(got, RespCode::Err);
}

TEST(OcpPin, BackToBackTransactionsFromTwoThreads) {
  PinFixture f;
  int done = 0;
  auto pe = [&](std::uint64_t base) {
    for (int i = 0; i < 5; ++i) {
      std::vector<std::uint8_t> v(4, static_cast<std::uint8_t>(base + i));
      f.master.transport(Request::write(base + 4 * i, v));
    }
    ++done;
    if (done == 2) f.sim.stop();
  };
  f.sim.spawn_thread("pe0", [&] { pe(0x000); });
  f.sim.spawn_thread("pe1", [&] { pe(0x200); });
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f.mem.peek(0x000), 0x00);
  EXPECT_EQ(f.mem.peek(0x204), 0x01 + 0x200 % 256);
}

TEST(OcpPin, MonitorCountsBeatsAndSeesNoViolations) {
  PinFixture f;
  f.sim.spawn_thread("pe", [&] {
    f.master.transport(Request::write(0, {1, 2, 3, 4, 5, 6, 7, 8}));  // 2 beats
    f.master.transport(Request::read(0, 8));                          // 2 beats
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(f.monitor.violations(), 0u);
  // 2 write cmd beats + 1 read cmd beat.
  EXPECT_EQ(f.monitor.command_beats(), 3u);
  // 1 write ack + 2 read data beats.
  EXPECT_EQ(f.monitor.response_beats(), 3u);
}

TEST(OcpPin, MasterCountsTransactions) {
  PinFixture f;
  f.sim.spawn_thread("pe", [&] {
    f.master.transport(Request::write(0, {1}));
    f.master.transport(Request::read(0, 1));
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(f.master.transactions(), 2u);
  EXPECT_EQ(f.slave.transactions(), 2u);
}

// Property: pin-level and TL-level produce identical memory images for
// randomized write sequences (refinement equivalence).
class PinVsTl : public ::testing::TestWithParam<unsigned> {};

TEST_P(PinVsTl, SameMemoryImage) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> len(1, 24);
  std::uniform_int_distribution<int> addr(0, 960);
  std::uniform_int_distribution<int> byte(0, 255);

  // Record a workload.
  struct Op {
    std::uint64_t addr;
    std::vector<std::uint8_t> data;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 20; ++i) {
    Op op;
    op.addr = static_cast<std::uint64_t>(addr(rng));
    op.data.resize(static_cast<std::size_t>(len(rng)));
    for (auto& b : op.data) b = static_cast<std::uint8_t>(byte(rng));
    ops.push_back(std::move(op));
  }

  // Run at pin level.
  PinFixture pin;
  pin.sim.spawn_thread("pe", [&] {
    for (const auto& op : ops) {
      pin.master.transport(Request::write(op.addr, op.data));
    }
    pin.sim.stop();
  });
  pin.sim.run();

  // Run at TL.
  Simulator sim;
  MemorySlave mem("mem", 0, 4096);
  OcpTlChannel ch(sim, "ch", mem);
  sim.spawn_thread("pe", [&] {
    for (const auto& op : ops) ch.transport(Request::write(op.addr, op.data));
  });
  sim.run();

  for (std::uint64_t a = 0; a < 1024; ++a) {
    ASSERT_EQ(pin.mem.peek(a), mem.peek(a)) << "addr " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PinVsTl, ::testing::Values(11u, 22u, 33u));
