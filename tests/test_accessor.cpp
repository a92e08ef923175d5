// Tests for the RTL accessor stack: pin-level PE <-> pin-level bus,
// multi-master arbitration on wires, and equivalence with the TL path.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "accessor/accessor.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "ocp/ocp.hpp"

using namespace stlm;
using namespace stlm::accessor;
using namespace stlm::time_literals;

namespace {

// A full pin-level prototype: one or two master PEs (driving their own
// OCP pin bundles through OcpPinMaster) and one memory PE behind a slave
// accessor (driven through an OcpPinSlave).
struct Proto {
  Simulator sim;
  Clock clk{sim, "clk", 10_ns};
  BusPins bus{sim, "bus"};
  RtlArbiter arb{sim, "arb", bus, clk};

  // Master PE 0.
  ocp::OcpPins pe0_pins{sim, "pe0"};
  ocp::OcpPinMaster pe0{sim, "pe0.m", pe0_pins, clk};
  MasterAccessor acc0{sim, "acc0", pe0_pins, bus, arb, clk};

  // Master PE 1.
  ocp::OcpPins pe1_pins{sim, "pe1"};
  ocp::OcpPinMaster pe1{sim, "pe1.m", pe1_pins, clk};
  MasterAccessor acc1{sim, "acc1", pe1_pins, bus, arb, clk};

  // Slave PE: a memory exposed as a pin-level OCP slave.
  ocp::OcpPins mem_pins{sim, "mem"};
  ocp::MemorySlave mem{"mem", 0x0, 0x4000};
  ocp::OcpPinSlave mem_pe{sim, "mem.s", mem_pins, clk, mem};
  SlaveAccessor sacc{sim, "sacc", mem_pins, bus, clk, {0x0, 0x4000}};
};

}  // namespace

namespace {

// Completion times (ns) of back-to-back transactions from one PE
// through the accessor stack, whose first command goes out `lead` after
// time zero: a single-word write, a 4-beat burst write, a single-word
// read, a 4-beat burst read, then — 13 ns later — another write. Rising
// edges are at multiples of 10 ns.
std::vector<std::uint64_t> accessor_completion_ns(Time lead) {
  Proto p;
  std::vector<std::uint64_t> t;
  p.sim.spawn_thread("sw", [&] {
    auto note = [&] { t.push_back(p.sim.now() / 1_ns); };
    wait(lead);
    p.pe0.transport(ocp::Request::write(0x40, {1, 2, 3, 4}));
    note();
    p.pe0.transport(ocp::Request::write(0x80, std::vector<std::uint8_t>(16, 7)));
    note();
    EXPECT_EQ(p.pe0.transport(ocp::Request::read(0x40, 4)).data,
              (std::vector<std::uint8_t>{1, 2, 3, 4}));
    note();
    EXPECT_EQ(p.pe0.transport(ocp::Request::read(0x80, 16)).data,
              std::vector<std::uint8_t>(16, 7));
    note();
    wait(13_ns);
    p.pe0.transport(ocp::Request::write(0x40, {5, 6, 7, 8}));
    note();
    p.sim.stop();
  });
  p.sim.run();
  return t;
}

// One master, two slave accessors with disjoint decode ranges: every
// address phase is a decode hit for one slave and a miss for the other.
struct TwoSlaveProto {
  Simulator sim;
  Clock clk{sim, "clk", 10_ns};
  BusPins bus{sim, "bus"};
  RtlArbiter arb{sim, "arb", bus, clk};
  ocp::OcpPins pe_pins{sim, "pe"};
  ocp::OcpPinMaster pe{sim, "pe.m", pe_pins, clk};
  MasterAccessor acc{sim, "acc", pe_pins, bus, arb, clk};

  ocp::OcpPins a_pins{sim, "a"};
  ocp::MemorySlave a_mem{"a", 0x0, 0x1000};
  ocp::OcpPinSlave a_pe{sim, "a.s", a_pins, clk, a_mem};
  SlaveAccessor a_acc{sim, "a_acc", a_pins, bus, clk, {0x0, 0x1000}};

  ocp::OcpPins b_pins{sim, "b"};
  ocp::MemorySlave b_mem{"b", 0x1000, 0x1000};
  ocp::OcpPinSlave b_pe{sim, "b.s", b_pins, clk, b_mem};
  SlaveAccessor b_acc{sim, "b_acc", b_pins, bus, clk, {0x1000, 0x1000}};
};

}  // namespace

// The PE's wait ends on a rising edge: its MCmd lands in the same delta
// as the clock, and the master accessor must take it at that edge.
TEST(Accessor, CommandWrittenOnARisingEdgeCompletesAtPinnedTimes) {
  EXPECT_EQ(accessor_completion_ns(20_ns),
            (std::vector<std::uint64_t>{100, 280, 370, 550, 650}));
}

// MCmd is written 3 ns after an edge: it is taken at the next one.
TEST(Accessor, CommandWrittenMidCycleCompletesAtPinnedTimes) {
  EXPECT_EQ(accessor_completion_ns(23_ns),
            (std::vector<std::uint64_t>{110, 290, 380, 560, 660}));
}

TEST(Accessor, BackToBackTransactionsToTwoSlavesCompleteAtPinnedTimes) {
  TwoSlaveProto p;
  std::vector<std::uint64_t> t;
  p.sim.spawn_thread("sw", [&] {
    auto note = [&] { t.push_back(p.sim.now() / 1_ns); };
    p.pe.transport(ocp::Request::write(0x0010, {1, 2, 3, 4}));
    note();
    p.pe.transport(ocp::Request::write(0x1010, std::vector<std::uint8_t>(8, 9)));
    note();
    p.pe.transport(ocp::Request::write(0x0020, std::vector<std::uint8_t>(8, 5)));
    note();
    EXPECT_EQ(p.pe.transport(ocp::Request::read(0x1010, 8)).data,
              std::vector<std::uint8_t>(8, 9));
    note();
    EXPECT_EQ(p.pe.transport(ocp::Request::read(0x0010, 4)).data,
              (std::vector<std::uint8_t>{1, 2, 3, 4}));
    note();
    p.sim.stop();
  });
  p.sim.run();
  EXPECT_EQ(t, (std::vector<std::uint64_t>{80, 200, 320, 440, 530}));
  EXPECT_EQ(p.a_acc.transactions(), 3u);
  EXPECT_EQ(p.b_acc.transactions(), 2u);
  EXPECT_EQ(p.a_mem.peek(0x0020), 5);
  EXPECT_EQ(p.b_mem.peek(0x1017), 9);
}

TEST(Accessor, SingleMasterWriteRead) {
  Proto p;
  std::vector<std::uint8_t> got;
  p.sim.spawn_thread("sw", [&] {
    auto wr = p.pe0.transport(ocp::Request::write(0x100, {1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_TRUE(wr.good());
    auto rd = p.pe0.transport(ocp::Request::read(0x100, 8));
    EXPECT_TRUE(rd.good());
    got = rd.data;
    p.sim.stop();
  });
  p.sim.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(p.mem.peek(0x103), 4);
  EXPECT_EQ(p.acc0.transactions(), 2u);
  EXPECT_EQ(p.sacc.transactions(), 2u);
  EXPECT_EQ(p.arb.grants(), 2u);
}

TEST(Accessor, TwoMastersAreArbitratedWithoutCorruption) {
  Proto p;
  int done = 0;
  auto worker = [&](ocp::OcpPinMaster& pe, std::uint64_t base,
                    std::uint8_t tag) {
    for (int i = 0; i < 8; ++i) {
      std::vector<std::uint8_t> v(8, static_cast<std::uint8_t>(tag + i));
      auto wr = pe.transport(
          ocp::Request::write(base + static_cast<std::uint64_t>(8 * i), v));
      EXPECT_TRUE(wr.good());
    }
    if (++done == 2) p.sim.stop();
  };
  p.sim.spawn_thread("sw0", [&] { worker(p.pe0, 0x0000, 0x10); });
  p.sim.spawn_thread("sw1", [&] { worker(p.pe1, 0x2000, 0x80); });
  p.sim.run();
  ASSERT_EQ(done, 2);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(p.mem.peek(static_cast<std::uint64_t>(8 * i)), 0x10 + i);
    EXPECT_EQ(p.mem.peek(0x2000 + static_cast<std::uint64_t>(8 * i)), 0x80 + i);
  }
  EXPECT_EQ(p.arb.grants(), 16u);
}

TEST(Accessor, ReadLatencyGrowsWithBurstLength) {
  Proto p;
  Time t1, t4;
  p.sim.spawn_thread("sw", [&] {
    p.pe0.transport(ocp::Request::read(0, 4));  // warm-up
    Time s = p.sim.now();
    p.pe0.transport(ocp::Request::read(0, 4));
    t1 = p.sim.now() - s;
    s = p.sim.now();
    p.pe0.transport(ocp::Request::read(0, 16));
    t4 = p.sim.now() - s;
    p.sim.stop();
  });
  p.sim.run();
  // 3 extra data beats on each of the three pin-level hops: requesting
  // PE -> master accessor, bus, slave accessor -> memory PE.
  EXPECT_EQ(t4 - t1, 9 * 10_ns);
}

TEST(Accessor, PinPrototypeMatchesMemoryImageOfTlRun) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> addr(0, 1000);
  std::uniform_int_distribution<int> len(1, 16);
  std::uniform_int_distribution<int> byte(0, 255);
  struct Op {
    std::uint64_t addr;
    std::vector<std::uint8_t> data;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 12; ++i) {
    Op op;
    op.addr = static_cast<std::uint64_t>(addr(rng));
    op.data.resize(static_cast<std::size_t>(len(rng)));
    for (auto& b : op.data) b = static_cast<std::uint8_t>(byte(rng));
    ops.push_back(op);
  }

  Proto p;
  p.sim.spawn_thread("sw", [&] {
    for (const auto& op : ops) {
      p.pe0.transport(ocp::Request::write(op.addr, op.data));
    }
    p.sim.stop();
  });
  p.sim.run();

  // Reference: plain TL memory.
  ocp::MemorySlave ref("ref", 0, 0x4000);
  {
    Simulator sim2;
    ocp::OcpTlChannel ch(sim2, "ch", ref);
    sim2.spawn_thread("sw", [&] {
      for (const auto& op : ops) ch.transport(ocp::Request::write(op.addr, op.data));
    });
    sim2.run();
  }
  for (std::uint64_t a = 0; a < 1024; ++a) {
    ASSERT_EQ(p.mem.peek(a), ref.peek(a)) << "addr " << a;
  }
}

TEST(Accessor, ArbitrationIsPriorityOrdered) {
  Proto p;
  std::vector<int> completion_order;
  // Both masters request in the same cycle; accessor 0 has priority.
  p.sim.spawn_thread("sw0", [&] {
    p.pe0.transport(ocp::Request::write(0x0, std::vector<std::uint8_t>(32, 1)));
    completion_order.push_back(0);
  });
  p.sim.spawn_thread("sw1", [&] {
    p.pe1.transport(ocp::Request::write(0x40, std::vector<std::uint8_t>(32, 2)));
    completion_order.push_back(1);
    p.sim.stop();
  });
  p.sim.run();
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], 0);
  EXPECT_EQ(completion_order[1], 1);
}
