// Tests for OCP TL types, the point-to-point TL channel, and the memory
// target device.
#include <gtest/gtest.h>

#include <numeric>

#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "ocp/ocp.hpp"

using namespace stlm;
using namespace stlm::ocp;
using namespace stlm::time_literals;

TEST(OcpTypes, BeatsRoundUpToWords) {
  EXPECT_EQ(Request::read(0, 1).beats(), 1u);
  EXPECT_EQ(Request::read(0, 4).beats(), 1u);
  EXPECT_EQ(Request::read(0, 5).beats(), 2u);
  EXPECT_EQ(Request::write(0, std::vector<std::uint8_t>(12)).beats(), 3u);
  EXPECT_EQ(Request::write(0, {}).beats(), 1u);  // command-only still 1 beat
}

TEST(OcpTypes, FactoryHelpers) {
  auto r = Request::read(0x100, 8);
  EXPECT_EQ(r.cmd, Cmd::Read);
  EXPECT_EQ(r.addr, 0x100u);
  EXPECT_EQ(r.read_bytes, 8u);
  EXPECT_EQ(r.payload_bytes(), 8u);

  auto w = Request::write(0x200, {1, 2, 3});
  EXPECT_EQ(w.cmd, Cmd::Write);
  EXPECT_EQ(w.payload_bytes(), 3u);
  EXPECT_TRUE(Response::ok().good());
  EXPECT_FALSE(Response::error().good());
}

TEST(OcpTl, WriteThenReadRoundtrip) {
  Simulator sim;
  MemorySlave mem("mem", 0x1000, 256);
  OcpTlChannel ch(sim, "ch", mem);
  std::vector<std::uint8_t> got;
  sim.spawn_thread("master", [&] {
    std::vector<std::uint8_t> payload{10, 20, 30, 40, 50};
    auto wr = ch.transport(Request::write(0x1010, payload));
    EXPECT_TRUE(wr.good());
    auto rd = ch.transport(Request::read(0x1010, 5));
    EXPECT_TRUE(rd.good());
    got = rd.data;
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(mem.reads(), 1u);
  EXPECT_EQ(mem.writes(), 1u);
  EXPECT_EQ(ch.transactions(), 2u);
}

TEST(OcpTl, CcatbTimingAtBoundaries) {
  Simulator sim;
  MemorySlave mem("mem", 0, 1024);
  TlTiming t;
  t.cycle = 10_ns;
  t.request_cycles = 2;
  t.cycles_per_beat = 1;
  t.response_cycles = 1;
  OcpTlChannel ch(sim, "ch", mem, t);
  Time done;
  sim.spawn_thread("master", [&] {
    // 8 bytes = 2 beats: 2 + 2 + 1 = 5 cycles = 50 ns.
    ch.transport(Request::read(0, 8));
    done = sim.now();
  });
  sim.run();
  EXPECT_EQ(done, 50_ns);
}

TEST(OcpTl, DeviceAccessTimeAddsWaitStates) {
  Simulator sim;
  MemorySlave mem("mem", 0, 64, /*access_time=*/25_ns);
  OcpTlChannel ch(sim, "ch", mem);  // default 1+1+1 cycles @10ns
  Time done;
  sim.spawn_thread("master", [&] {
    ch.transport(Request::read(0, 4));
    done = sim.now();
  });
  sim.run();
  EXPECT_EQ(done, 30_ns + 25_ns);
}

TEST(OcpTl, OutOfRangeAccessReturnsError) {
  Simulator sim;
  MemorySlave mem("mem", 0x1000, 16);
  OcpTlChannel ch(sim, "ch", mem);
  RespCode got = RespCode::Null;
  sim.spawn_thread("master", [&] {
    got = ch.transport(Request::read(0x2000, 4)).resp;
    // Straddling the top boundary also fails.
    auto r2 = ch.transport(Request::write(0x100e, {1, 2, 3, 4}));
    EXPECT_FALSE(r2.good());
  });
  sim.run();
  EXPECT_EQ(got, RespCode::Err);
}

TEST(OcpTl, ConcurrentMastersAreSerialized) {
  Simulator sim;
  MemorySlave mem("mem", 0, 1024);
  TlTiming t;  // 3 cycles @ 10 ns per single-beat txn
  OcpTlChannel ch(sim, "ch", mem, t);
  std::vector<Time> completions;
  auto master = [&](std::uint64_t addr) {
    ch.transport(Request::write(addr, {1, 2, 3, 4}));
    completions.push_back(sim.now());
  };
  sim.spawn_thread("m0", [&] { master(0); });
  sim.spawn_thread("m1", [&] { master(64); });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 30_ns);
  EXPECT_EQ(completions[1], 60_ns);  // second master waited for the mutex
}

TEST(OcpTl, IdleTransportRejected) {
  Simulator sim;
  MemorySlave mem("mem", 0, 16);
  OcpTlChannel ch(sim, "ch", mem);
  sim.spawn_thread("master", [&] {
    Request r;  // Idle
    ch.transport(r);
  });
  EXPECT_THROW(sim.run(), SimulationError);
}

TEST(OcpTl, TxnLoggerSeesReadsAndWrites) {
  Simulator sim;
  trace::TxnLogger log;
  MemorySlave mem("mem", 0, 64);
  OcpTlChannel ch(sim, "ch", mem);
  ch.set_txn_logger(&log);
  sim.spawn_thread("m", [&] {
    ch.transport(Request::write(0, {1, 2}));
    ch.transport(Request::read(0, 2));
  });
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].kind, trace::TxnKind::Write);
  EXPECT_EQ(log.records()[1].kind, trace::TxnKind::Read);
}

TEST(OcpTl, MemoryBackdoor) {
  MemorySlave mem("mem", 0x40, 8);
  mem.poke(0x41, 0xab);
  EXPECT_EQ(mem.peek(0x41), 0xab);
  EXPECT_THROW(mem.poke(0x100, 1), std::out_of_range);
}

// Property: payload sizes sweep — data integrity and beat math hold.
class TlPayloadSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TlPayloadSweep, WriteReadIntegrity) {
  const std::uint32_t n = GetParam();
  Simulator sim;
  MemorySlave mem("mem", 0, 1 << 16);
  OcpTlChannel ch(sim, "ch", mem);
  bool ok = false;
  sim.spawn_thread("m", [&] {
    std::vector<std::uint8_t> payload(n);
    std::iota(payload.begin(), payload.end(), 1);
    ch.transport(Request::write(0x80, payload));
    auto rd = ch.transport(Request::read(0x80, n));
    ok = rd.good() && rd.data == payload;
  });
  sim.run();
  EXPECT_TRUE(ok) << "payload size " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlPayloadSweep,
                         ::testing::Values(1u, 3u, 4u, 5u, 64u, 1000u, 4096u));
