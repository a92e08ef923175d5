// Tests for the SHIP channel: the four blocking calls, master/slave
// detection, role conflicts, queue depths, and timing policies.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "ship/ship.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::ship;
using namespace stlm::time_literals;

TEST(ShipChannel, SendRecvTransfersPayload) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  std::string got;
  sim.spawn_thread("producer", [&] {
    StringMsg m("hello ship");
    ch.a().send(m);
  });
  sim.spawn_thread("consumer", [&] {
    StringMsg m;
    ch.b().recv(m);
    got = m.text;
  });
  sim.run();
  EXPECT_EQ(got, "hello ship");
}

TEST(ShipChannel, RequestReplyRoundTrip) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  std::uint32_t answer = 0;
  sim.spawn_thread("master", [&] {
    PodMsg<std::uint32_t> req(20), resp;
    ch.a().request(req, resp);
    answer = resp.value;
  });
  sim.spawn_thread("slave", [&] {
    PodMsg<std::uint32_t> req;
    ch.b().recv(req);
    PodMsg<std::uint32_t> resp(req.value * 2 + 2);
    ch.b().reply(resp);
  });
  sim.run();
  EXPECT_EQ(answer, 42u);
}

TEST(ShipChannel, AutomaticMasterSlaveDetection) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  EXPECT_EQ(ch.role_a(), Role::Unknown);
  EXPECT_EQ(ch.role_b(), Role::Unknown);
  sim.spawn_thread("m", [&] {
    PodMsg<int> m(1);
    ch.a().send(m);
  });
  sim.spawn_thread("s", [&] {
    PodMsg<int> m;
    ch.b().recv(m);
  });
  sim.run();
  EXPECT_EQ(ch.role_a(), Role::Master);
  EXPECT_EQ(ch.role_b(), Role::Slave);
}

TEST(ShipChannel, RoleConflictOnMixedCallsThrows) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  sim.spawn_thread("confused", [&] {
    PodMsg<int> m(1);
    ch.a().send(m);   // terminal a becomes master
    ch.a().recv(m);   // ... then calls a slave method: protocol error
  });
  sim.spawn_thread("peer", [&] {
    PodMsg<int> m;
    ch.b().recv(m);
  });
  EXPECT_THROW(sim.run(), ProtocolError);
}

TEST(ShipChannel, ReplyWithoutRequestThrows) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  sim.spawn_thread("bad_slave", [&] {
    PodMsg<int> m(0);
    ch.b().reply(m);
  });
  EXPECT_THROW(sim.run(), ProtocolError);
}

TEST(ShipChannel, SendAfterRequestIsAllowedForMaster) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  int recv_count = 0;
  sim.spawn_thread("master", [&] {
    PodMsg<int> req(1), resp;
    ch.a().request(req, resp);
    PodMsg<int> extra(2);
    ch.a().send(extra);  // same role group: fine
  });
  sim.spawn_thread("slave", [&] {
    PodMsg<int> m;
    ch.b().recv(m);
    ch.b().reply(m);
    ch.b().recv(m);
    recv_count = 2;
  });
  sim.run();
  EXPECT_EQ(recv_count, 2);
}

TEST(ShipChannel, QueueDepthBoundsInFlightMessages) {
  Simulator sim;
  ShipChannel ch(sim, "ch", /*queue_depth=*/2);
  std::vector<Time> send_times;
  sim.spawn_thread("producer", [&] {
    PodMsg<int> m(0);
    for (int i = 0; i < 4; ++i) {
      m.value = i;
      ch.a().send(m);
      send_times.push_back(sim.now());
    }
  });
  sim.spawn_thread("consumer", [&] {
    wait(100_ns);
    PodMsg<int> m;
    for (int i = 0; i < 4; ++i) ch.b().recv(m);
  });
  sim.run();
  ASSERT_EQ(send_times.size(), 4u);
  EXPECT_EQ(send_times[0], 0_ns);   // buffered
  EXPECT_EQ(send_times[1], 0_ns);   // buffered (depth 2)
  EXPECT_EQ(send_times[2], 100_ns); // blocked until consumer drains
  EXPECT_EQ(send_times[3], 100_ns);
}

TEST(ShipChannel, UntimedTransferTakesNoSimTime) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  Time done_at = Time::max();
  sim.spawn_thread("p", [&] {
    VectorMsg<> m(4096);
    ch.a().send(m);
  });
  sim.spawn_thread("c", [&] {
    VectorMsg<> m;
    ch.b().recv(m);
    done_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(done_at, 0_ns);
}

TEST(ShipChannel, CcatbTimingChargesSetupPlusBeats) {
  Simulator sim;
  // 10 ns cycle, 4-byte bus, 3 setup cycles.
  ShipChannel ch(sim, "ch", 1, CcatbModel(10_ns, 4, 3));
  Time recv_done = Time::zero();
  sim.spawn_thread("p", [&] {
    VectorMsg<> m(16);  // 16 bytes + 4-byte length prefix = 20 bytes
    ch.a().send(m);
  });
  sim.spawn_thread("c", [&] {
    VectorMsg<> m;
    ch.b().recv(m);
    recv_done = sim.now();
  });
  sim.run();
  // 20 bytes over a 4-byte bus = 5 beats; +3 setup = 8 cycles = 80 ns.
  EXPECT_EQ(recv_done, 80_ns);
}

TEST(ShipChannel, SwitchAbstractionLevelInPlace) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  std::vector<Time> arrivals;
  sim.spawn_thread("p", [&] {
    PodMsg<std::uint32_t> m(1);
    ch.a().send(m);             // untimed
    wait(1_ns);
    ch.set_timing(CcatbModel(10_ns, 4, 0));
    ch.a().send(m);             // now costs 1 beat = 10 ns
    wait(1_ns);
    ch.set_timing(std::nullopt);
    ch.a().send(m);             // untimed again
  });
  sim.spawn_thread("c", [&] {
    PodMsg<std::uint32_t> m;
    for (int i = 0; i < 3; ++i) {
      ch.b().recv(m);
      arrivals.push_back(sim.now());
    }
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 0_ns);
  EXPECT_EQ(arrivals[1], 11_ns);
  EXPECT_EQ(arrivals[2], 12_ns);
}

TEST(ShipChannel, TxnLoggerRecordsTraffic) {
  Simulator sim;
  trace::TxnLogger log;
  ShipChannel ch(sim, "ch");
  ch.set_txn_logger(&log);
  sim.spawn_thread("m", [&] {
    PodMsg<std::uint32_t> req(1), resp;
    ch.a().request(req, resp);
  });
  sim.spawn_thread("s", [&] {
    PodMsg<std::uint32_t> m;
    ch.b().recv(m);
    ch.b().reply(m);
  });
  sim.run();
  // request + reply legs recorded.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].kind, trace::TxnKind::Request);
  EXPECT_EQ(log.records()[1].kind, trace::TxnKind::Reply);
  EXPECT_EQ(trace::latency_dist(log.records()).bytes, 8u);
  EXPECT_EQ(ch.messages_transferred(), 2u);
  EXPECT_EQ(ch.bytes_transferred(), 8u);
}

TEST(ShipChannel, MessageAvailableProbe) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  bool before = true, after = false;
  sim.spawn_thread("c", [&] {
    before = ch.b().message_available();
    wait(10_ns);
    after = ch.b().message_available();
    PodMsg<int> m;
    ch.b().recv(m);
  });
  sim.spawn_thread("p", [&] {
    wait(5_ns);
    PodMsg<int> m(9);
    ch.a().send(m);
  });
  sim.run();
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(ShipChannel, DirectionBIsMasterWorksToo) {
  Simulator sim;
  ShipChannel ch(sim, "ch");
  int got = 0;
  sim.spawn_thread("m", [&] {
    PodMsg<int> m(5);
    ch.b().send(m);
  });
  sim.spawn_thread("s", [&] {
    PodMsg<int> m;
    ch.a().recv(m);
    got = m.value;
  });
  sim.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(ch.role_b(), Role::Master);
  EXPECT_EQ(ch.role_a(), Role::Slave);
}

TEST(ShipChannel, ZeroDepthRejected) {
  Simulator sim;
  EXPECT_THROW(ShipChannel(sim, "ch", 0), SimulationError);
}

// Property sweep: many messages of varying size arrive in order and
// byte-identical at several queue depths.
class ShipPipeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShipPipeSweep, OrderedLosslessDelivery) {
  Simulator sim;
  ShipChannel ch(sim, "ch", GetParam());
  constexpr int kCount = 64;
  int errors = 0;
  sim.spawn_thread("p", [&] {
    for (int i = 0; i < kCount; ++i) {
      VectorMsg<std::uint32_t> m;
      m.data.assign(static_cast<std::size_t>(i % 17 + 1),
                    static_cast<std::uint32_t>(i));
      ch.a().send(m);
    }
  });
  sim.spawn_thread("c", [&] {
    for (int i = 0; i < kCount; ++i) {
      VectorMsg<std::uint32_t> m;
      ch.b().recv(m);
      if (m.data.size() != static_cast<std::size_t>(i % 17 + 1)) ++errors;
      for (auto v : m.data) {
        if (v != static_cast<std::uint32_t>(i)) ++errors;
      }
    }
  });
  sim.run();
  EXPECT_EQ(errors, 0);
}

INSTANTIATE_TEST_SUITE_P(Depths, ShipPipeSweep,
                         ::testing::Values(1u, 2u, 4u, 32u));
