// Tests for the SHIP<->OCP wrappers: a SHIP channel refined onto a CAM
// must behave exactly like the abstract channel (same payloads, same
// roles), with bus traffic now visible and accounted.
#include <gtest/gtest.h>

#include <numeric>

#include "cam/cam.hpp"
#include "kernel/kernel.hpp"
#include "ship/ship.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::ship;
using namespace stlm::time_literals;

namespace {

struct WrapperFixture {
  Simulator sim;
  PlbCam bus{sim, "plb", 10_ns, std::make_unique<PriorityArbiter>()};
  MailboxLayout layout{0x4000, 256};
  ShipSlaveWrapper slave{sim, "ch.slave", layout};
  ShipMasterWrapper master;

  WrapperFixture()
      : master(sim, "ch.master", bus, bus.add_master("pe0"), layout, 100_ns) {
    bus.attach_slave(slave, layout.range(), "ch.mailbox");
  }
  // The wrappers die before the simulator: unwind a test's still-parked
  // threads while the objects their frames reference are alive.
  ~WrapperFixture() { sim.kill_threads(); }
  WrapperFixture(const WrapperFixture&) = delete;
  WrapperFixture& operator=(const WrapperFixture&) = delete;
};

}  // namespace

TEST(ShipWrappers, SendRecvOverBus) {
  WrapperFixture f;
  std::string got;
  f.sim.spawn_thread("producer", [&] {
    StringMsg m("over the PLB");
    f.master.send(m);
  });
  f.sim.spawn_thread("consumer", [&] {
    StringMsg m;
    f.slave.recv(m);
    got = m.text;
  });
  f.sim.run();
  EXPECT_EQ(got, "over the PLB");
  EXPECT_EQ(f.slave.messages_in(), 1u);
  // DATA_IN burst + CTRL write at minimum.
  EXPECT_GE(f.master.bus_transactions(), 2u);
}

TEST(ShipWrappers, RequestReplyOverBus) {
  WrapperFixture f;
  std::uint32_t answer = 0;
  f.sim.spawn_thread("master", [&] {
    PodMsg<std::uint32_t> req(21), resp;
    f.master.request(req, resp);
    answer = resp.value;
  });
  f.sim.spawn_thread("slave", [&] {
    PodMsg<std::uint32_t> req;
    f.slave.recv(req);
    PodMsg<std::uint32_t> resp(req.value * 2);
    f.slave.reply(resp);
  });
  f.sim.run();
  EXPECT_EQ(answer, 42u);
  EXPECT_GE(f.master.poll_count(), 0u);
}

TEST(ShipWrappers, LargeMessageIsChunked) {
  WrapperFixture f;  // window 256 B
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> payload(1500);
  std::iota(payload.begin(), payload.end(), 0);
  Time arrival;
  f.sim.spawn_thread("p", [&] {
    VectorMsg<> m(payload);
    f.master.send(m);
  });
  f.sim.spawn_thread("c", [&] {
    VectorMsg<> m;
    f.slave.recv(m);
    got = m.data;
    arrival = f.sim.now();
  });
  f.sim.run();
  EXPECT_EQ(got, payload);
  // 1504 wire bytes over a 256-byte window: 6 DATA_IN + CTRL pairs.
  EXPECT_EQ(f.master.bus_transactions(), 12u);
  EXPECT_EQ(arrival, Time::ns(1960));
}

TEST(ShipWrappers, LargeReplyIsChunkedBack) {
  WrapperFixture f;
  std::vector<std::uint8_t> reply_payload(1000, 0x5a);
  std::vector<std::uint8_t> got;
  Time done;
  f.sim.spawn_thread("m", [&] {
    PodMsg<std::uint8_t> req(1);
    VectorMsg<> resp;
    f.master.request(req, resp);
    got = resp.data;
    done = f.sim.now();
  });
  f.sim.spawn_thread("s", [&] {
    PodMsg<std::uint8_t> req;
    f.slave.recv(req);
    VectorMsg<> resp(reply_payload);
    f.slave.reply(resp);
  });
  f.sim.run();
  EXPECT_EQ(got, reply_payload);
  // The master re-reads RSTATUS before every reply chunk: the 1004 reply
  // bytes cross the 256-byte window in 4 RSTATUS/DATA_OUT/RACK rounds.
  EXPECT_EQ(f.master.bus_transactions(), 2u + 4u * 3u);
  EXPECT_EQ(f.master.poll_count(), 0u);
  EXPECT_EQ(done, Time::ns(1380));
}

// RSTATUS announces the remaining length in 24 bits, so a message whose
// serialized size does not fit is refused where it is queued. Unchecked,
// a 2^24-byte reply reads as "nothing queued" and the master polls
// forever.
TEST(ShipWrappers, ReplyBeyondTheLengthFieldThrows) {
  WrapperFixture f;
  f.sim.spawn_thread("m", [&] {
    PodMsg<std::uint8_t> req(1);
    VectorMsg<> resp;
    f.master.request(req, resp);
  });
  f.sim.spawn_thread("s", [&] {
    PodMsg<std::uint8_t> req;
    f.slave.recv(req);
    // 4-byte length prefix + payload = 2^24 bytes, one past kLenMask.
    VectorMsg<> resp(std::size_t{MailboxLayout::kLenMask} - 3);
    f.slave.reply(resp);
  });
  try {
    f.sim.run_for(Time::us(100));
    FAIL() << "an oversized reply was queued";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("16777216-byte message exceeds the "
                                         "16777215-byte limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShipWrappers, RoleViolationsThrow) {
  WrapperFixture f;
  f.sim.spawn_thread("bad", [&] {
    PodMsg<int> m;
    f.master.recv(m);  // slave call on master wrapper
  });
  EXPECT_THROW(f.sim.run(), ProtocolError);

  WrapperFixture g;
  g.sim.spawn_thread("bad2", [&] {
    PodMsg<int> m(1);
    g.slave.send(m);  // master call on slave wrapper
  });
  EXPECT_THROW(g.sim.run(), ProtocolError);
}

TEST(ShipWrappers, ReplyWithoutRequestThrows) {
  WrapperFixture f;
  f.sim.spawn_thread("bad", [&] {
    PodMsg<int> m(1);
    f.slave.reply(m);
  });
  EXPECT_THROW(f.sim.run(), ProtocolError);
}

TEST(ShipWrappers, CommunicationTakesBusTime) {
  WrapperFixture f;
  Time arrival;
  f.sim.spawn_thread("p", [&] {
    VectorMsg<> m(std::vector<std::uint8_t>(64, 7));
    f.master.send(m);
  });
  f.sim.spawn_thread("c", [&] {
    VectorMsg<> m;
    f.slave.recv(m);
    arrival = f.sim.now();
  });
  f.sim.run();
  // Unlike the untimed channel, refined communication costs bus cycles.
  EXPECT_GT(arrival, 0_ns);
  EXPECT_GT(f.bus.stats().counter("transactions"), 0u);
}

TEST(ShipWrappers, TwoChannelsShareOneBus) {
  Simulator sim;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<RoundRobinArbiter>());
  MailboxLayout l0{0x4000, 128}, l1{0x5000, 128};
  ShipSlaveWrapper s0(sim, "ch0.slave", l0), s1(sim, "ch1.slave", l1);
  bus.attach_slave(s0, l0.range(), "ch0");
  bus.attach_slave(s1, l1.range(), "ch1");
  ShipMasterWrapper m0(sim, "ch0.master", bus, bus.add_master("pe0"), l0, 50_ns);
  ShipMasterWrapper m1(sim, "ch1.master", bus, bus.add_master("pe1"), l1, 50_ns);

  int done = 0;
  sim.spawn_thread("p0", [&] {
    for (int i = 0; i < 10; ++i) {
      PodMsg<int> m(i);
      m0.send(m);
    }
  });
  sim.spawn_thread("p1", [&] {
    for (int i = 0; i < 10; ++i) {
      PodMsg<int> m(100 + i);
      m1.send(m);
    }
  });
  sim.spawn_thread("c0", [&] {
    PodMsg<int> m;
    for (int i = 0; i < 10; ++i) {
      s0.recv(m);
      EXPECT_EQ(m.value, i);
      ++done;
    }
  });
  sim.spawn_thread("c1", [&] {
    PodMsg<int> m;
    for (int i = 0; i < 10; ++i) {
      s1.recv(m);
      EXPECT_EQ(m.value, 100 + i);
      ++done;
    }
  });
  sim.run();
  EXPECT_EQ(done, 20);
}

// Property: wrapper-refined channel delivers byte-identical messages for
// a sweep of payload sizes around the window boundary.
class WrapperSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WrapperSizeSweep, LosslessAcrossWindowBoundary) {
  WrapperFixture f;  // window = 256
  const std::size_t n = GetParam();
  bool ok = false;
  f.sim.spawn_thread("p", [&] {
    VectorMsg<> m(std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(n)));
    f.master.send(m);
  });
  f.sim.spawn_thread("c", [&] {
    VectorMsg<> m;
    f.slave.recv(m);
    ok = m.data.size() == n &&
         std::all_of(m.data.begin(), m.data.end(), [&](std::uint8_t b) {
           return b == static_cast<std::uint8_t>(n);
         });
  });
  f.sim.run();
  EXPECT_TRUE(ok) << "payload " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, WrapperSizeSweep,
                         ::testing::Values(0u, 1u, 4u, 251u, 252u, 253u, 256u,
                                           257u, 511u, 512u, 513u, 4096u));
