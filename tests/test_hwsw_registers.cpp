// Register-level tests of the SHIP mailbox: drive a front-end's OCP slave
// interface directly (as a bus master / device driver would) and check
// the register semantics bit by bit — the contract the SW driver and the
// HW/HW master wrapper rely on.
#include <gtest/gtest.h>

#include "cam/cam.hpp"
#include "hwsw/hwsw.hpp"
#include "kernel/kernel.hpp"
#include "ship/ship.hpp"

using namespace stlm;
using namespace stlm::hwsw;
using namespace stlm::time_literals;

namespace {

std::vector<std::uint8_t> word(std::uint32_t v) {
  std::vector<std::uint8_t> b(4);
  for (int i = 0; i < 4; ++i) {
    b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return b;
}

std::uint32_t as_word(const std::vector<std::uint8_t>& b) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
  return v;
}

struct AdapterFixture {
  Simulator sim;
  cam::MailboxLayout layout{0x1000, 64};
  HwAdapter adapter{sim, "ad", layout};
};

}  // namespace

// The inbound half of the register protocol is shared by both mailbox
// front-ends: the HW/SW adapter (driven by the SW driver) and the HW/HW
// slave wrapper (driven by a ShipMasterWrapper). These cases run against
// both.
struct AdapterFront {
  Simulator sim;
  cam::MailboxLayout layout{0x1000, 64};
  HwAdapter dut{sim, "ad", layout};
};

struct WrapperFront {
  Simulator sim;
  cam::MailboxLayout layout{0x1000, 64};
  cam::ShipSlaveWrapper dut{sim, "sw", layout};
};

template <class Front>
class MailboxRegisters : public ::testing::Test {
 protected:
  Front f;
};

using FrontEnds = ::testing::Types<AdapterFront, WrapperFront>;
TYPED_TEST_SUITE(MailboxRegisters, FrontEnds);

TYPED_TEST(MailboxRegisters, CtrlCommitsStagedChunk) {
  auto& f = this->f;
  std::string got;
  f.sim.spawn_thread("bus_master", [&] {
    // Stage "hi" + length prefix via DATA_IN, then commit with CTRL.
    ship::StringMsg msg("hi");
    const auto bytes = ship::to_bytes(msg);
    EXPECT_TRUE(
        f.dut.handle(ocp::Request::write(f.layout.data_in(), bytes)).good());
    const std::uint32_t ctrl =
        static_cast<std::uint32_t>(bytes.size()) | cam::MailboxLayout::kLastFlag;
    EXPECT_TRUE(
        f.dut.handle(ocp::Request::write(f.layout.ctrl(), word(ctrl))).good());
  });
  f.sim.spawn_thread("pe", [&] {
    ship::StringMsg m;
    f.dut.recv(m);
    got = m.text;
  });
  f.sim.run();
  EXPECT_EQ(got, "hi");
  EXPECT_EQ(f.dut.messages_in(), 1u);
}

TYPED_TEST(MailboxRegisters, MultiChunkAssembly) {
  auto& f = this->f;  // 64-byte window
  std::vector<std::uint8_t> got;
  f.sim.spawn_thread("bus_master", [&] {
    // A 100-byte logical message in two chunks: 64 + 36.
    std::vector<std::uint8_t> part1(64), part2(36);
    for (int i = 0; i < 64; ++i) part1[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(i);
    for (int i = 0; i < 36; ++i) part2[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(64 + i);
    f.dut.handle(ocp::Request::write(f.layout.data_in(), part1));
    f.dut.handle(ocp::Request::write(f.layout.ctrl(), word(64)));
    f.dut.handle(ocp::Request::write(f.layout.data_in(), part2));
    f.dut.handle(ocp::Request::write(
        f.layout.ctrl(), word(36u | cam::MailboxLayout::kLastFlag)));
  });
  f.sim.spawn_thread("pe", [&] {
    // The PE sees one contiguous 100-byte payload.
    class Raw final : public ship::ship_serializable_if {
     public:
      void serialize(ship::Serializer& s) const override {
        s.put_bytes(data.data(), data.size());
      }
      void deserialize(ship::Deserializer& d) override {
        data.resize(d.remaining());
        d.get_bytes(data.data(), data.size());
      }
      std::vector<std::uint8_t> data;
    } raw;
    f.dut.recv(raw);
    got = raw.data;
  });
  f.sim.run();
  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(got[0], 0u);
  EXPECT_EQ(got[99], 99u);
}

TYPED_TEST(MailboxRegisters, OversizedChunkRejected) {
  auto& f = this->f;
  f.sim.spawn_thread("bus_master", [&] {
    // len exceeds window: error response, nothing committed.
    const auto r = f.dut.handle(ocp::Request::write(
        f.layout.ctrl(), word(65u | cam::MailboxLayout::kLastFlag)));
    EXPECT_FALSE(r.good());
  });
  f.sim.run();
  EXPECT_EQ(f.dut.messages_in(), 0u);
}

TYPED_TEST(MailboxRegisters, UnmappedOffsetsError) {
  auto& f = this->f;
  f.sim.spawn_thread("bus_master", [&] {
    EXPECT_FALSE(
        f.dut.handle(ocp::Request::write(f.layout.base + 0x0c, word(0)))
            .good());
    EXPECT_FALSE(
        f.dut.handle(ocp::Request::read(f.layout.base + 0x0c, 4)).good());
    // Reads/writes straddling the window edge fail too.
    EXPECT_FALSE(f.dut
                     .handle(ocp::Request::write(
                         f.layout.data_in() + 62, {1, 2, 3, 4}))
                     .good());
  });
  f.sim.run();
}

// A chunk must hold one word, and its length must fit the descriptor's
// 24-bit len field; either front-end rejects any other window.
TEST(MailboxWindow, BoundsCheckedOnBothFrontEnds) {
  for (std::uint32_t w : {0u, 3u, cam::MailboxLayout::kLenMask + 1}) {
    Simulator sim;
    const cam::MailboxLayout layout{0x1000, w};
    EXPECT_THROW(HwAdapter(sim, "ad", layout), SimulationError) << w;
    EXPECT_THROW(cam::ShipSlaveWrapper(sim, "sw", layout), SimulationError)
        << w;
  }
  Simulator sim;
  EXPECT_NO_THROW(HwAdapter(sim, "ad", {0x1000, 4}));
}

TEST(HwAdapterRegisters, RstatusReflectsOutboundHead) {
  AdapterFixture f;
  f.sim.spawn_thread("hw_pe", [&] {
    ship::PodMsg<std::uint32_t> m(0xfeedface);
    f.adapter.send(m);
  });
  f.sim.spawn_thread("bus_master", [&] {
    wait(1_us);  // let the HW PE enqueue
    const auto st =
        f.adapter.handle(ocp::Request::read(f.layout.rstatus(), 4));
    ASSERT_TRUE(st.good());
    const std::uint32_t status = as_word(st.data);
    EXPECT_EQ(status & cam::MailboxLayout::kLenMask, 4u);       // 4 payload bytes
    EXPECT_EQ(status & cam::MailboxLayout::kReplyFlag, 0u);     // plain send
    // Read the data window and acknowledge.
    const auto data =
        f.adapter.handle(ocp::Request::read(f.layout.data_out(), 4));
    ASSERT_TRUE(data.good());
    EXPECT_EQ(as_word(data.data), 0xfeedfaceu);
    f.adapter.handle(ocp::Request::write(f.layout.rack(), word(0)));
    // Queue drained.
    const auto st2 =
        f.adapter.handle(ocp::Request::read(f.layout.rstatus(), 4));
    EXPECT_EQ(as_word(st2.data) & cam::MailboxLayout::kLenMask, 0u);
  });
  f.sim.run();
}

// The IRQ is a level: high exactly while an outbound message is queued,
// with one rising edge per empty -> non-empty transition of the queue.
TEST(HwAdapterRegisters, IrqLineFollowsOutboundQueue) {
  AdapterFixture f;
  int posedges = 0;
  f.sim.spawn_method("count", [&] { ++posedges; },
                     {&f.adapter.irq().posedge_event()},
                     /*run_at_start=*/false);
  std::vector<std::string> mismatches;
  // Samples the settled line against the queue once per 50 ns.
  f.sim.spawn_thread("probe", [&] {
    for (int i = 0; i < 60; ++i) {
      wait(50_ns);
      const bool queued =
          (as_word(f.adapter.handle(ocp::Request::read(f.layout.rstatus(), 4))
                       .data) &
           cam::MailboxLayout::kLenMask) != 0;
      if (f.adapter.irq().read() != queued) {
        mismatches.push_back(f.sim.now().to_string());
      }
    }
  });
  f.sim.spawn_thread("hw_pe", [&] {
    ship::PodMsg<int> m(1);
    f.adapter.send(m);
    wait(1_us);
    // Second message while the first is still queued: no new edge, and
    // the line stays high after the first RACK.
    f.adapter.send(m);
    wait(1_us);
  });
  f.sim.spawn_thread("bus_master", [&] {
    wait(1510_ns);  // both messages queued
    for (int i = 0; i < 2; ++i) {
      const std::uint32_t len =
          as_word(f.adapter.handle(ocp::Request::read(f.layout.rstatus(), 4))
                      .data) &
          cam::MailboxLayout::kLenMask;
      ASSERT_NE(len, 0u);
      f.adapter.handle(ocp::Request::read(f.layout.data_out(), len));
      f.adapter.handle(ocp::Request::write(f.layout.rack(), word(0)));
      wait(200_ns);
      EXPECT_EQ(f.adapter.irq().read(), i == 0) << "after RACK " << i;
    }
  });
  f.sim.run();
  EXPECT_TRUE(mismatches.empty()) << ::testing::PrintToString(mismatches);
  EXPECT_EQ(posedges, 1);
  EXPECT_EQ(f.adapter.irq_count(), 1u);
  EXPECT_FALSE(f.adapter.irq().read());
}

TEST(HwAdapterRegisters, ReplyFlagRoutesToReplyQueue) {
  AdapterFixture f;
  std::uint32_t answer = 0;
  f.sim.spawn_thread("hw_pe", [&] {
    ship::PodMsg<std::uint32_t> req(5), resp;
    f.adapter.request(req, resp);
    answer = resp.value;
  });
  f.sim.spawn_thread("bus_master", [&] {
    // Drain the outbound request.
    wait(1_us);
    const auto st = f.adapter.handle(ocp::Request::read(f.layout.rstatus(), 4));
    const std::uint32_t status = as_word(st.data);
    EXPECT_NE(status & cam::MailboxLayout::kRequestFlag, 0u);
    f.adapter.handle(ocp::Request::read(f.layout.data_out(),
                                        status & cam::MailboxLayout::kLenMask));
    f.adapter.handle(ocp::Request::write(f.layout.rack(), word(0)));
    // Push the reply with the reply flag: must wake request(), not recv().
    f.adapter.handle(
        ocp::Request::write(f.layout.data_in(), word(1234)));
    f.adapter.handle(ocp::Request::write(
        f.layout.ctrl(),
        word(4u | cam::MailboxLayout::kLastFlag | cam::MailboxLayout::kReplyFlag)));
  });
  f.sim.run();
  EXPECT_EQ(answer, 1234u);
}
