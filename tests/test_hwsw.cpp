// Tests for the HW/SW interface: SHIP communication across the partition
// boundary through the HW adapter (mailbox + sideband IRQ) and the SW
// driver (device driver + communication library on the RTOS).
#include <gtest/gtest.h>

#include <numeric>

#include "cam/cam.hpp"
#include "cpu/cpu.hpp"
#include "cpu/irq.hpp"
#include "hwsw/hwsw.hpp"
#include "kernel/kernel.hpp"
#include "ocp/banked_memory.hpp"
#include "ocp/memory.hpp"
#include "rtos/rtos.hpp"
#include "ship/ship.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

// A complete HW/SW platform: CPU + RTOS + driver on one side, HW adapter
// on a PLB on the other, sideband IRQ in between.
struct HwSwFixture {
  Simulator sim;
  cam::PlbCam bus{sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>()};
  cam::MailboxLayout layout{0x8000, 256};
  hwsw::HwAdapter adapter{sim, "hwacc", layout, 10_ns};
  cpu::CpuModel cpu{sim, "cpu", 10_ns};
  cpu::IrqController ic{sim, "ic"};
  rtos::Rtos os{sim, "os", cpu, {1_us, 20}};
  hwsw::ShipDriver drv{"drv", os, cpu, layout};

  HwSwFixture() {
    bus.attach_slave(adapter, layout.range(), "hwacc");
    cpu.bus().bind(bus.master_port(bus.add_master("cpu")));
    ic.attach(adapter.irq(), 0);
    os.attach_isr(ic, [this](int line) {
      if (line == 0) drv.on_irq();
    });
  }

  void run_until_tasks_done() {
    sim.spawn_thread("watch", [this] {
      while (!os.all_tasks_terminated()) wait(10_us);
      sim.stop();
    });
    sim.run();
  }
};

}  // namespace

TEST(HwSw, SwMasterSendsToHwSlave) {
  HwSwFixture f;
  std::string got;
  f.os.create_task("app", 1, [&] {
    ship::StringMsg m("hello hardware");
    f.drv.send(m);
  });
  f.sim.spawn_thread("hw_pe", [&] {
    ship::StringMsg m;
    f.adapter.recv(m);
    got = m.text;
  });
  f.run_until_tasks_done();
  EXPECT_EQ(got, "hello hardware");
  EXPECT_EQ(f.adapter.messages_in(), 1u);
}

TEST(HwSw, SwRequestHwReplyRoundTrip) {
  HwSwFixture f;
  std::uint32_t answer = 0;
  f.os.create_task("app", 1, [&] {
    ship::PodMsg<std::uint32_t> req(7), resp;
    f.drv.request(req, resp);
    answer = resp.value;
  });
  f.sim.spawn_thread("hw_pe", [&] {
    ship::PodMsg<std::uint32_t> req;
    f.adapter.recv(req);
    ship::PodMsg<std::uint32_t> resp(req.value * 6);
    f.adapter.reply(resp);
  });
  f.run_until_tasks_done();
  EXPECT_EQ(answer, 42u);
  EXPECT_GE(f.adapter.irq_count(), 1u);   // reply delivered by interrupt
  EXPECT_GE(f.drv.isr_count(), 1u);
}

TEST(HwSw, HwMasterSendsToSwSlave) {
  HwSwFixture f;
  std::string got;
  f.os.create_task("app", 1, [&] {
    ship::StringMsg m;
    f.drv.recv(m);
    got = m.text;
  });
  f.sim.spawn_thread("hw_pe", [&] {
    wait(5_us);
    ship::StringMsg m("hello software");
    f.adapter.send(m);
  });
  f.run_until_tasks_done();
  EXPECT_EQ(got, "hello software");
  EXPECT_EQ(f.adapter.messages_out(), 1u);
  EXPECT_GE(f.adapter.irq_count(), 1u);
}

TEST(HwSw, HwRequestSwReplyRoundTrip) {
  HwSwFixture f;
  std::uint32_t answer = 0;
  f.os.create_task("app", 1, [&] {
    ship::PodMsg<std::uint32_t> req;
    f.drv.recv(req);
    ship::PodMsg<std::uint32_t> resp(req.value + 100);
    f.drv.reply(resp);
  });
  f.sim.spawn_thread("hw_pe", [&] {
    wait(2_us);
    ship::PodMsg<std::uint32_t> req(11), resp;
    f.adapter.request(req, resp);
    answer = resp.value;
  });
  f.run_until_tasks_done();
  EXPECT_EQ(answer, 111u);
}

TEST(HwSw, LargePayloadCrossesBoundaryChunked) {
  HwSwFixture f;  // 256-byte window
  std::vector<std::uint8_t> payload(3000);
  std::iota(payload.begin(), payload.end(), 0);
  std::vector<std::uint8_t> got;
  f.os.create_task("app", 1, [&] {
    ship::VectorMsg<> m(payload);
    f.drv.send(m);
  });
  f.sim.spawn_thread("hw_pe", [&] {
    ship::VectorMsg<> m;
    f.adapter.recv(m);
    got = m.data;
  });
  f.run_until_tasks_done();
  EXPECT_EQ(got, payload);
}

TEST(HwSw, LargeReplyDrainedByIsr) {
  HwSwFixture f;
  std::vector<std::uint8_t> reply_payload(1200, 0x3c);
  std::vector<std::uint8_t> got;
  Time done;
  f.os.create_task("app", 1, [&] {
    ship::PodMsg<std::uint8_t> req(1);
    ship::VectorMsg<> resp;
    f.drv.request(req, resp);
    got = resp.data;
    done = f.sim.now();
  });
  f.sim.spawn_thread("hw_pe", [&] {
    ship::PodMsg<std::uint8_t> req;
    f.adapter.recv(req);
    ship::VectorMsg<> resp(reply_payload);
    f.adapter.reply(resp);
  });
  f.run_until_tasks_done();
  EXPECT_EQ(got, reply_payload);
  // The ISR reads RSTATUS once per message and drains the 1204 reply
  // bytes in 5 DATA_OUT/RACK rounds; the pulser keeps re-raising the IRQ
  // until the last RACK.
  EXPECT_EQ(f.adapter.irq_count(), 120u);
  EXPECT_EQ(f.drv.isr_count(), 2u);
  EXPECT_EQ(f.cpu.bus_transactions(), 15u);
  EXPECT_EQ(done, Time::ns(3330));
}

TEST(HwSw, BackToBackMessagesAllArrive) {
  HwSwFixture f;
  constexpr int kCount = 10;
  int matches = 0;
  Time last;
  f.os.create_task("app", 1, [&] {
    for (int i = 0; i < kCount; ++i) {
      ship::PodMsg<int> m;
      f.drv.recv(m);
      if (m.value == i) ++matches;
    }
    last = f.sim.now();
  });
  f.sim.spawn_thread("hw_pe", [&] {
    for (int i = 0; i < kCount; ++i) {
      ship::PodMsg<int> m(i);
      f.adapter.send(m);
    }
  });
  f.run_until_tasks_done();
  EXPECT_EQ(matches, kCount);
  // The pulser re-raises the IRQ while messages stay queued.
  EXPECT_EQ(f.adapter.irq_count(), 57u);
  EXPECT_EQ(f.drv.isr_count(), 2u);
  EXPECT_EQ(f.cpu.bus_transactions(), 32u);
  EXPECT_EQ(last, Time::ns(1260));
}

TEST(HwSw, RoleConflictsDetectedOnBothSides) {
  {
    HwSwFixture f;
    f.sim.spawn_thread("hw_pe", [&] {
      ship::PodMsg<int> m(1);
      f.adapter.send(m);
      f.adapter.recv(m);  // conflict: master then slave call
    });
    EXPECT_THROW(f.sim.run(), ProtocolError);
  }
  {
    HwSwFixture f;
    f.os.create_task("app", 1, [&] {
      ship::PodMsg<int> m(1);
      f.drv.send(m);
      f.drv.recv(m);  // conflict on the SW side
    });
    bool threw = false;
    try {
      f.run_until_tasks_done();
    } catch (const ProtocolError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }
}

TEST(HwSw, ReplyWithoutRequestThrowsOnDriver) {
  HwSwFixture f;
  f.os.create_task("app", 1, [&] {
    ship::PodMsg<int> m(1);
    f.drv.reply(m);
  });
  EXPECT_THROW(f.run_until_tasks_done(), ProtocolError);
}

// The ROADMAP item "exercise post() windows from the HW/SW driver
// path": on a split PLB, the blocking driver/ISR path (CPU mmio reads
// draining the adapter mailbox) shares the bus with a DMA master that
// keeps a posted window of writes in flight against targets with very
// different service times. The bus genuinely completes the DMA's
// transactions out of issue order, and the driver's mailbox protocol
// must still deliver every message to the RTOS task in order and
// intact.
TEST(HwSw, PostedDmaWindowsDoNotPerturbInOrderDriverDelivery) {
  Simulator sim;
  cam::PlbCam bus{sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>(),
                  0, cam::SplitConfig{true, 4}};
  ASSERT_TRUE(bus.split_active());
  cam::MailboxLayout layout{0x8000, 256};
  hwsw::HwAdapter adapter{sim, "hwacc", layout, 10_ns};
  cpu::CpuModel cpu{sim, "cpu", 10_ns};
  cpu::IrqController ic{sim, "ic"};
  rtos::Rtos os{sim, "os", cpu, {1_us, 20}};
  hwsw::ShipDriver drv{"drv", os, cpu, layout};
  bus.attach_slave(adapter, layout.range(), "hwacc");
  // Two DMA targets with wildly different service times: a slow flat
  // memory and a banked DRAM — the recipe for OoO completion.
  ocp::MemorySlave slowmem("slowmem", 0x100000, 0x1000, 500_ns);
  ocp::BankedMemorySlave dram("dram", 0x200000, 0x10000);
  bus.attach_slave(slowmem, {0x100000, 0x1000}, "slowmem");
  bus.attach_slave(dram, {0x200000, 0x10000}, "dram");
  cpu.bus().bind(bus.master_port(bus.add_master("cpu")));
  const std::size_t dma_idx = bus.add_master("dma");
  ic.attach(adapter.irq(), 0);
  os.attach_isr(ic, [&](int line) {
    if (line == 0) drv.on_irq();
  });

  constexpr int kCount = 12;
  std::vector<int> got;
  os.create_task("app", 1, [&] {
    for (int i = 0; i < kCount; ++i) {
      ship::PodMsg<int> m;
      drv.recv(m);
      got.push_back(m.value);
    }
  });
  sim.spawn_thread("hw_pe", [&] {
    for (int i = 0; i < kCount; ++i) {
      ship::PodMsg<int> m(i);
      adapter.send(m);
    }
  });

  bool ooo_seen = false;
  bool dma_done = false;
  int dma_completed = 0;
  sim.spawn_thread("dma", [&] {
    std::vector<std::uint8_t> big(256, 0xd1), small(8, 0xd2);
    for (int i = 0; i < 16; ++i) {
      Txn a, b;
      a.begin_write(0x100000 + static_cast<std::uint64_t>(i % 8) * 64,
                    big.data(), big.size());       // slow target, issued first
      b.begin_write(0x200000 + static_cast<std::uint64_t>(i) * 64,
                    small.data(), small.size());   // fast target, issued second
      bus.post(dma_idx, a);
      bus.post(dma_idx, b);
      b.done.wait(sim);
      if (!a.done.completed()) ooo_seen = true;  // b overtook a on the bus
      a.done.wait(sim);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      dma_completed += 2;
    }
    dma_done = true;
  });

  sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated() || !dma_done) wait(10_us);
    sim.stop();
  });
  sim.run();

  // In-order, intact delivery to the RTOS side...
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  // ...while the bus demonstrably completed the posted window OoO.
  EXPECT_TRUE(ooo_seen) << "posted window never reordered - not a split bus?";
  EXPECT_EQ(dma_completed, 32);
  EXPECT_EQ(slowmem.writes(), 16u);
  EXPECT_EQ(dram.writes(), 16u);
}

TEST(HwSw, CommunicationConsumesCpuAndBusTime) {
  HwSwFixture f;
  Time req_latency;
  f.os.create_task("app", 1, [&] {
    ship::PodMsg<std::uint32_t> req(1), resp;
    const Time s = f.sim.now();
    f.drv.request(req, resp);
    req_latency = f.sim.now() - s;
  });
  f.sim.spawn_thread("hw_pe", [&] {
    ship::PodMsg<std::uint32_t> req;
    f.adapter.recv(req);
    ship::PodMsg<std::uint32_t> resp(req.value);
    f.adapter.reply(resp);
  });
  f.run_until_tasks_done();
  // Round trip includes driver overhead + bus writes + IRQ + ISR reads.
  EXPECT_GT(req_latency, 1_us);
  EXPECT_GT(f.cpu.bus_transactions(), 4u);
}
