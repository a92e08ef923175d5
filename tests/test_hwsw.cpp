// Tests for the HW/SW interface: SHIP communication across the partition
// boundary through the HW adapter (mailbox + sideband IRQ) and the SW
// driver (device driver + communication library on the RTOS).
#include <gtest/gtest.h>

#include <algorithm>
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
#include "workload/rng.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

// A complete HW/SW platform: CPU + RTOS + driver on one side, HW adapter
// on a PLB on the other, sideband IRQ in between.
struct HwSwFixture {
  Simulator sim;
  cam::PlbCam bus{sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>()};
  cam::MailboxLayout layout{0x8000, 256};
  hwsw::HwAdapter adapter{sim, "hwacc", layout};
  cpu::CpuModel cpu{sim, "cpu", 10_ns};
  cpu::IrqController ic{sim, "ic"};
  rtos::Rtos os{sim, "os", cpu, {1_us, 20}};
  hwsw::ShipDriver drv{"drv", os, cpu, layout};

  HwSwFixture() {
    bus.attach_slave(adapter, layout.range(), "hwacc");
    cpu.bind_bus(bus.master_port(bus.add_master("cpu")));
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
  // One edge and one ISR: the ISR reads RSTATUS, drains the 1204 reply
  // bytes in 5 DATA_OUT/RACK rounds and reads RSTATUS = 0; with the 2
  // request writes that is 14 CPU transactions.
  EXPECT_EQ(f.adapter.irq_count(), 1u);
  EXPECT_EQ(f.drv.isr_count(), 1u);
  EXPECT_EQ(f.cpu.bus_transactions(), 14u);
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
  // All ten are queued behind one rising edge; one ISR drains them
  // (3 transactions each) and ends on RSTATUS = 0.
  EXPECT_EQ(f.adapter.irq_count(), 1u);
  EXPECT_EQ(f.drv.isr_count(), 1u);
  EXPECT_EQ(f.cpu.bus_transactions(), 31u);
  EXPECT_EQ(last, Time::ns(1260));
}

// Each round trip takes exactly one ISR. Its drain ends on RSTATUS = 0
// with the line low, so no interrupt is left latched for the next trip:
// the next reply raises a fresh edge and pays the ISR entry cost then.
// Per trip: 2 request writes, then RSTATUS, DATA_OUT, RACK, RSTATUS.
TEST(HwSw, NoSpuriousIsrBetweenRoundTrips) {
  HwSwFixture f;
  std::vector<Time> done;
  std::vector<std::uint64_t> txns;
  f.os.create_task("app", 1, [&] {
    for (std::uint32_t i = 0; i < 3; ++i) {
      ship::PodMsg<std::uint32_t> req(i), resp;
      f.drv.request(req, resp);
      EXPECT_EQ(resp.value, i + 1);
      done.push_back(f.sim.now());
      txns.push_back(f.cpu.bus_transactions());
    }
  });
  f.sim.spawn_thread("hw_pe", [&] {
    for (int i = 0; i < 3; ++i) {
      ship::PodMsg<std::uint32_t> req;
      f.adapter.recv(req);
      ship::PodMsg<std::uint32_t> resp(req.value + 1);
      f.adapter.reply(resp);
    }
  });
  f.run_until_tasks_done();
  EXPECT_EQ(f.drv.isr_count(), 3u);
  EXPECT_EQ(f.adapter.irq_count(), 3u);
  EXPECT_EQ(txns, (std::vector<std::uint64_t>{6, 12, 18}));
  EXPECT_EQ(done, (std::vector<Time>{Time::ns(1790), Time::ns(3380),
                                      Time::ns(4970)}));
  EXPECT_FALSE(f.adapter.irq().read());
}

namespace {

enum class StressBus { Plb, SharedBus, Crossbar };

std::unique_ptr<cam::CamIf> make_stress_bus(Simulator& sim, StressBus kind) {
  switch (kind) {
    case StressBus::Plb:
      return std::make_unique<cam::PlbCam>(
          sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>());
    case StressBus::SharedBus:
      return std::make_unique<cam::SharedBusCam>(
          sim, "bus", 10_ns, std::make_unique<cam::PriorityArbiter>());
    case StressBus::Crossbar:
      return std::make_unique<cam::CrossbarCam>(sim, "xbar", 10_ns);
  }
  return nullptr;
}

const char* stress_bus_name(StressBus kind) {
  switch (kind) {
    case StressBus::Plb: return "plb";
    case StressBus::SharedBus: return "shared-bus";
    case StressBus::Crossbar: return "crossbar";
  }
  return "?";
}

// The HW/SW fixture on a chosen bus, with no polling watcher: the run
// ends when the events run out, so every resume counted is real work.
struct StressRig {
  Simulator sim;
  std::unique_ptr<cam::CamIf> bus;
  cam::MailboxLayout layout{0x8000, 256};
  hwsw::HwAdapter adapter{sim, "hwacc", layout};
  cpu::CpuModel cpu{sim, "cpu", 10_ns};
  cpu::IrqController ic{sim, "ic"};
  rtos::Rtos os{sim, "os", cpu, {1_us, 20}};
  hwsw::ShipDriver drv{"drv", os, cpu, layout};

  explicit StressRig(StressBus kind) : bus(make_stress_bus(sim, kind)) {
    bus->attach_slave(adapter, layout.range(), "hwacc");
    cpu.bind_bus(bus->master_port(bus->add_master("cpu")));
    ic.attach(adapter.irq(), 0);
    os.attach_isr(ic, [this](int line) {
      if (line == 0) drv.on_irq();
    });
  }

  bool outbound_empty() {
    return (cam::MailboxLayout::kLenMask &
            ocp::u32_from_le(
                adapter.handle(ocp::Request::read(layout.rstatus(), 4))
                    .data.data())) == 0;
  }
};

// Message i of a seeded stream: 1..300 bytes (so some take two chunks of
// the 256-byte window), every byte derived from i and its position.
std::vector<std::vector<std::uint8_t>> stress_messages(std::uint64_t seed,
                                                       int count) {
  workload::SplitMix64 rng(seed);
  std::vector<std::vector<std::uint8_t>> msgs;
  for (int i = 0; i < count; ++i) {
    std::vector<std::uint8_t> m(rng.uniform(1, 300));
    for (std::size_t k = 0; k < m.size(); ++k) {
      m[k] = static_cast<std::uint8_t>(i * 7 + static_cast<int>(k));
    }
    msgs.push_back(std::move(m));
  }
  return msgs;
}

constexpr std::uint64_t kStressSeed = 20261018;
constexpr StressBus kStressBuses[] = {StressBus::Plb, StressBus::SharedBus,
                                      StressBus::Crossbar};
// Thread resumes per message a level IRQ stays under. An IRQ re-pulsed
// every 2 bus cycles while a message waits costs over 130.
constexpr std::uint64_t kMaxResumesPerMessage = 20;

}  // namespace

// A level IRQ must lose no wakeup. The HW PE sends with every gap of
// 0..250 bus cycles, so puts land back to back, behind a queue the ISR
// is draining, behind an empty queue, and, for some gaps, in the very
// delta of the RACK that empties the queue (that put makes no edge; the
// ISR's closing RSTATUS read must catch it). Every message arrives in
// order, the line ends low with nothing queued, and nothing re-pulses.
TEST(HwSw, LevelIrqLosesNoMessageUnderSendGaps) {
  constexpr int kMessages = 8;
  constexpr std::uint64_t kMaxGap = 250;
  for (StressBus kind : kStressBuses) {
    std::uint64_t raced_puts = 0, resumes = 0;
    for (std::uint64_t gap = 0; gap <= kMaxGap; ++gap) {
      SCOPED_TRACE(std::string(stress_bus_name(kind)) + " gap " +
                   std::to_string(gap));
      StressRig r(kind);
      const auto msgs = stress_messages(kStressSeed ^ gap, kMessages);
      int in_order = 0;
      r.os.create_task("app", 1, [&] {
        for (int i = 0; i < kMessages; ++i) {
          ship::VectorMsg<> m;
          r.drv.recv(m);
          if (m.data == msgs[static_cast<std::size_t>(i)]) ++in_order;
        }
      });
      r.sim.spawn_thread("hw_pe", [&] {
        for (int i = 0; i < kMessages; ++i) {
          // A high settled line over an empty queue means a RACK emptied
          // it in this very delta.
          if (r.adapter.irq().read() && r.outbound_empty()) ++raced_puts;
          ship::VectorMsg<> m(msgs[static_cast<std::size_t>(i)]);
          r.adapter.send(m);
          if (gap > 0) {
            // The last half cycle is its own wait, so this wake is queued
            // after the CPU's wake for a bus access that ends at the same
            // instant, and the put runs in that access's delta, after it.
            wait(Time::ns(10 * gap - 5));
            wait(5_ns);
          }
        }
      });
      r.sim.run();
      EXPECT_EQ(in_order, kMessages);
      EXPECT_TRUE(r.os.all_tasks_terminated());
      EXPECT_FALSE(r.adapter.irq().read());
      EXPECT_TRUE(r.outbound_empty());
      EXPECT_LE(r.drv.isr_count(), r.adapter.irq_count());
      resumes += r.sim.ctx_switches();
    }
    SCOPED_TRACE(stress_bus_name(kind));
    EXPECT_GT(raced_puts, 0u) << "no put landed in the delta of a last RACK";
    EXPECT_LE(resumes, kMaxResumesPerMessage * kMessages * (kMaxGap + 1));
  }
}

// The request/reply variant: the SW task makes 150 requests, and the HW
// PE replies to each after a seeded gap of 0..40 bus cycles, so every
// reply crosses back on its own rising edge and ISR.
TEST(HwSw, LevelIrqLosesNoReplyUnderSeededReplyGaps) {
  constexpr int kTrips = 150;
  for (StressBus kind : kStressBuses) {
    SCOPED_TRACE(stress_bus_name(kind));
    StressRig r(kind);
    const auto msgs = stress_messages(kStressSeed, kTrips);
    int in_order = 0;
    r.os.create_task("app", 1, [&] {
      for (int i = 0; i < kTrips; ++i) {
        ship::VectorMsg<> req(msgs[static_cast<std::size_t>(i)]), resp;
        r.drv.request(req, resp);
        std::reverse(req.data.begin(), req.data.end());
        if (resp.data == req.data) ++in_order;
      }
    });
    r.sim.spawn_thread("hw_pe", [&] {
      workload::SplitMix64 gaps(kStressSeed + 1);
      for (int i = 0; i < kTrips; ++i) {
        ship::VectorMsg<> m;
        r.adapter.recv(m);
        const std::uint64_t gap = gaps.uniform(0, 40);
        if (gap > 0) wait(Time::ns(10 * gap));
        std::reverse(m.data.begin(), m.data.end());
        r.adapter.reply(m);
      }
    });
    r.sim.run();
    EXPECT_EQ(in_order, kTrips);
    EXPECT_TRUE(r.os.all_tasks_terminated());
    EXPECT_FALSE(r.adapter.irq().read());
    EXPECT_TRUE(r.outbound_empty());
    EXPECT_EQ(r.drv.isr_count(), static_cast<std::uint64_t>(kTrips));
    EXPECT_EQ(r.adapter.irq_count(), static_cast<std::uint64_t>(kTrips));
    // Each trip carries two messages, one each way.
    EXPECT_LE(r.sim.ctx_switches(), kMaxResumesPerMessage * 2 * kTrips);
  }
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
  hwsw::HwAdapter adapter{sim, "hwacc", layout};
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
  cpu.bind_bus(bus.master_port(bus.add_master("cpu")));
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
