// Tests for the CPU model, interrupt controller, and RTOS substrate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cam/cam.hpp"
#include "cpu/cpu.hpp"
#include "cpu/irq.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "rtos/rtos.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

struct CpuFixture {
  Simulator sim;
  cam::SharedBusCam bus{sim, "bus", 10_ns,
                        std::make_unique<cam::PriorityArbiter>()};
  ocp::MemorySlave mem{"mem", 0x0, 0x10000};
  cpu::CpuModel cpu{sim, "cpu", 10_ns};

  CpuFixture() {
    bus.attach_slave(mem, {0x0, 0x10000}, "mem");
    cpu.bind_bus(bus.master_port(bus.add_master("cpu")));
  }
};

}  // namespace

TEST(Cpu, ConsumeAdvancesTimeByCycles) {
  CpuFixture f;
  Time done;
  f.sim.spawn_thread("prog", [&] {
    f.cpu.consume(100);
    done = f.sim.now();
    f.sim.stop();  // the free-running clock would keep run() alive
  });
  f.sim.run();
  EXPECT_EQ(done, 1000_ns);
  EXPECT_EQ(f.cpu.cycles_consumed(), 100u);
}

TEST(Cpu, MmioWordRoundtrip) {
  CpuFixture f;
  std::uint32_t got = 0;
  f.sim.spawn_thread("prog", [&] {
    f.cpu.mmio_write32(0x100, 0xcafebabe);
    got = f.cpu.mmio_read32(0x100);
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(got, 0xcafebabeu);
  EXPECT_EQ(f.cpu.bus_transactions(), 2u);
}

TEST(Cpu, MmioBusErrorThrows) {
  CpuFixture f;
  f.sim.spawn_thread("prog", [&] { f.cpu.mmio_read32(0xdead0000); });
  EXPECT_THROW(f.sim.run(), ProtocolError);
}

TEST(Cpu, UnboundBusFailsNamingTheCpu) {
  Simulator sim;
  Module soc(sim, "soc");
  cpu::CpuModel cpu(sim, "cpu", 10_ns, &soc);
  sim.spawn_thread("prog", [&] { cpu.mmio_write32(0x100, 1); });
  try {
    sim.run();
    FAIL() << "MMIO on an unbound CPU must throw";
  } catch (const ElaborationError& e) {
    EXPECT_NE(std::string(e.what()).find("soc.cpu"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cpu.bus_transactions(), 0u);
}

TEST(Cpu, SecondBusBindThrows) {
  CpuFixture f;
  EXPECT_THROW(f.cpu.bind_bus(f.bus.master_port(f.bus.add_master("dup"))),
               SimulationError);
}

TEST(Irq, EdgeLatchedAndClaimed) {
  Simulator sim;
  Signal<bool> line(sim, "line", false);
  cpu::IrqController ic(sim, "ic");
  ic.attach(line, 3);
  int claimed = -2;
  sim.spawn_thread("isr", [&] {
    wait(ic.irq_event());
    claimed = ic.claim();
  });
  sim.spawn_thread("hw", [&] {
    wait(5_ns);
    line.write(true);
    wait(5_ns);
    line.write(false);
  });
  sim.run();
  EXPECT_EQ(claimed, 3);
  EXPECT_EQ(ic.pending(), 0u);
  EXPECT_EQ(ic.claim(), -1);
  EXPECT_EQ(ic.interrupts_taken(), 1u);
}

TEST(Rtos, TasksRunByPriority) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, 0});
  std::vector<std::string> order;
  os.create_task("low", 1, [&] { order.push_back("low"); });
  os.create_task("high", 9, [&] { order.push_back("high"); });
  os.create_task("mid", 5, [&] { order.push_back("mid"); });
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(1_us);
    f.sim.stop();
  });
  f.sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "low");
}

TEST(Rtos, DelayTicksWakesOnTime) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, 0});
  Time woke;
  os.create_task("sleeper", 1, [&] {
    os.delay_ticks(5);
    woke = f.sim.now();
  });
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(1_us);
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(woke, 5_us);
}

TEST(Rtos, YieldRotatesEqualPriorityTasks) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, 0});
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    os.create_task("t" + std::to_string(id), 1, [&, id] {
      for (int i = 0; i < 3; ++i) {
        order.push_back(id);
        os.yield();
      }
    });
  }
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(1_us);
    f.sim.stop();
  });
  f.sim.run();
  ASSERT_EQ(order.size(), 6u);
  // Tasks alternate: 0 1 0 1 0 1.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Rtos, SemaphoreBlocksAndHandsOff) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, 0});
  rtos::Semaphore sem(os, "sem", 0);
  std::vector<std::string> order;
  os.create_task("waiter", 5, [&] {
    order.push_back("wait-start");
    sem.wait();
    order.push_back("wait-done");
  });
  os.create_task("poster", 1, [&] {
    order.push_back("post");
    sem.post();
    os.yield();
  });
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(1_us);
    f.sim.stop();
  });
  f.sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "wait-start");  // high prio runs first, blocks
  EXPECT_EQ(order[1], "post");
  EXPECT_EQ(order[2], "wait-done");   // woken, preempts at post's yield
}

TEST(Rtos, QueueTransfersInOrder) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, 0});
  rtos::Queue<int> q(os, "q", 4);
  std::vector<int> got;
  os.create_task("producer", 2, [&] {
    for (int i = 0; i < 20; ++i) q.send(i);
  });
  os.create_task("consumer", 1, [&] {
    for (int i = 0; i < 20; ++i) got.push_back(q.recv());
  });
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(1_us);
    f.sim.stop();
  });
  f.sim.run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Rtos, ContextSwitchCostIsCharged) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, 100});
  os.create_task("a", 1, [&] { os.yield(); });
  os.create_task("b", 1, [&] { os.yield(); });
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(10_us);
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_GE(os.context_switches(), 4u);
  EXPECT_GE(f.cpu.cycles_consumed(), 100u * os.context_switches());
}

TEST(Rtos, IsrWakesBlockedTask) {
  CpuFixture f;
  Signal<bool> line(f.sim, "line", false);
  cpu::IrqController ic(f.sim, "ic");
  ic.attach(line, 0);
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, 10});
  rtos::Semaphore sem(os, "sem", 0);
  Time woke;
  os.create_task("waiter", 5, [&] {
    sem.wait();
    woke = f.sim.now();
  });
  os.attach_isr(ic, [&](int l) {
    if (l == 0) sem.post_from_isr();
  });
  f.sim.spawn_thread("hw", [&] {
    wait(100_us);
    line.write(true);
    wait(1_us);
    line.write(false);
  });
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(10_us);
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_GE(woke, 100_us);
  EXPECT_LT(woke, 110_us);
  EXPECT_EQ(ic.interrupts_taken(), 1u);
}

TEST(Rtos, ApiOutsideTaskContextThrows) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu);
  rtos::Semaphore sem(os, "sem", 1);
  f.sim.spawn_thread("not_a_task", [&] { sem.wait(); });
  EXPECT_THROW(f.sim.run(), SimulationError);
}

// Property: N producer/consumer task pairs over queues always deliver all
// items, for several context-switch costs.
class RtosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtosSweep, ProducerConsumerPairsComplete) {
  CpuFixture f;
  rtos::Rtos os(f.sim, "os", f.cpu, {1_us, GetParam()});
  constexpr int kPairs = 3, kItems = 10;
  std::vector<std::unique_ptr<rtos::Queue<int>>> queues;
  int delivered = 0;
  for (int p = 0; p < kPairs; ++p) {
    queues.push_back(std::make_unique<rtos::Queue<int>>(
        os, "q" + std::to_string(p), 2));
  }
  for (int p = 0; p < kPairs; ++p) {
    auto& q = *queues[static_cast<size_t>(p)];
    os.create_task("prod" + std::to_string(p), 2, [&] {
      for (int i = 0; i < kItems; ++i) q.send(i);
    });
    os.create_task("cons" + std::to_string(p), 1, [&] {
      for (int i = 0; i < kItems; ++i) {
        if (q.recv() == i) ++delivered;
      }
    });
  }
  f.sim.spawn_thread("watch", [&] {
    while (!os.all_tasks_terminated()) wait(10_us);
    f.sim.stop();
  });
  f.sim.run();
  EXPECT_EQ(delivered, kPairs * kItems);
}

INSTANTIATE_TEST_SUITE_P(SwitchCosts, RtosSweep,
                         ::testing::Values(0u, 20u, 500u));
