// E4 — Transaction-based HW/SW communication (paper §4).
//
// A SW task (RTOS on the CPU model) does SHIP request/reply round trips
// to a HW PE through the generic HW/SW interface, swept over payload
// size. Reported: simulated round-trip latency and simulated goodput
// (both directions' payload over the time the last round trip
// completed), interrupts, CPU bus transactions and thread resumes.
// Expected shape: latency flat for small payloads (driver + IRQ + ISR
// overhead dominates), then linear once chunked mailbox copies dominate;
// goodput saturates toward the bus limit.

#include <benchmark/benchmark.h>

#include "cam/cam.hpp"
#include "cpu/cpu.hpp"
#include "cpu/irq.hpp"
#include "hwsw/hwsw.hpp"
#include "kernel/kernel.hpp"
#include "rtos/rtos.hpp"
#include "ship/ship.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr int kRoundTrips = 24;

void BM_HwSwRoundTrip(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  double rt_latency_us = 0.0, goodput_mbps = 0.0;
  double irqs = 0.0, cpu_txns = 0.0, ctx_switches = 0.0;

  for (auto _ : state) {
    Simulator sim;
    cam::PlbCam bus(sim, "plb", 10_ns,
                    std::make_unique<cam::PriorityArbiter>());
    cam::MailboxLayout layout{0x8000, 256};
    hwsw::HwAdapter adapter(sim, "hwacc", layout);
    bus.attach_slave(adapter, layout.range(), "hwacc");
    cpu::CpuModel cpu(sim, "cpu", 10_ns);
    cpu.bind_bus(bus.master_port(bus.add_master("cpu")));
    cpu::IrqController ic(sim, "ic");
    ic.attach(adapter.irq(), 0);
    rtos::Rtos os(sim, "os", cpu, {1_us, 20});
    hwsw::ShipDriver drv("drv", os, cpu, layout);
    os.attach_isr(ic, [&](int line) {
      if (line == 0) drv.on_irq();
    });

    Time total_rt = Time::zero();
    Time last_done = Time::zero();
    os.create_task("app", 1, [&] {
      ship::VectorMsg<> req(payload, 0x22), resp;
      for (int i = 0; i < kRoundTrips; ++i) {
        const Time s = sim.now();
        drv.request(req, resp);
        total_rt += sim.now() - s;
      }
      last_done = sim.now();
    });
    sim.spawn_thread("hw_pe", [&] {
      ship::VectorMsg<> msg;
      for (int i = 0; i < kRoundTrips; ++i) {
        adapter.recv(msg);
        adapter.reply(msg);
      }
    });
    sim.run();  // ends when the events run out
    if (!os.all_tasks_terminated()) {
      state.SkipWithError("round trips did not complete");
      break;
    }

    rt_latency_us = total_rt.to_seconds() * 1e6 / kRoundTrips;
    const double sim_s = last_done.to_seconds();
    goodput_mbps = sim_s > 0
                       ? 2.0 * kRoundTrips * static_cast<double>(payload) /
                             sim_s / 1e6
                       : 0.0;
    irqs = static_cast<double>(adapter.irq_count());
    cpu_txns = static_cast<double>(cpu.bus_transactions());
    ctx_switches = static_cast<double>(sim.ctx_switches());
  }

  state.SetItemsProcessed(state.iterations() * kRoundTrips);
  state.counters["rt_latency_us_sim"] = rt_latency_us;
  state.counters["goodput_MBps_sim"] = goodput_mbps;
  state.counters["irqs"] = irqs;
  state.counters["cpu_bus_txns"] = cpu_txns;
  state.counters["ctx_switches"] = ctx_switches;
}

}  // namespace

BENCHMARK(BM_HwSwRoundTrip)
    ->Arg(4)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
