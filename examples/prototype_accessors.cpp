// RTL prototype with accessors + VCD waveform dump (paper §3).
//
// The prototyping path: PEs refined to pin-level OCP are attached to the
// target bus through synthesizable accessors. Two masters (a DMA-ish
// writer and a checker) share the bus via the RTL arbiter and talk to a
// memory PE behind a slave accessor. The run is traced to
// `prototype.vcd` (open with GTKWave) — the waveform a designer would
// inspect before synthesis.
//
// Build & run:  ./example_prototype_accessors

#include <cstdio>
#include <numeric>

#include "accessor/accessor.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "ocp/ocp.hpp"
#include "trace/vcd.hpp"

using namespace stlm;
using namespace stlm::time_literals;

int main() {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);

  // Shared pin-level bus + arbiter.
  accessor::BusPins bus(sim, "bus");
  accessor::RtlArbiter arb(sim, "arb", bus, clk);

  // Master PE 0: writer.
  ocp::OcpPins pe0_pins(sim, "pe0");
  ocp::OcpPinMaster pe0(sim, "pe0.m", pe0_pins, clk);
  accessor::MasterAccessor acc0(sim, "acc0", pe0_pins, bus, arb, clk);

  // Master PE 1: checker.
  ocp::OcpPins pe1_pins(sim, "pe1");
  ocp::OcpPinMaster pe1(sim, "pe1.m", pe1_pins, clk);
  accessor::MasterAccessor acc1(sim, "acc1", pe1_pins, bus, arb, clk);

  // Slave PE: memory behind a pin-level OCP interface + slave accessor.
  ocp::OcpPins mem_pins(sim, "mem");
  ocp::MemorySlave mem("mem", 0x0, 0x1000);
  ocp::OcpPinSlave mem_pe(sim, "mem.s", mem_pins, clk, mem);
  accessor::SlaveAccessor sacc(sim, "sacc", mem_pins, bus, clk, {0x0, 0x1000});

  // Protocol monitors on both PE-side pin bundles.
  ocp::OcpMonitor mon0(sim, "mon0", pe0_pins, clk);
  ocp::OcpMonitor mon1(sim, "mon1", pe1_pins, clk);

  // Waveform tracing.
  trace::VcdWriter vcd(sim, "prototype.vcd");
  vcd.add(clk.signal(), "clk");
  vcd.add(bus.Grant, "bus_grant");
  vcd.add(bus.PAValid, "bus_pavalid");
  vcd.add(bus.ABus, "bus_abus");
  vcd.add(bus.WrDBus, "bus_wrdbus");
  vcd.add(bus.WrAck, "bus_wrack");
  vcd.add(bus.RdDBus, "bus_rddbus");
  vcd.add(bus.RdAck, "bus_rdack");
  vcd.add(bus.Comp, "bus_comp");
  vcd.add(pe0_pins.MCmd, "pe0_mcmd");
  vcd.add(pe1_pins.MCmd, "pe1_mcmd");

  int errors = 0;
  // Immediate notification: the checker starts in the very delta the
  // writer's last response lands in, whatever order the two run in.
  Event writer_done(sim, "writer_done");

  sim.spawn_thread("writer", [&] {
    std::vector<std::uint8_t> pattern(64);
    std::iota(pattern.begin(), pattern.end(), 1);
    for (int i = 0; i < 4; ++i) {
      auto r = pe0.transport(
          ocp::Request::write(static_cast<std::uint64_t>(0x100 + 64 * i),
                              pattern));
      if (!r.good()) ++errors;
    }
    writer_done.notify();
  });

  sim.spawn_thread("checker", [&] {
    wait(writer_done);
    for (int i = 0; i < 4; ++i) {
      auto r = pe1.transport(
          ocp::Request::read(static_cast<std::uint64_t>(0x100 + 64 * i), 64));
      if (!r.good() || r.data.size() != 64 || r.data[0] != 1 ||
          r.data[63] != 64) {
        ++errors;
      }
    }
    sim.stop();
  });

  sim.run();

  std::printf("== RTL prototype run ==\n");
  std::printf("simulated time: %s (%llu clock cycles)\n",
              sim.now().to_string().c_str(),
              static_cast<unsigned long long>(clk.cycle_count()));
  std::printf("bus grants: %llu, master0 txns: %llu, master1 txns: %llu\n",
              static_cast<unsigned long long>(arb.grants()),
              static_cast<unsigned long long>(acc0.transactions()),
              static_cast<unsigned long long>(acc1.transactions()));
  std::printf("protocol violations: %llu + %llu, data errors: %d\n",
              static_cast<unsigned long long>(mon0.violations()),
              static_cast<unsigned long long>(mon1.violations()), errors);
  std::printf("waveform written to prototype.vcd (%zu signals)\n",
              vcd.signal_count());
  return errors == 0 ? 0 : 1;
}
