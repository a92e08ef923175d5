#pragma once
// The pin-level rung of the abstraction ladder (bench_abstraction's
// BM_Pin): a producer's stream of burst writes through OCP pin master ->
// master accessor -> RTL arbiter / bus pins -> slave accessor -> OCP pin
// slave -> flat memory. Shared with tests/test_pin_ladder.cpp, which pins
// the rig's simulated time and its context switches per message.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accessor/accessor.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "ocp/ocp.hpp"

namespace stlm::bench {

struct PinRig {
  Simulator sim;
  Clock clk{sim, "clk", Time::ns(10)};
  accessor::BusPins bus{sim, "bus"};
  accessor::RtlArbiter arb{sim, "arb", bus, clk};
  ocp::OcpPins pe_pins{sim, "pe"};
  ocp::OcpPinMaster pe{sim, "pe.m", pe_pins, clk};
  accessor::MasterAccessor acc{sim, "acc", pe_pins, bus, arb, clk};
  ocp::OcpPins mem_pins{sim, "mem"};
  ocp::MemorySlave mem{"mem", 0x0, 0x10000};
  ocp::OcpPinSlave mem_pe{sim, "mem.s", mem_pins, clk, mem};
  accessor::SlaveAccessor sacc{sim, "sacc", mem_pins, bus, clk,
                               {0x0, 0x10000}};

  // Run `messages` writes of `payload` bytes, each after a compute
  // budget of `compute` clock cycles, then stop. False if a write failed.
  bool run_stream(std::uint64_t messages, std::size_t payload,
                  std::uint64_t compute) {
    bool ok = true;
    sim.spawn_thread("producer", [&] {
      const std::vector<std::uint8_t> data(payload, 0xa5);
      for (std::uint64_t i = 0; i < messages; ++i) {
        wait(clk.period() * compute);
        const auto addr = (i * payload) % 0x8000;
        if (!pe.transport(ocp::Request::write(addr, data)).good()) ok = false;
      }
      sim.stop();
    });
    sim.run();
    return ok;
  }
};

}  // namespace stlm::bench
