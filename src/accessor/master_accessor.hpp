#pragma once
// Master accessor: connects a pin-level-OCP master PE to the pin-level
// bus (paper §3, "communication architecture accessors").
//
// Composition: an OCP pin-slave front end faces the PE's pins; its device
// callback is the bus-master engine, which requests the bus, runs the
// address and data phases wire-by-wire, and waits for completion.

#include <string>

#include "accessor/bus_pins.hpp"
#include "accessor/rtl_arbiter.hpp"
#include "kernel/clock.hpp"
#include "kernel/module.hpp"
#include "ocp/pin_slave.hpp"
#include "ocp/pins.hpp"

namespace stlm::accessor {

class MasterAccessor final : public Module {
public:
  MasterAccessor(Simulator& sim, std::string name, ocp::OcpPins& pe_pins,
                 BusPins& bus, RtlArbiter& arbiter, Clock& clk);

  std::uint64_t transactions() const { return engine_.transactions; }

private:
  struct BusEngine final : ocp::ocp_tl_slave_if {
    using ocp::ocp_tl_slave_if::handle;
    // Runs the bus protocol wire by wire; returns zero.
    Time handle(Txn& txn) override;
    MasterAccessor* self = nullptr;
    std::uint64_t transactions = 0;
  };

  BusPins& bus_;
  Clock& clk_;
  Signal<bool> req_line_;
  std::uint8_t my_id_;
  BusEngine engine_;
  ocp::OcpPinSlave pe_side_;
};

}  // namespace stlm::accessor
