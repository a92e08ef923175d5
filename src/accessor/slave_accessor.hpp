#pragma once
// Slave accessor: connects a pin-level-OCP slave PE to the pin-level bus.
//
// Composition: a bus-slave engine snoops the address phase; on a decode
// hit it captures (write) or produces (read) the data beats on the bus
// wires and drives the PE through an OCP pin-master front end.

#include <string>

#include "accessor/bus_pins.hpp"
#include "cam/address_map.hpp"
#include "kernel/clock.hpp"
#include "kernel/module.hpp"
#include "ocp/pin_master.hpp"
#include "ocp/pins.hpp"

namespace stlm::accessor {

class SlaveAccessor final : public Module {
public:
  SlaveAccessor(Simulator& sim, std::string name, ocp::OcpPins& pe_pins,
                BusPins& bus, Clock& clk, cam::AddressRange decode);

  std::uint64_t transactions() const { return transactions_; }

private:
  void fsm();

  BusPins& bus_;
  Clock& clk_;
  cam::AddressRange decode_;
  ocp::OcpPinMaster pe_side_;
  Txn txn_;  // reusable descriptor (the FSM serves one transaction at a time)
  std::uint64_t transactions_ = 0;
};

}  // namespace stlm::accessor
