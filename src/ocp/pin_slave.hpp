#pragma once
// Pin-level OCP slave adapter.
//
// A clocked FSM that speaks the pin protocol toward the master and calls
// an ocp_tl_slave_if device callback — so the same device model serves at
// TL (behind OcpTlChannel or a CAM) and at pin level (behind this FSM),
// which is exactly the refinement step the paper's accessors rely on.

#include <string>

#include "kernel/clock.hpp"
#include "kernel/module.hpp"
#include "ocp/pins.hpp"
#include "ocp/tl_if.hpp"

namespace stlm::ocp {

class OcpPinSlave final : public Module {
public:
  // `device_latency_cycles` adds wait states between command capture and
  // response (on top of the service latency the device's handle()
  // returns).
  OcpPinSlave(Simulator& sim, std::string name, OcpPins& pins, Clock& clk,
              ocp_tl_slave_if& device, std::uint32_t device_latency_cycles = 0,
              Module* parent = nullptr);

  std::uint64_t transactions() const { return transactions_; }

private:
  void fsm();
  OcpPins& pins_;
  Clock& clk_;
  ocp_tl_slave_if& device_;
  std::uint32_t latency_;
  std::uint64_t transactions_ = 0;
  Txn txn_;  // reusable descriptor (the FSM runs one transaction at a time)
};

}  // namespace stlm::ocp
