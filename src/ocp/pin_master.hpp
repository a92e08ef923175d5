#pragma once
// Pin-level OCP master adapter.
//
// Exposes the blocking ocp_tl_master_if upward (so PE code is identical at
// TL and pin level) and executes the cycle-accurate pin protocol downward
// in the calling process. Concurrent callers are serialized — the pin
// bundle is a single physical port.

#include <string>

#include "kernel/channels.hpp"
#include "kernel/clock.hpp"
#include "kernel/module.hpp"
#include "ocp/pins.hpp"
#include "ocp/tl_if.hpp"

namespace stlm::ocp {

class OcpPinMaster final : public Module, public ocp_tl_master_if {
public:
  OcpPinMaster(Simulator& sim, std::string name, OcpPins& pins, Clock& clk,
               Module* parent = nullptr);

  using ocp_tl_master_if::transport;
  void transport(Txn& txn) override;

  std::uint64_t transactions() const { return transactions_; }

private:
  OcpPins& pins_;
  Clock& clk_;
  Mutex busy_;
  std::uint64_t transactions_ = 0;
};

}  // namespace stlm::ocp
