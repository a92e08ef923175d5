#pragma once
// PLB->OPB bridge (CoreConnect style).
//
// Attached to a fast bus (PLB) as a slave covering the peripheral address
// space; forwards each transaction into the slow bus (OPB) through its own
// master port, adding a fixed crossing latency. This reproduces the
// two-tier CoreConnect topology the paper's flow targets. The forwarded
// access is a pooled descriptor of the bridge's own: the request half is
// copied in, status and response are copied back.

#include <string>

#include "cam/cam_if.hpp"
#include "kernel/module.hpp"

namespace stlm::cam {

class BusBridge final : public Module, public ocp::ocp_tl_slave_if {
public:
  // Registers itself as master `name` on `downstream` and must then be
  // attached to the upstream bus via attach_slave(bridge, range).
  BusBridge(Simulator& sim, std::string name, CamIf& downstream,
            std::uint32_t crossing_cycles = 2);

  using ocp::ocp_tl_slave_if::handle;
  // Blocks for the crossing and the downstream transport; returns zero.
  Time handle(Txn& txn) override;

  std::uint64_t forwarded() const { return forwarded_; }

private:
  CamIf& down_;
  std::size_t down_master_;
  std::uint32_t crossing_cycles_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace stlm::cam
