#pragma once
// Embedded processor model.
//
// The SW partition of a mapped system executes on this model: an
// instruction-budget CPU (computation is charged as cycle counts, the
// Herrera-style timing annotation) with one OCP TL master interface into
// the communication architecture and a set of interrupt inputs.

#include <cstdint>
#include <string>

#include "kernel/module.hpp"
#include "ocp/tl_if.hpp"

namespace stlm::cpu {

class CpuModel final : public Module {
public:
  // `period` is the CPU clock period that consume() charges per cycle.
  CpuModel(Simulator& sim, std::string name, Time period,
           Module* parent = nullptr);

  // Bind the bus: a CAM master port (or any OCP TL target). Once only;
  // the first MMIO access on an unbound CPU throws, naming the CPU.
  void bind_bus(ocp::ocp_tl_master_if& bus);

  // Charge `cycles` of computation time (callable from task context).
  void consume(std::uint64_t cycles);

  // Memory-mapped I/O helpers; each is one bus transaction. All of them
  // ride a pooled Txn, so steady-state MMIO traffic performs no heap
  // allocation and no event-registry churn.
  std::uint32_t mmio_read32(std::uint64_t addr);
  void mmio_write32(std::uint64_t addr, std::uint32_t value);
  void mmio_read_append(std::uint64_t addr, std::uint32_t bytes,
                        std::vector<std::uint8_t>& out);
  void mmio_write_span(std::uint64_t addr, const void* p, std::size_t n);

  // Zero the counters (a reset system); the bus binding stays.
  void reset() {
    cycles_ = 0;
    bus_txns_ = 0;
  }

  std::uint64_t cycles_consumed() const { return cycles_; }
  std::uint64_t bus_transactions() const { return bus_txns_; }

private:
  // One bus transaction: counts it and carries it to completion.
  void transport(Txn& t);

  Time period_;
  ocp::ocp_tl_master_if* bus_ = nullptr;
  std::uint64_t cycles_ = 0;
  std::uint64_t bus_txns_ = 0;
};

}  // namespace stlm::cpu
