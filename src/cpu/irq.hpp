#pragma once
// Interrupt controller: latches rising edges of sideband IRQ signals into
// a pending mask and raises an event the RTOS ISR dispatcher waits on.

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/clock.hpp"
#include "kernel/module.hpp"
#include "kernel/signal.hpp"

namespace stlm::cpu {

class IrqController final : public Module {
public:
  IrqController(Simulator& sim, std::string name, Module* parent = nullptr);

  // Attach a sideband signal as IRQ line `line` (0..31).
  void attach(Signal<bool>& sig, std::uint32_t line);

  // Pending lines (bit mask).
  std::uint32_t pending() const { return pending_; }
  // Claim (and clear) the lowest pending line; returns -1 if none.
  int claim();

  // Nothing pending, zero counters (a reset system); lines stay attached.
  void reset() {
    pending_ = 0;
    taken_ = 0;
  }

  Event& irq_event() { return irq_event_; }
  std::uint64_t interrupts_taken() const { return taken_; }

private:
  std::uint32_t pending_ = 0;
  Event irq_event_;
  std::uint64_t taken_ = 0;
};

}  // namespace stlm::cpu
