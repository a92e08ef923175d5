#pragma once
// HW adapter of the generic SHIP-based HW/SW interface (paper §4).
//
// "This interface virtually realizes a SHIP channel with one end in the
// HW partition and one end in the SW partition." The HW adapter is the
// hardware half: toward the system's communication architecture it is an
// OCP slave (shared-memory mailbox + control registers); toward the
// HW PE it presents the SHIP interface method calls; toward the CPU it
// raises a sideband interrupt when hardware-to-software data is ready.
//
// The adapter is a cam::MailboxTerminal, the same target terminal as the
// HW/HW slave wrapper; it adds the interrupt.

#include <cstdint>
#include <string>

#include "cam/mailbox.hpp"
#include "kernel/signal.hpp"

namespace stlm::hwsw {

class HwAdapter final : public cam::MailboxTerminal {
public:
  // `irq_pulse` is how long the sideband interrupt stays high (typically
  // one bus clock cycle).
  HwAdapter(Simulator& sim, std::string name, cam::MailboxLayout layout,
            Time irq_pulse);

  // Sideband interrupt toward the CPU's interrupt controller.
  Signal<bool>& irq() { return irq_; }
  std::uint64_t irq_count() const { return irqs_; }

private:
  // A message queued for the SW side raises the IRQ when the queue was
  // empty (the pulser re-raises it while messages remain).
  void outbound_started() override { irq_trigger_.notify_delta(); }
  void irq_pulser();

  Signal<bool> irq_;
  Time irq_pulse_;
  Event irq_trigger_;
  std::uint64_t irqs_ = 0;
};

}  // namespace stlm::hwsw
