#include "hwsw/hw_adapter.hpp"

namespace stlm::hwsw {

HwAdapter::HwAdapter(Simulator& sim, std::string name,
                     cam::MailboxLayout layout, Time irq_pulse)
    : MailboxTerminal(sim, std::move(name), layout),
      irq_(sim, full_name() + ".irq", false),
      irq_pulse_(irq_pulse),
      irq_trigger_(sim, full_name() + ".irq_trigger") {
  STLM_ASSERT(!irq_pulse_.is_zero(), "IRQ pulse must be positive: " + full_name());
  spawn_thread("irq_pulser", [this] { irq_pulser(); });
}

void HwAdapter::irq_pulser() {
  for (;;) {
    wait(irq_trigger_);
    ++irqs_;
    irq_.write(true);
    wait(irq_pulse_);
    irq_.write(false);
    // Let the negedge settle so back-to-back messages produce distinct
    // rising edges.
    wait(irq_pulse_);
    if (outbound_pending()) irq_trigger_.notify_delta();
  }
}

}  // namespace stlm::hwsw
