#include "hwsw/hw_adapter.hpp"

namespace stlm::hwsw {

HwAdapter::HwAdapter(Simulator& sim, std::string name,
                     cam::MailboxLayout layout, Time irq_pulse)
    : Module(sim, std::move(name)),
      mailbox_(sim, full_name(), layout),
      term_(Module::name()),
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
    if (mailbox_.outbound_pending()) irq_trigger_.notify_delta();
  }
}

void HwAdapter::put(const ship::ship_serializable_if& msg, std::uint32_t flags) {
  if (mailbox_.put(msg, flags)) irq_trigger_.notify_delta();
}

void HwAdapter::send(const ship::ship_serializable_if& msg) {
  term_.mark(ship::Role::Master, "send");
  put(msg, 0);
}

void HwAdapter::request(const ship::ship_serializable_if& req,
                        ship::ship_serializable_if& resp) {
  term_.mark(ship::Role::Master, "request");
  put(req, cam::MailboxLayout::kRequestFlag);
  mailbox_.take_reply(resp);
}

void HwAdapter::recv(ship::ship_serializable_if& msg) {
  term_.mark(ship::Role::Slave, "recv");
  term_.note_recv(mailbox_.take(msg));
}

void HwAdapter::reply(const ship::ship_serializable_if& resp) {
  term_.take_reply();
  put(resp, cam::MailboxLayout::kReplyFlag);
}

}  // namespace stlm::hwsw
