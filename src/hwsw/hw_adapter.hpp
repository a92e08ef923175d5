#pragma once
// HW adapter of the generic SHIP-based HW/SW interface (paper §4).
//
// "This interface virtually realizes a SHIP channel with one end in the
// HW partition and one end in the SW partition." The HW adapter is the
// hardware half: toward the system's communication architecture it is an
// OCP slave (shared-memory mailbox + control registers); toward the
// HW PE it presents the SHIP interface method calls; toward the CPU it
// drives a sideband interrupt while hardware-to-software data is ready.
//
// The adapter is a cam::MailboxTerminal, the same target terminal as the
// HW/HW slave wrapper; it adds the interrupt.
//
// The interrupt is a level: irq() is high exactly while an outbound
// message is queued. put() raises it behind an empty queue, and the RACK
// that pops the last message lowers it; no process runs for it. The
// interrupt controller latches rising edges, and the driver's ISR drains
// until RSTATUS reads 0, which is the acknowledge. No message is missed:
//   * a put() while the queue is non-empty makes no edge, but the ISR's
//     drain loop is still running and reads RSTATUS again;
//   * a put() in the same delta as the RACK that empties the queue leaves
//     the line high with no edge, and is caught the same way: the ISR
//     always reads RSTATUS again after its last RACK;
//   * a put() after that final RSTATUS read finds the line low (the RACK's
//     write has settled) and raises a fresh edge, which the controller
//     latches and the RTOS dispatches once the current ISR returns.

#include <cstdint>
#include <string>

#include "cam/mailbox.hpp"
#include "kernel/signal.hpp"

namespace stlm::hwsw {

class HwAdapter final : public cam::MailboxTerminal {
public:
  HwAdapter(Simulator& sim, std::string name, cam::MailboxLayout layout)
      : MailboxTerminal(sim, std::move(name), layout),
        irq_(sim, full_name() + ".irq", false) {}

  // Sideband interrupt toward the CPU's interrupt controller.
  Signal<bool>& irq() { return irq_; }
  // Rising edges of irq().
  std::uint64_t irq_count() const { return irqs_; }

  void reset() override {
    MailboxTerminal::reset();
    irq_.reset(false);
    irqs_ = 0;
  }

private:
  void outbound_changed(bool pending) override {
    // read() is the settled level: a lower and a raise in one delta leave
    // it high, so that raise is no edge.
    if (pending && !irq_.read()) ++irqs_;
    irq_.write(pending);
  }

  Signal<bool> irq_;
  std::uint64_t irqs_ = 0;
};

}  // namespace stlm::hwsw
