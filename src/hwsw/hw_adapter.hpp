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
// The register protocol is the SHIP mailbox of cam/mailbox.hpp, the same
// one the HW/HW wrappers speak; the adapter adds the interrupt.

#include <cstdint>
#include <string>

#include "cam/mailbox.hpp"
#include "kernel/module.hpp"
#include "kernel/signal.hpp"
#include "ocp/tl_if.hpp"
#include "ship/channel.hpp"

namespace stlm::hwsw {

class HwAdapter final : public Module,
                        public ocp::ocp_tl_slave_if,
                        public ship::ship_if {
public:
  // `irq_pulse` is how long the sideband interrupt stays high (typically
  // one bus clock cycle).
  HwAdapter(Simulator& sim, std::string name, cam::MailboxLayout layout,
            Time irq_pulse);

  // Sideband interrupt toward the CPU's interrupt controller.
  Signal<bool>& irq() { return irq_; }

  // --- OCP slave side (bus-facing; driven by the SW driver) -----------
  using ocp::ocp_tl_slave_if::handle;
  void handle(Txn& txn) override { mailbox_.handle(txn); }
  // The mailbox FSM is wait-free (the timed waits live in the irq pulser
  // and the SHIP-side processes), so the default zero-latency
  // fast_handle() is exact.
  bool fast_capable() const override { return true; }

  // --- SHIP side (HW PE-facing) ----------------------------------------
  void send(const ship::ship_serializable_if& msg) override;
  void recv(ship::ship_serializable_if& msg) override;
  void request(const ship::ship_serializable_if& req,
               ship::ship_serializable_if& resp) override;
  void reply(const ship::ship_serializable_if& resp) override;
  bool message_available() const override {
    return mailbox_.message_available();
  }
  ship::Role role() const override { return term_.role(); }
  const std::string& channel_name() const override { return Module::name(); }

  std::uint64_t irq_count() const { return irqs_; }
  std::uint64_t messages_to_sw() const { return mailbox_.messages_out(); }
  std::uint64_t messages_from_sw() const { return mailbox_.messages_in(); }

private:
  // Queues `msg` for the SW side and raises the IRQ when the queue was
  // empty (the pulser re-raises it while messages remain).
  void put(const ship::ship_serializable_if& msg, std::uint32_t flags);
  void irq_pulser();

  cam::MailboxTarget mailbox_;
  ship::TerminalState term_;
  Signal<bool> irq_;
  Time irq_pulse_;
  Event irq_trigger_;
  std::uint64_t irqs_ = 0;
};

}  // namespace stlm::hwsw
