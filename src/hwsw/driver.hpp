#pragma once
// SW adapter of the HW/SW interface: device driver + communication
// library (paper §4).
//
// "While handshaking and memory-mapping is accomplished by the device
// driver, the communication library implements the SHIP channel interface
// method calls." ShipDriver is both: it implements ship_if for RTOS tasks
// (so SW PE code is byte-for-byte the code that ran in the
// component-assembly model) and contains the interrupt service routine
// that drains the HW adapter's outbound mailbox.
//
// Wiring: attach the driver's ISR to the interrupt line, e.g.
//   rtos.attach_isr(irq_ctrl, [&](int line){ if (line == n) drv.on_irq(); });

#include <cstdint>
#include <string>

#include "cam/mailbox.hpp"
#include "cpu/cpu.hpp"
#include "rtos/rtos.hpp"
#include "ship/channel.hpp"

namespace stlm::hwsw {

struct DriverConfig {
  // CPU cycles charged per driver entry (syscall + copy overhead).
  std::uint64_t call_overhead_cycles = 50;
  // CPU cycles charged per ISR invocation.
  std::uint64_t isr_overhead_cycles = 80;
};

class ShipDriver final : public ship::ship_if {
public:
  ShipDriver(std::string name, rtos::Rtos& os, cpu::CpuModel& cpu,
             cam::MailboxLayout mailbox, DriverConfig cfg = {});

  // --- SHIP interface method calls (RTOS task context) -----------------
  void send(const ship::ship_serializable_if& msg) override;
  void recv(ship::ship_serializable_if& msg) override;
  void request(const ship::ship_serializable_if& req,
               ship::ship_serializable_if& resp) override;
  void reply(const ship::ship_serializable_if& resp) override;
  bool message_available() const override { return !rx_normal_.empty(); }
  ship::Role role() const override { return term_.role(); }
  const std::string& channel_name() const override { return name_; }

  // --- interrupt service routine (ISR context) -------------------------
  void on_irq();

  std::uint64_t isr_count() const { return isrs_; }

private:
  void push_to_hw(const ship::ship_serializable_if& msg, std::uint32_t flags);
  // Returns the message's descriptor flags.
  std::uint32_t pop_and_deserialize(TxnQueue& q,
                                    ship::ship_serializable_if& msg);

  std::string name_;
  rtos::Rtos& os_;
  cpu::CpuModel& cpu_;
  cam::MailboxLayout mb_;
  DriverConfig cfg_;

  rtos::Semaphore rx_normal_sem_;
  rtos::Semaphore rx_reply_sem_;
  // Received messages are pooled Txn descriptors (data = payload bytes).
  TxnQueue rx_normal_;
  TxnQueue rx_replies_;
  cam::MailboxPusher pusher_;
  ship::TerminalState term_;
  std::uint64_t isrs_ = 0;
};

}  // namespace stlm::hwsw
