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

  bool operator==(const DriverConfig&) const = default;
};

class ShipDriver final : public ship::ship_if {
public:
  ShipDriver(std::string name, rtos::Rtos& os, cpu::CpuModel& cpu,
             cam::MailboxLayout mailbox, DriverConfig cfg = {});

  bool message_available() const override { return !rx_[0].empty(); }

  // --- interrupt service routine (ISR context) -------------------------
  void on_irq();

  std::uint64_t isr_count() const { return isrs_; }

  // Back to the state right after construction (after Simulator::reset):
  // nothing drained, zero counters. The drained descriptors are left to
  // the pool's reset.
  void reset();

private:
  // The SHIP calls' transport (RTOS task context): put() pushes into the
  // adapter's mailbox by MMIO; take() blocks the task until the ISR has
  // drained a message of the asked kind.
  void put(const ship::ship_serializable_if& msg,
           ship::MsgKind kind) override;
  bool take(ship::ship_serializable_if& msg, bool reply) override;

  std::string name_;
  rtos::Rtos& os_;
  cpu::CpuModel& cpu_;
  cam::MailboxLayout mb_;
  DriverConfig cfg_;

  // Drained messages, as pooled Txn descriptors (data = payload bytes):
  // [0] sends and requests, [1] replies, each counted by its semaphore.
  rtos::Semaphore rx_sem_[2];
  TxnQueue rx_[2];
  cam::MailboxPusher pusher_;
  std::uint64_t isrs_ = 0;
};

}  // namespace stlm::hwsw
