#include "hwsw/driver.hpp"

#include <algorithm>

namespace stlm::hwsw {

ShipDriver::ShipDriver(std::string name, rtos::Rtos& os, cpu::CpuModel& cpu,
                       cam::MailboxLayout mailbox, DriverConfig cfg)
    : ship::ship_if(name_),
      name_(std::move(name)),
      os_(os),
      cpu_(cpu),
      mb_(mailbox),
      cfg_(cfg),
      rx_sem_{{os, name_ + ".rx_normal", 0}, {os, name_ + ".rx_reply", 0}},
      pusher_(mailbox, /*coalesce=*/false) {}

void ShipDriver::reset() {
  reset_protocol();
  for (int i = 0; i < 2; ++i) {
    rx_sem_[i].reset();
    rx_[i].clear();
  }
  isrs_ = 0;
}

void ShipDriver::put(const ship::ship_serializable_if& msg,
                     ship::MsgKind kind) {
  os_.require_task("ShipDriver::put");
  cpu_.consume(cfg_.call_overhead_cycles);
  // The pusher serializes into its reusable scratch buffer and MMIO rides
  // pooled Txns, so the whole driver entry is allocation-free once warmed
  // up.
  pusher_.push(msg, cam::MailboxLayout::flags(kind),
               [this](std::uint64_t addr, const std::uint8_t* p, std::size_t n) {
                 cpu_.mmio_write_span(addr, p, n);
               });
}

bool ShipDriver::take(ship::ship_serializable_if& msg, bool reply) {
  rx_sem_[reply].wait();  // blocks the task; the ISR posts
  Txn* m = rx_[reply].pop_front();
  STLM_ASSERT(m != nullptr, "driver " + name_ + ": semaphore/queue mismatch");
  const bool is_request = (m->flags & cam::MailboxLayout::kRequestFlag) != 0;
  cam::decode_outbound(m->data, msg);
  cpu_.sim().txn_pool().release(*m);
  return is_request;
}

void ShipDriver::on_irq() {
  ++isrs_;
  cpu_.consume(cfg_.isr_overhead_cycles);
  // Drain every complete outbound message the adapter currently holds.
  for (;;) {
    const std::uint32_t status = cpu_.mmio_read32(mb_.rstatus());
    std::uint32_t remaining = status & cam::MailboxLayout::kLenMask;
    if (remaining == 0) break;
    const std::uint32_t flags = status & ~cam::MailboxLayout::kLenMask;
    Txn& m = cpu_.sim().txn_pool().acquire();
    m.begin_msg(flags);
    // `remaining` covers exactly this message; the adapter pops its head
    // only once the final chunk is acknowledged.
    while (remaining > 0) {
      const std::uint32_t chunk =
          std::min<std::uint32_t>(remaining, mb_.window_bytes);
      cpu_.mmio_read_append(mb_.data_out(), chunk, m.data);
      cpu_.mmio_write32(mb_.rack(), 0);
      remaining -= chunk;
    }
    const bool reply = (flags & cam::MailboxLayout::kReplyFlag) != 0;
    rx_[reply].push_back(m);
    rx_sem_[reply].post_from_isr();
  }
}

}  // namespace stlm::hwsw
