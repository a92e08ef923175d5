#include "hwsw/driver.hpp"

#include <algorithm>

namespace stlm::hwsw {

ShipDriver::ShipDriver(std::string name, rtos::Rtos& os, cpu::CpuModel& cpu,
                       cam::MailboxLayout mailbox, DriverConfig cfg)
    : name_(std::move(name)),
      os_(os),
      cpu_(cpu),
      mb_(mailbox),
      cfg_(cfg),
      rx_normal_sem_(os, name_ + ".rx_normal", 0),
      rx_reply_sem_(os, name_ + ".rx_reply", 0),
      pusher_(mailbox, /*coalesce=*/false),
      term_(name_) {}

void ShipDriver::push_to_hw(const ship::ship_serializable_if& msg,
                            std::uint32_t flags) {
  cpu_.consume(cfg_.call_overhead_cycles);
  // The pusher serializes into its reusable scratch buffer and MMIO rides
  // pooled Txns, so the whole driver entry is allocation-free once warmed
  // up.
  pusher_.push(msg, flags,
               [this](std::uint64_t addr, const std::uint8_t* p, std::size_t n) {
                 cpu_.mmio_write_span(addr, p, n);
               });
}

std::uint32_t ShipDriver::pop_and_deserialize(TxnQueue& q,
                                              ship::ship_serializable_if& msg) {
  Txn* m = q.pop_front();
  STLM_ASSERT(m != nullptr, "driver " + name_ + ": semaphore/queue mismatch");
  const std::uint32_t flags = m->flags;
  cam::decode_outbound(m->data, msg);
  cpu_.sim().txn_pool().release(*m);
  return flags;
}

void ShipDriver::send(const ship::ship_serializable_if& msg) {
  os_.require_task("ShipDriver::send");
  term_.mark(ship::Role::Master, "send");
  push_to_hw(msg, 0);
}

void ShipDriver::request(const ship::ship_serializable_if& req,
                         ship::ship_serializable_if& resp) {
  os_.require_task("ShipDriver::request");
  term_.mark(ship::Role::Master, "request");
  push_to_hw(req, cam::MailboxLayout::kRequestFlag);
  rx_reply_sem_.wait();  // blocks the task; the ISR posts on reply
  pop_and_deserialize(rx_replies_, resp);
}

void ShipDriver::recv(ship::ship_serializable_if& msg) {
  os_.require_task("ShipDriver::recv");
  term_.mark(ship::Role::Slave, "recv");
  rx_normal_sem_.wait();
  term_.note_recv((pop_and_deserialize(rx_normal_, msg) &
                   cam::MailboxLayout::kRequestFlag) != 0);
}

void ShipDriver::reply(const ship::ship_serializable_if& resp) {
  os_.require_task("ShipDriver::reply");
  term_.take_reply();
  push_to_hw(resp, cam::MailboxLayout::kReplyFlag);
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
    if (flags & cam::MailboxLayout::kReplyFlag) {
      rx_replies_.push_back(m);
      rx_reply_sem_.post_from_isr();
    } else {
      rx_normal_.push_back(m);
      rx_normal_sem_.post_from_isr();
    }
  }
}

}  // namespace stlm::hwsw
