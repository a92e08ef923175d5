#include "cam/mailbox.hpp"

#include "kernel/simulator.hpp"

namespace stlm::cam {

MailboxTarget::MailboxTarget(Simulator& sim, const std::string& owner,
                             MailboxLayout layout)
    : sim_(sim),
      layout_(layout),
      rx_ev_{{sim, owner + ".rx"}, {sim, owner + ".rx_reply"}} {
  STLM_ASSERT(layout.window_bytes >= ocp::kWordBytes &&
                  layout.window_bytes <= MailboxLayout::kLenMask,
              "mailbox window of " + owner + " must hold 4.." +
                  std::to_string(MailboxLayout::kLenMask) + " bytes, not " +
                  std::to_string(layout.window_bytes));
  chunk_buf_.assign(layout.window_bytes, 0);
}

void MailboxTarget::handle(Txn& txn) {
  const std::uint64_t a = txn.addr;
  const std::size_t n = txn.data.size();
  Txn* head = out_.front();
  if (txn.op == Txn::Op::Write) {
    if (a >= layout_.data_in() &&
        a + n <= layout_.data_in() + layout_.window_bytes) {
      std::copy(txn.data.begin(), txn.data.end(),
                chunk_buf_.begin() + static_cast<std::ptrdiff_t>(
                                         a - layout_.data_in()));
      txn.respond_ok();
      return;
    }
    // CTRL: commit a chunk. A one-word write commits the bytes staged in
    // DATA_IN; a longer write is a coalesced commit carrying its own chunk
    // payload followed by the trailing control word.
    if (a == layout_.ctrl() && n >= ocp::kWordBytes) {
      const std::uint32_t ctrl =
          ocp::u32_from_le(txn.data.data() + (n - ocp::kWordBytes));
      const std::uint32_t len = ctrl & MailboxLayout::kLenMask;
      const bool coalesced = n > ocp::kWordBytes;
      if (len > layout_.window_bytes ||
          (coalesced && len != n - ocp::kWordBytes)) {
        txn.respond_error();
        return;
      }
      const std::uint8_t* chunk =
          coalesced ? txn.data.data() : chunk_buf_.data();
      rx_accum_.insert(rx_accum_.end(), chunk, chunk + len);
      if (ctrl & MailboxLayout::kLastFlag) {
        Txn& m = sim_.txn_pool().acquire();
        m.begin_msg(ctrl & ~MailboxLayout::kLenMask);
        m.data.assign(rx_accum_.begin(), rx_accum_.end());
        rx_accum_.clear();
        ++messages_in_;
        const bool reply = (ctrl & MailboxLayout::kReplyFlag) != 0;
        rx_[reply].push_back(m);
        rx_ev_[reply].notify_delta();
      }
      txn.respond_ok();
      return;
    }
    if (a == layout_.rack()) {
      if (head != nullptr) {
        head->cursor += static_cast<std::uint32_t>(std::min<std::size_t>(
            head->data.size() - head->cursor, layout_.window_bytes));
        if (head->cursor >= head->data.size()) {
          out_.pop_front();
          sim_.txn_pool().release(*head);
        }
      }
      txn.respond_ok();
      return;
    }
  } else if (txn.op == Txn::Op::Read) {
    if (a == layout_.rstatus()) {
      std::uint32_t status = 0;
      if (head != nullptr) {
        status =
            (static_cast<std::uint32_t>(head->data.size() - head->cursor) &
             MailboxLayout::kLenMask) |
            (head->flags &
             (MailboxLayout::kRequestFlag | MailboxLayout::kReplyFlag));
      }
      std::uint8_t bytes[ocp::kWordBytes];
      ocp::u32_to_le(status, bytes);
      txn.respond_data(bytes, sizeof bytes);
      return;
    }
    if (a >= layout_.data_out() &&
        a + txn.read_bytes <= layout_.data_out() + layout_.window_bytes) {
      std::vector<std::uint8_t>& bytes = txn.respond_buffer(txn.read_bytes);
      if (head != nullptr) {
        const std::size_t from = head->cursor + (a - layout_.data_out());
        for (std::size_t i = 0; i < bytes.size(); ++i) {
          if (from + i < head->data.size()) bytes[i] = head->data[from + i];
        }
      }
      return;
    }
  }
  txn.respond_error();
}

bool MailboxTarget::take(ship::ship_serializable_if& msg, bool reply) {
  while (rx_[reply].empty()) wait(rx_ev_[reply]);
  Txn* m = rx_[reply].pop_front();
  const bool is_request = (m->flags & MailboxLayout::kRequestFlag) != 0;
  ship::from_bytes(msg, m->data);
  sim_.txn_pool().release(*m);
  return is_request;
}

bool MailboxTarget::put(const ship::ship_serializable_if& msg,
                        std::uint32_t flags) {
  Txn& t = sim_.txn_pool().acquire();
  t.begin_msg(flags);
  ship::to_bytes_into(msg, t.data);
  if (t.data.empty()) t.data.push_back(0);
  const bool was_empty = out_.empty();
  out_.push_back(t);
  ++messages_out_;
  return was_empty;
}

MailboxTerminal::MailboxTerminal(Simulator& sim, std::string name,
                                 MailboxLayout layout, ship::Role fixed)
    : Module(sim, std::move(name)),
      ship::ship_if(Module::name(), fixed),
      mailbox_(sim, full_name(), layout) {}

void MailboxTerminal::handle(Txn& txn) {
  const bool was_pending = mailbox_.outbound_pending();
  mailbox_.handle(txn);
  if (was_pending && !mailbox_.outbound_pending()) outbound_changed(false);
}

void MailboxTerminal::put(const ship::ship_serializable_if& msg,
                          ship::MsgKind kind) {
  if (mailbox_.put(msg, MailboxLayout::flags(kind))) outbound_changed(true);
}

void decode_outbound(std::vector<std::uint8_t>& bytes,
                     ship::ship_serializable_if& msg) {
  if (bytes.size() == 1 && ship::serialized_size(msg) == 0) bytes.clear();
  ship::from_bytes(msg, bytes);
}

}  // namespace stlm::cam
