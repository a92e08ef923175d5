#include "cam/mailbox.hpp"

#include "kernel/simulator.hpp"

namespace stlm::cam {

MailboxTerminal::MailboxTerminal(Simulator& sim, std::string name,
                                 MailboxLayout layout, ship::Role fixed)
    : Module(sim, std::move(name)),
      ship::ship_if(Module::name(), fixed),
      layout_(layout),
      rx_ev_{{sim, full_name() + ".rx"}, {sim, full_name() + ".rx_reply"}} {
  STLM_ASSERT(layout.window_bytes >= ocp::kWordBytes &&
                  layout.window_bytes <= MailboxLayout::kLenMask,
              "mailbox window of " + full_name() + " must hold 4.." +
                  std::to_string(MailboxLayout::kLenMask) + " bytes, not " +
                  std::to_string(layout.window_bytes));
  chunk_buf_.assign(layout.window_bytes, 0);
}

void MailboxTerminal::reset() {
  reset_protocol();
  std::fill(chunk_buf_.begin(), chunk_buf_.end(), 0);
  rx_accum_.clear();
  rx_[0].clear();
  rx_[1].clear();
  out_.clear();
  messages_in_ = 0;
  messages_out_ = 0;
}

Time MailboxTerminal::handle(Txn& txn) {
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
      return Time::zero();
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
        return Time::zero();
      }
      const std::uint8_t* chunk =
          coalesced ? txn.data.data() : chunk_buf_.data();
      rx_accum_.insert(rx_accum_.end(), chunk, chunk + len);
      if (ctrl & MailboxLayout::kLastFlag) {
        Txn& m = sim().txn_pool().acquire();
        m.begin_msg(ctrl & ~MailboxLayout::kLenMask);
        m.data.assign(rx_accum_.begin(), rx_accum_.end());
        rx_accum_.clear();
        ++messages_in_;
        const bool reply = (ctrl & MailboxLayout::kReplyFlag) != 0;
        rx_[reply].push_back(m);
        rx_ev_[reply].notify_delta();
      }
      txn.respond_ok();
      return Time::zero();
    }
    if (a == layout_.rack()) {
      if (head != nullptr) {
        head->cursor += static_cast<std::uint32_t>(std::min<std::size_t>(
            head->data.size() - head->cursor, layout_.window_bytes));
        if (head->cursor >= head->data.size()) {
          out_.pop_front();
          sim().txn_pool().release(*head);
          if (out_.empty()) outbound_changed(false);
        }
      }
      txn.respond_ok();
      return Time::zero();
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
      return Time::zero();
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
      return Time::zero();
    }
  }
  txn.respond_error();
  return Time::zero();
}

bool MailboxTerminal::take(ship::ship_serializable_if& msg, bool reply) {
  while (rx_[reply].empty()) wait(rx_ev_[reply]);
  Txn* m = rx_[reply].pop_front();
  const bool is_request = (m->flags & MailboxLayout::kRequestFlag) != 0;
  ship::from_bytes(msg, m->data);
  sim().txn_pool().release(*m);
  return is_request;
}

void MailboxTerminal::put(const ship::ship_serializable_if& msg,
                          ship::MsgKind kind) {
  Txn& t = sim().txn_pool().acquire();
  t.begin_msg(MailboxLayout::flags(kind));
  ship::to_bytes_into(msg, t.data);
  if (const std::size_t n = t.data.size(); n > MailboxLayout::kLenMask) {
    sim().txn_pool().release(t);
    throw ProtocolError("SHIP mailbox " + full_name() + ": a " +
                        std::to_string(n) + "-byte message exceeds the " +
                        std::to_string(MailboxLayout::kLenMask) +
                        "-byte limit of RSTATUS's length field");
  }
  if (t.data.empty()) t.data.push_back(0);
  const bool was_empty = out_.empty();
  out_.push_back(t);
  ++messages_out_;
  if (was_empty) outbound_changed(true);
}

void decode_outbound(std::vector<std::uint8_t>& bytes,
                     ship::ship_serializable_if& msg) {
  if (bytes.size() == 1 && ship::serialized_size(msg) == 0) bytes.clear();
  ship::from_bytes(msg, bytes);
}

}  // namespace stlm::cam
