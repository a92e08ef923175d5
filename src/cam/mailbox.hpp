#pragma once
// The SHIP mailbox: the one register protocol that carries a refined SHIP
// channel across a communication architecture (paper §3 and §4). Both
// kinds of mapped channel speak it:
//   * HW/HW — ShipMasterWrapper (initiator, polls RSTATUS) talks to a
//     ShipSlaveWrapper (target);
//   * HW/SW — ShipDriver (initiator, CPU MMIO, drains on an interrupt)
//     talks to an HwAdapter (target), whose interrupt is high while the
//     outbound queue is non-empty.
// Both targets are a MailboxTerminal.
//
// Register map (offsets from the mailbox base; W = window_bytes):
//   +0x00    CTRL     W  chunk descriptor: len[23:0] | last[24] |
//                        request[25] | reply[26]. A write longer than one
//                        word is a coalesced commit: the leading len bytes
//                        are the chunk payload and the trailing word is the
//                        descriptor (DATA_IN + CTRL merged into one burst).
//   +0x04    RSTATUS  R  outbound head: remaining[23:0] | request[25] |
//                        reply[26]; 0 = nothing queued
//   +0x08    RACK     W  the initiator consumed the current outbound chunk
//   +0x10    DATA_IN  W  inbound chunk window (W bytes)
//   +0x10+W  DATA_OUT R  outbound chunk window (W bytes)
// Every other access gets an error response.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cam/address_map.hpp"
#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/txn.hpp"
#include "ocp/tl_if.hpp"
#include "ocp/types.hpp"
#include "ship/channel.hpp"

namespace stlm::cam {

struct MailboxLayout {
  std::uint64_t base = 0;
  std::uint32_t window_bytes = 256;

  std::uint64_t ctrl() const { return base + 0x00; }
  std::uint64_t rstatus() const { return base + 0x04; }
  std::uint64_t rack() const { return base + 0x08; }
  std::uint64_t data_in() const { return base + 0x10; }
  std::uint64_t data_out() const { return base + 0x10 + window_bytes; }
  std::uint64_t span() const { return 0x10 + 2ull * window_bytes; }
  AddressRange range() const { return AddressRange{base, span()}; }

  static constexpr std::uint32_t kLenMask = 0x00ffffff;
  static constexpr std::uint32_t kLastFlag = 1u << 24;
  static constexpr std::uint32_t kRequestFlag = 1u << 25;
  static constexpr std::uint32_t kReplyFlag = 1u << 26;

  // The descriptor bits a message of `kind` travels with.
  static constexpr std::uint32_t flags(ship::MsgKind kind) {
    return kind == ship::MsgKind::Request ? kRequestFlag
           : kind == ship::MsgKind::Reply ? kReplyFlag
                                          : 0;
  }
};

// The target-side SHIP terminal: an OCP slave toward the bus that serves
// the mailbox registers, and a ship_if toward its PE. Inbound chunks are
// reassembled into pooled Txns, queued apart by the reply bit. Outbound
// messages wait in one pooled-Txn queue; RSTATUS, DATA_OUT and RACK serve
// its head, whose `cursor` counts the bytes already acknowledged.
// handle() is wait-free (register decode plus delta notifies). The caller
// must attach it to the CAM: cam.attach_slave(t, layout.range(), name)
// (the mapper does this).
class MailboxTerminal : public Module,
                        public ocp::ocp_tl_slave_if,
                        public ship::ship_if {
public:
  // Throws SimulationError unless 4 <= window_bytes <= kLenMask: a chunk
  // must hold a word, and its length must fit the descriptor's len field.
  MailboxTerminal(Simulator& sim, std::string name, MailboxLayout layout,
                  ship::Role fixed = ship::Role::Unknown);

  using ocp::ocp_tl_slave_if::handle;
  Time handle(Txn& txn) override;
  bool fast_capable() const override { return true; }
  bool message_available() const override { return !rx_[0].empty(); }

  std::uint64_t messages_in() const { return messages_in_; }
  std::uint64_t messages_out() const { return messages_out_; }

  // Back to the state right after construction (after Simulator::reset):
  // empty windows and queues, zero counters, the protocol unlatched. The
  // queued descriptors are left to the pool's reset.
  virtual void reset();

protected:
  // Runs when the outbound queue turns non-empty (put() behind an empty
  // queue; `pending` true) or empty (the RACK that pops its last message;
  // `pending` false).
  virtual void outbound_changed(bool /*pending*/) {}

private:
  // Queues `msg` for the initiator to drain; an empty payload travels as
  // one marker byte so RSTATUS can show it. Throws ProtocolError beyond
  // kLenMask serialized bytes, the most RSTATUS can announce.
  void put(const ship::ship_serializable_if& msg,
           ship::MsgKind kind) override;
  // Blocks the calling process until a send or request (a reply when
  // `reply`) is complete, deserializes it into `msg` and returns true for
  // a request.
  bool take(ship::ship_serializable_if& msg, bool reply) override;

  MailboxLayout layout_;
  std::vector<std::uint8_t> chunk_buf_;  // DATA_IN staging
  std::vector<std::uint8_t> rx_accum_;   // chunks of the current message
  // Complete messages: [0] sends and requests, [1] replies.
  TxnQueue rx_[2];
  Event rx_ev_[2];
  TxnQueue out_;
  std::uint64_t messages_in_ = 0;
  std::uint64_t messages_out_ = 0;
};

// Initiator side: deserializes a message drained from DATA_OUT into
// `msg`, dropping the marker byte an empty payload travels as.
void decode_outbound(std::vector<std::uint8_t>& bytes,
                     ship::ship_serializable_if& msg);

// Initiator side: serializes a message and pushes it through the remote
// window chunk by chunk. Each chunk is a DATA_IN burst (skipped when the
// chunk is empty) followed by its CTRL word, or, when coalescing, one
// [chunk ++ CTRL word] burst to CTRL. The final chunk carries kLastFlag,
// so an empty message is a single CTRL write.
class MailboxPusher {
public:
  MailboxPusher(MailboxLayout remote, bool coalesce)
      : remote_(remote), coalesce_(coalesce) {}

  // `write(addr, bytes, n)` performs one bus write.
  template <class Write>
  void push(const ship::ship_serializable_if& msg, std::uint32_t flags,
            Write&& write) {
    const std::size_t total = ship::to_bytes_into(msg, tx_buf_);
    std::size_t sent = 0;
    do {
      const std::size_t chunk =
          std::min<std::size_t>(remote_.window_bytes, total - sent);
      const std::uint8_t* p = tx_buf_.data() + sent;
      std::uint32_t ctrl = static_cast<std::uint32_t>(chunk) | flags;
      if (sent + chunk == total) ctrl |= MailboxLayout::kLastFlag;
      std::uint8_t cw[ocp::kWordBytes];
      ocp::u32_to_le(ctrl, cw);
      if (coalesce_) {
        co_buf_.assign(p, p + chunk);
        co_buf_.insert(co_buf_.end(), cw, cw + sizeof cw);
        write(remote_.ctrl(), co_buf_.data(), co_buf_.size());
      } else {
        if (chunk > 0) write(remote_.data_in(), p, chunk);
        write(remote_.ctrl(), cw, sizeof cw);
      }
      sent += chunk;
    } while (sent < total);
  }

private:
  MailboxLayout remote_;
  bool coalesce_;
  std::vector<std::uint8_t> tx_buf_;  // serialization scratch
  std::vector<std::uint8_t> co_buf_;  // coalesced [chunk ++ ctrl] scratch
};

}  // namespace stlm::cam
