#include "cam/wrappers.hpp"

#include <algorithm>

namespace stlm::cam {

ShipMasterWrapper::ShipMasterWrapper(Simulator& sim, std::string name,
                                     CamIf& cam, std::size_t master_index,
                                     MailboxLayout remote, Time poll_interval,
                                     bool coalesce)
    : Module(sim, std::move(name)),
      ship::ship_if(Module::name(), ship::Role::Master),
      cam_(cam),
      master_(master_index),
      remote_(remote),
      poll_interval_(poll_interval),
      pusher_(remote, coalesce) {}

ShipMasterWrapper::BusyGuard::BusyGuard(ShipMasterWrapper& w, const char* call)
    : w_(w) {
  if (w_.busy_) {
    throw ProtocolError("SHIP master wrapper " + w_.full_name() +
                        ": overlapping " + call +
                        " (the wrapper serves one PE at a time)");
  }
  w_.busy_ = true;
}

void ShipMasterWrapper::reset() {
  reset_protocol();
  rx_buf_.clear();
  busy_ = false;
  bus_txns_ = 0;
  polls_ = 0;
}

void ShipMasterWrapper::transport_checked(Txn& txn) {
  ++bus_txns_;
  if (retry_via_ != nullptr) {
    retry_via_->transport(txn);
  } else {
    cam_.master_port(master_).transport(txn);
  }
  // Timeout still carries valid data (the access completed, late); Error
  // and Aborted mean the mailbox protocol cannot make progress.
  if (!txn.data_valid()) {
    throw ProtocolError("SHIP master wrapper " + full_name() +
                        ": bus error at mailbox access");
  }
}

std::uint32_t ShipMasterWrapper::read_u32(std::uint64_t addr) {
  bus_txn_.begin_read(addr, 4);
  transport_checked(bus_txn_);
  return ocp::u32_from_le(bus_txn_.resp_data.data());
}

void ShipMasterWrapper::put(const ship::ship_serializable_if& msg,
                            ship::MsgKind kind) {
  BusyGuard busy(*this, kind == ship::MsgKind::Send ? "send" : "request");
  pusher_.push(msg, MailboxLayout::flags(kind),
               [this](std::uint64_t addr, const std::uint8_t* p, std::size_t n) {
                 bus_txn_.begin_write(addr, p, n);
                 transport_checked(bus_txn_);
               });
}

bool ShipMasterWrapper::take(ship::ship_serializable_if& msg, bool) {
  BusyGuard busy(*this, "request");
  rx_buf_.clear();
  for (;;) {
    const std::uint32_t remaining =
        read_u32(remote_.rstatus()) & MailboxLayout::kLenMask;
    if (remaining == 0) {
      if (!rx_buf_.empty()) break;  // fully drained
      ++polls_;
      wait(poll_interval_);
      continue;
    }
    const std::uint32_t chunk =
        std::min<std::uint32_t>(remaining, remote_.window_bytes);
    bus_txn_.begin_read(remote_.data_out(), chunk);
    transport_checked(bus_txn_);
    rx_buf_.insert(rx_buf_.end(), bus_txn_.resp_data.begin(),
                   bus_txn_.resp_data.end());
    static constexpr std::uint8_t kZeros[4] = {};
    bus_txn_.begin_write(remote_.rack(), kZeros, sizeof kZeros);
    transport_checked(bus_txn_);
    if (chunk == remaining) break;
  }
  decode_outbound(rx_buf_, msg);
  return false;
}

}  // namespace stlm::cam
