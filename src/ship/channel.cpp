#include "ship/channel.hpp"

namespace stlm::ship {

const char* role_name(Role r) {
  switch (r) {
    case Role::Unknown: return "unknown";
    case Role::Master: return "master";
    case Role::Slave: return "slave";
  }
  return "?";
}

void ship_if::throw_conflict(const char* call) const {
  throw ProtocolError("SHIP role conflict on " + name_ + ": " +
                      role_name(role_) + " terminal called " + call);
}

void ship_if::throw_crossed() const {
  throw ProtocolError("SHIP channel " + name_ +
                      ": request crossed with opposing request "
                      "(both terminals acting as master)");
}

void ship_if::throw_unanswered() const {
  throw ProtocolError("SHIP endpoint " + name_ +
                      ": reply without outstanding request");
}

ShipChannel::ShipChannel(Simulator& sim, std::string name,
                         std::size_t queue_depth,
                         std::optional<CcatbModel> timing)
    : sim_(sim),
      name_(std::move(name)),
      depth_(queue_depth),
      timing_(timing) {
  STLM_ASSERT(depth_ > 0, "SHIP queue depth must be positive: " + name_);
  for (int i = 0; i < 2; ++i) {
    dir_[i].written =
        std::make_unique<Event>(sim, name_ + ".dir" + std::to_string(i) + ".written");
    dir_[i].consumed =
        std::make_unique<Event>(sim, name_ + ".dir" + std::to_string(i) + ".consumed");
  }
}

void ShipChannel::reset() {
  for (int i = 0; i < 2; ++i) {
    term_[i].reset_protocol();
    dir_[i].queue.clear();
  }
  messages_ = 0;
  bytes_ = 0;
}

void ShipChannel::set_txn_logger(trace::TxnLogger* log) {
  log_.bind(log, name_);
}

ShipChannel::Sent ShipChannel::send_msg(Direction& d,
                                        const ship_serializable_if& msg,
                                        bool is_request) {
  // Serialize into a pooled descriptor: the payload buffer's capacity is
  // recycled across messages, so a warmed-up channel moves bytes with no
  // allocation at all.
  Txn& t = sim_.txn_pool().acquire();
  t.begin_msg(is_request ? Txn::kFlagRequest : 0);
  // Issue stamp: when the sender entered the channel. The receiving side
  // reads it back for phase-accurate logging (a reply row spans the
  // reply's own issue -> arrival, not the requester's whole wait).
  t.enqueued = sim_.now();
  const std::size_t n = to_bytes_into(msg, t.data);
  const std::uint64_t id = t.id;
  if (timing_) {
    const Time lat = timing_->transfer_latency(n);
    if (!lat.is_zero()) wait(lat);
  }
  while (d.queue.size() >= depth_) wait(*d.consumed);
  d.queue.push_back(t);
  d.written->notify_delta();
  return Sent{n, id};
}

Txn* ShipChannel::pop(Direction& d) {
  while (d.queue.empty()) wait(*d.written);
  Txn* t = d.queue.pop_front();
  d.consumed->notify_delta();
  return t;
}

void ShipChannel::log_txn(trace::TxnKind kind, std::uint64_t txn_id,
                          std::size_t bytes, Time start) {
  ++messages_;
  bytes_ += bytes;
  if (log_) log_.record(kind, txn_id, bytes, start, sim_.now());
}

void ShipChannel::Terminal::put(const ship_serializable_if& msg,
                                MsgKind kind) {
  const Time start = ch->sim_.now();
  const Sent s = ch->send_msg(ch->dir_[index], msg, kind == MsgKind::Request);
  if (kind == MsgKind::Reply) return;
  ch->log_txn(kind == MsgKind::Send ? trace::TxnKind::Send
                                    : trace::TxnKind::Request,
              s.id, s.bytes, start);
}

bool ShipChannel::Terminal::take(ship_serializable_if& msg, bool reply) {
  Txn* t = ch->pop(ch->dir_[1 - index]);
  const bool is_request = t->is_request();
  // A request taken as a reply has crossed: ship_if throws, so it is
  // dropped undeserialized.
  const bool crossed = reply && is_request;
  if (!crossed) from_bytes(msg, t->data);
  // Phase-accurate reply row: from the slave's reply() issue (stamped on
  // the descriptor by send_msg) to its arrival here. The server's think
  // time lives *between* the request row's end and this row's start,
  // where trace replay can reproduce it as serve compute.
  const std::size_t bytes = t->data.size();
  const std::uint64_t id = t->id;
  const Time issue = t->enqueued;
  ch->sim_.txn_pool().release(*t);
  if (reply && !crossed) ch->log_txn(trace::TxnKind::Reply, id, bytes, issue);
  return is_request;
}

bool ShipChannel::Terminal::message_available() const {
  return !ch->dir_[1 - index].queue.empty();
}

}  // namespace stlm::ship
