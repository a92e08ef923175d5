#include "core/esw.hpp"

namespace stlm::core {

const char* partition_name(Partition p) {
  return p == Partition::Hardware ? "HW" : "SW";
}

ship::ship_if& ExecContext::channel(const std::string& name) {
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) {
    throw ElaborationError("PE asked for unbound channel '" + name + "'");
  }
  return *it->second;
}

void SwExecContext::idle(Time t) {
  const Time tick = os_.config().tick;
  const std::uint64_t ticks = (t.femtoseconds() + tick.femtoseconds() - 1) /
                              tick.femtoseconds();
  os_.delay_ticks(ticks == 0 ? 1 : ticks);
}

// --------------------------------------------------------- SW channel --

SwLocalChannel::SwLocalChannel(rtos::Rtos& os, std::string name,
                               std::size_t depth)
    : name_(std::move(name)),
      dir_{{os, name_ + ".0", depth}, {os, name_ + ".1", depth}} {
  STLM_ASSERT(depth > 0, "SW channel depth must be positive: " + name_);
}

const std::string& SwLocalChannel::Terminal::channel_name() const {
  return ch->name_;
}

void SwLocalChannel::Terminal::send(const ship::ship_serializable_if& msg) {
  state.mark(ship::Role::Master, "send");
  ch->dir_[index].send(Message{ship::to_bytes(msg), false});
}

void SwLocalChannel::Terminal::recv(ship::ship_serializable_if& msg) {
  state.mark(ship::Role::Slave, "recv");
  Message m = ch->dir_[1 - index].recv();
  state.note_recv(m.is_request);
  ship::from_bytes(msg, m.payload);
}

void SwLocalChannel::Terminal::request(const ship::ship_serializable_if& req,
                                       ship::ship_serializable_if& resp) {
  state.mark(ship::Role::Master, "request");
  ch->dir_[index].send(Message{ship::to_bytes(req), true});
  Message r = ch->dir_[1 - index].recv();
  if (r.is_request) {
    throw ProtocolError("SHIP channel " + ch->name_ +
                        ": request crossed with opposing request "
                        "(both terminals acting as master)");
  }
  ship::from_bytes(resp, r.payload);
}

void SwLocalChannel::Terminal::reply(const ship::ship_serializable_if& resp) {
  state.take_reply();
  ch->dir_[index].send(Message{ship::to_bytes(resp), false});
}

bool SwLocalChannel::Terminal::message_available() const {
  return ch->dir_[1 - index].size() != 0;
}

}  // namespace stlm::core
