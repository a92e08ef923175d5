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

void SwLocalChannel::reset() {
  for (int i = 0; i < 2; ++i) {
    term_[i].reset_protocol();
    dir_[i].reset();
  }
}

void SwLocalChannel::Terminal::put(const ship::ship_serializable_if& msg,
                                   ship::MsgKind kind) {
  ch->dir_[index].send(
      Message{ship::to_bytes(msg), kind == ship::MsgKind::Request});
}

bool SwLocalChannel::Terminal::take(ship::ship_serializable_if& msg,
                                    bool reply) {
  Message m = ch->dir_[1 - index].recv();
  // A request taken as a reply has crossed: ship_if throws.
  if (!(reply && m.is_request)) ship::from_bytes(msg, m.payload);
  return m.is_request;
}

bool SwLocalChannel::Terminal::message_available() const {
  return ch->dir_[1 - index].size() != 0;
}

}  // namespace stlm::core
