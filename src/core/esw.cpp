#include "core/esw.hpp"

namespace stlm::core {

const char* partition_name(Partition p) {
  return p == Partition::Hardware ? "HW" : "SW";
}

ship::ship_if& HwExecContext::channel(const std::string& name) {
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) {
    throw ElaborationError("PE asked for unbound channel '" + name + "'");
  }
  return *it->second;
}

ship::ship_if& SwExecContext::channel(const std::string& name) {
  auto it = endpoints_.find(name);
  if (it == endpoints_.end()) {
    throw ElaborationError("SW task asked for unbound channel '" + name + "'");
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
    : name_(std::move(name)) {
  STLM_ASSERT(depth > 0, "SW channel depth must be positive: " + name_);
  for (int i = 0; i < 2; ++i) {
    dir_[i].items = std::make_unique<rtos::Semaphore>(
        os, name_ + ".items" + std::to_string(i), 0);
    dir_[i].space = std::make_unique<rtos::Semaphore>(
        os, name_ + ".space" + std::to_string(i), static_cast<int>(depth));
  }
}

const std::string& SwLocalChannel::Terminal::channel_name() const {
  return ch->name_;
}

void SwLocalChannel::push(Direction& d, Message m) {
  d.space->wait();
  d.queue.push_back(std::move(m));
  d.items->post();
}

SwLocalChannel::Message SwLocalChannel::pop(Direction& d) {
  d.items->wait();
  Message m = std::move(d.queue.front());
  d.queue.pop_front();
  d.space->post();
  return m;
}

void SwLocalChannel::Terminal::send(const ship::ship_serializable_if& msg) {
  state.mark(ship::Role::Master, "send");
  ch->push(ch->dir_[index], Message{ship::to_bytes(msg), false});
}

void SwLocalChannel::Terminal::recv(ship::ship_serializable_if& msg) {
  state.mark(ship::Role::Slave, "recv");
  Message m = ch->pop(ch->dir_[1 - index]);
  state.note_recv(m.is_request);
  ship::from_bytes(msg, m.payload);
}

void SwLocalChannel::Terminal::request(const ship::ship_serializable_if& req,
                                       ship::ship_serializable_if& resp) {
  state.mark(ship::Role::Master, "request");
  ch->push(ch->dir_[index], Message{ship::to_bytes(req), true});
  Message r = ch->pop(ch->dir_[1 - index]);
  ship::from_bytes(resp, r.payload);
}

void SwLocalChannel::Terminal::reply(const ship::ship_serializable_if& resp) {
  state.take_reply();
  ch->push(ch->dir_[index], Message{ship::to_bytes(resp), false});
}

bool SwLocalChannel::Terminal::message_available() const {
  return !ch->dir_[1 - index].queue.empty();
}

}  // namespace stlm::core
