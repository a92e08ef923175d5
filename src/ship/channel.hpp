#pragma once
// The SHIP channel (paper §2).
//
// A lightweight message-passing channel for directed point-to-point
// connections between two communication entities. It offers four blocking
// interface method calls:
//
//     send(msg)           master, one-way
//     recv(msg)           slave, one-way
//     request(req, resp)  master, round-trip
//     reply(resp)         slave, round-trip
//
// A PE that exclusively uses send/request implicitly is a communication
// master; one that uses recv/reply is a slave. The channel records which
// of its two terminals used which group and exposes the deduced roles —
// this is the paper's "automatic master/slave detection", consumed by the
// mapper (src/core/mapper.*) when it picks wrappers and adapters. Mixing
// master and slave calls on one terminal raises ProtocolError.
//
// Payloads are serialized on send and deserialized on receive, so the
// bytes moved here are exactly the bytes a refined model moves through a
// CAM or across the HW/SW interface.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/simulator.hpp"
#include "ship/serialization.hpp"
#include "ship/timing.hpp"
#include "trace/txn_log.hpp"

namespace stlm::ship {

enum class Role : std::uint8_t { Unknown, Master, Slave };
const char* role_name(Role r);

// The kind of message an endpoint's put() carries.
enum class MsgKind : std::uint8_t { Send, Request, Reply };

// The one SHIP terminal a PE port binds to. The four interface method
// calls are defined once, here, and are not virtual: the first master
// call (send/request) or slave call (recv/reply) latches role(), and a
// call of the other group afterwards is a role conflict; reply() must
// answer a request recv() returned; a request() answered by a request
// has crossed with the peer's. Each violation throws ProtocolError
// naming the endpoint.
//
// An endpoint supplies only its transport:
//   put(msg, kind)      queue one message toward the peer (may block);
//   take(msg, reply)    block for the next inbound message (the next
//                       reply when `reply`), deserialize it into `msg`
//                       and return whether it is a request. A request
//                       taken as a reply may be dropped undeserialized;
//   message_available() non-blocking probe: is a message waiting for
//                       recv()?
class ship_if {
public:
  virtual ~ship_if() = default;

  // Inline on purpose: a PE blocks inside these calls, and every frame
  // between the PE and the kernel's wait costs a mispredicted return
  // after each context switch.
  void send(const ship_serializable_if& msg) {
    mark(Role::Master, "send");
    put(msg, MsgKind::Send);
  }
  void recv(ship_serializable_if& msg) {
    mark(Role::Slave, "recv");
    if (take(msg, /*reply=*/false)) ++pending_replies_;
  }
  void request(const ship_serializable_if& req, ship_serializable_if& resp) {
    mark(Role::Master, "request");
    put(req, MsgKind::Request);
    if (take(resp, /*reply=*/true)) throw_crossed();
  }
  void reply(const ship_serializable_if& resp) {
    mark(Role::Slave, "reply");
    if (pending_replies_ == 0) throw_unanswered();
    --pending_replies_;
    put(resp, MsgKind::Reply);
  }

  virtual bool message_available() const = 0;
  Role role() const { return role_; }

  // Forget the role the calls latched (back to the fixed one) and the
  // requests awaiting a reply: the endpoint of a reset system.
  void reset_protocol() {
    role_ = fixed_;
    pending_replies_ = 0;
  }

protected:
  // `name` is owned by the endpoint and names it in errors. An endpoint
  // whose role is fixed by construction passes it as `fixed`.
  explicit ship_if(const std::string& name, Role fixed = Role::Unknown)
      : name_(name), fixed_(fixed), role_(fixed) {}

  virtual void put(const ship_serializable_if& msg, MsgKind kind) = 0;
  virtual bool take(ship_serializable_if& msg, bool reply) = 0;

private:
  void mark(Role r, const char* call) {
    if (role_ != Role::Unknown && role_ != r) throw_conflict(call);
    role_ = r;
  }
  [[noreturn]] void throw_conflict(const char* call) const;
  [[noreturn]] void throw_crossed() const;
  [[noreturn]] void throw_unanswered() const;

  const std::string& name_;
  Role fixed_;
  Role role_;
  std::uint64_t pending_replies_ = 0;
};

class ShipChannel {
public:
  // `queue_depth` bounds the number of in-flight messages per direction;
  // a full queue blocks the sender (depth 1 = single-buffered handshake).
  // `timing` nullopt = component assembly (untimed), a model = CCATB.
  ShipChannel(Simulator& sim, std::string name, std::size_t queue_depth = 1,
              std::optional<CcatbModel> timing = std::nullopt);

  ShipChannel(const ShipChannel&) = delete;
  ShipChannel& operator=(const ShipChannel&) = delete;

  // The two terminals. By convention examples bind the initiating PE to
  // a() — but roles are *detected*, not positional.
  ship_if& a() { return term_[0]; }
  ship_if& b() { return term_[1]; }

  const std::string& name() const { return name_; }
  Role role_a() const { return term_[0].role(); }
  Role role_b() const { return term_[1].role(); }

  // Switch abstraction level in place (nullopt = untimed).
  void set_timing(std::optional<CcatbModel> t) { timing_ = t; }

  void set_txn_logger(trace::TxnLogger* log);

  // Back to the state right after construction (after Simulator::reset):
  // empty queues, unlatched roles, zero counters. The queued descriptors
  // are left to the pool's reset.
  void reset();

  // Lifetime counters.
  std::uint64_t messages_transferred() const { return messages_; }
  std::uint64_t bytes_transferred() const { return bytes_; }
  // Messages currently queued across both directions — an instantaneous
  // depth gauge for obs::MetricsRegistry time series.
  std::size_t queued_messages() const {
    return dir_[0].queue.size() + dir_[1].queue.size();
  }

private:
  // Send and Request rows are written at put(); a Reply row is written
  // where the reply arrives, in take().
  struct Terminal final : ship_if {
    Terminal(ShipChannel& c, int i) : ship_if(c.name_), ch(&c), index(i) {}
    bool message_available() const override;
    void put(const ship_serializable_if& msg, MsgKind kind) override;
    bool take(ship_serializable_if& msg, bool reply) override;

    ShipChannel* ch;
    int index;  // 0 = a, 1 = b
  };

  // In-flight messages are pooled Txn descriptors (op == Msg) linked
  // through their intrusive next pointer — no per-message allocation.
  struct Direction {
    TxnQueue queue;
    std::unique_ptr<Event> written;
    std::unique_ptr<Event> consumed;
  };

  struct Sent {
    std::size_t bytes;
    std::uint64_t id;  // Txn id of the enqueued descriptor (trace key)
  };
  // Serializes `msg` into a pooled descriptor, charges the timing model,
  // and enqueues; returns the payload size and descriptor id.
  Sent send_msg(Direction& d, const ship_serializable_if& msg,
                bool is_request);
  Txn* pop(Direction& d);
  void log_txn(trace::TxnKind kind, std::uint64_t txn_id, std::size_t bytes,
               Time start);

  Simulator& sim_;
  std::string name_;
  std::size_t depth_;
  std::optional<CcatbModel> timing_;
  Terminal term_[2]{{*this, 0}, {*this, 1}};
  Direction dir_[2];  // dir_[i]: messages flowing *out of* terminal i
  trace::LogHandle log_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace stlm::ship
