#pragma once
// Simulation events — the kernel's synchronization primitive.
//
// An Event supports the three SystemC notification flavours:
//   * notify()            — immediate: waiting processes become runnable in
//                            the current evaluation phase;
//   * notify_delta()      — delta: waiting processes run in the next delta
//                            cycle (after the update phase);
//   * notify(Time delay)  — timed: trigger after `delay` of simulated time.
//
// A pending (delta or timed) notification can be cancelled. An event holds
// at most one pending notification; a new notification overrides a pending
// one only if it would occur *earlier* (SystemC override rule).

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/handle.hpp"
#include "kernel/time.hpp"

namespace stlm {

class Simulator;
class Process;
class MethodProcess;

class Event {
public:
  // Binds to the thread-current Simulator (which must exist).
  explicit Event(std::string name = "event");
  ~Event();

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void notify();            // immediate
  void notify_delta();      // next delta cycle
  void notify(Time delay);  // timed (delay == 0 behaves like notify_delta)
  void cancel();            // drop a pending delta/timed notification

  bool pending() const { return delta_pending_ || timed_pending_; }
  const std::string& name() const { return name_; }
  Simulator& sim() const { return *sim_; }

  // Binds to an explicit simulator (used by kernel-owned events that may be
  // created while another simulator is current).
  Event(Simulator& sim, std::string name);

  // Kernel-internal: register a one-shot dynamic waiter (used by wait()).
  void add_dynamic_waiter(Process& p);

private:
  friend class Simulator;
  friend class Process;
  friend class MethodProcess;

  // Wake every dynamically waiting process and queue statically
  // sensitive methods. Called by the scheduler (or by notify() directly).
  void trigger();

  Simulator* sim_;
  std::string name_;
  std::uint32_t slot_ = 0;                // generation slot (handle.hpp)
  std::vector<detail::Handle<Process>> dynamic_;  // one-shot waiters
  // Statically sensitive method processes. Kept in step with each
  // method's static_events_ from both sides (whichever dies first
  // unlinks), so both lists only ever hold live objects.
  std::vector<MethodProcess*> static_;
  Time timed_when_ = Time::zero();        // valid while timed_pending_
  bool delta_pending_ = false;
  bool timed_pending_ = false;
};

}  // namespace stlm
