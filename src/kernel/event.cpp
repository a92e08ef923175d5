// stlm-lint: hot-path — dispatched on every event/delta; steady-state
// simulation must stay heap-allocation-free (see tools/stlm_lint.py).
#include "kernel/event.hpp"

#include "kernel/process.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace stlm {

Event::Event(std::string name)
    : sim_(&Simulator::require_current()), name_(std::move(name)) {
  sim_->register_event(*this);
}

Event::Event(Simulator& sim, std::string name)
    : sim_(&sim), name_(std::move(name)) {
  sim_->register_event(*this);
}

Event::~Event() {
  for (MethodProcess* m : static_) std::erase(m->static_events_, this);
  sim_->retire_event(*this);
}

void Event::notify() {
  // Immediate: wake waiters into the current evaluation phase.
  trigger();
}

void Event::notify_delta() {
  if (delta_pending_) return;
  if (timed_pending_) {
    // A delta notification is always earlier than a timed one: override.
    sim_->invalidate(slot_);
    timed_pending_ = false;
  }
  delta_pending_ = true;
  sim_->schedule_delta_event(*this);
}

void Event::notify(Time delay) {
  if (delay.is_zero()) {
    notify_delta();
    return;
  }
  if (delta_pending_) return;  // pending delta is earlier; keep it
  const Time abs = sim_->now() + delay;
  if (timed_pending_) {
    if (timed_when_ <= abs) return;  // pending one is earlier; keep it
    sim_->invalidate(slot_);         // lapse the later pending entry
  }
  timed_pending_ = true;
  timed_when_ = abs;
  sim_->schedule_timed_event(*this, abs);
}

void Event::cancel() {
  sim_->invalidate(slot_);
  delta_pending_ = false;
  timed_pending_ = false;
}

void Event::add_dynamic_waiter(Process& p) {
  dynamic_.push_back(sim_->handle(p));
}

void Event::trigger() {
  delta_pending_ = false;
  timed_pending_ = false;
  sim_->invalidate(slot_);

  // One-shot dynamic waiters, walked in place: make_runnable only
  // enqueues, so nothing re-enters add_dynamic_waiter on this event
  // mid-loop, and clear() keeps the buffer for the next wait.
  // A waiter's handle lapses when it resumes (woken by something else),
  // terminates or dies.
  for (const detail::Handle<Process>& w : dynamic_) {
    if (sim_->current(w)) {
      sim_->make_runnable(w, Process::WakeReason::Event);
    }
  }
  dynamic_.clear();

  for (MethodProcess* m : static_) sim_->queue_method(*m);
}

}  // namespace stlm
