#include "cam/retry.hpp"

#include <algorithm>

#include "obs/trace_session.hpp"

namespace stlm::cam {

RetryPolicy::RetryPolicy(Simulator& sim, std::string name,
                         fault::RetrySpec spec, CamIf& bus,
                         std::size_t master)
    : Module(sim, std::move(name)),
      spec_(spec),
      bus_(bus),
      master_(master),
      timer_(sim, full_name() + ".watchdog") {
  if (watching()) {
    spawn_method("watchdog", [this] { watchdog_fire(); }, {&timer_},
                 /*run_at_start=*/false);
  }
}

void RetryPolicy::reset() {
  armed_.clear();
  errors_ = 0;
  retries_ = 0;
  timeouts_ = 0;
  aborts_ = 0;
}

void RetryPolicy::arm(Txn& txn) {
  const Time now = sim().now();
  armed_.push_back(Armed{&txn, now + spec_.timeout, now});
  // Timed notifications keep the earliest pending instant, so blindly
  // notifying per arm always leaves the timer on the nearest deadline.
  timer_.notify(spec_.timeout);
}

void RetryPolicy::disarm(Txn& txn) {
  const auto it =
      std::find_if(armed_.begin(), armed_.end(),
                   [&txn](const Armed& a) { return a.txn == &txn; });
  if (it == armed_.end()) return;  // settle() on an unwatched descriptor
  // Retrospective span covering the watched window: armed -> settled.
  // When the deadline was missed, the "timeout" instant (stamped at the
  // deadline by watchdog_fire) falls inside this span by construction —
  // the containment tools/check_trace.py verifies.
  if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
    ts->async_span(full_name(), "watchdog", txn.id, it->armed_at, sim().now());
  }
  armed_.erase(it);
  // Re-aim (or drop) the timer so a settled descriptor's stale deadline
  // cannot keep the simulation alive past the last real event.
  renotify(sim().now());
}

void RetryPolicy::watchdog_fire() {
  const Time now = sim().now();
  for (Armed& a : armed_) {
    if (a.deadline > now) continue;
    if (a.txn->deadline_missed || a.txn->done.completed()) continue;
    a.txn->deadline_missed = true;
    ++timeouts_;
    if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
      ts->instant(full_name(), "timeout", now);
    }
  }
  renotify(now);
}

void RetryPolicy::renotify(Time now) {
  timer_.cancel();  // drop any notification aimed at a settled deadline
  bool found = false;
  Time next = Time::zero();
  for (const Armed& a : armed_) {
    if (a.deadline <= now) continue;
    if (!found || a.deadline < next) {
      next = a.deadline;
      found = true;
    }
  }
  if (found) timer_.notify(next - now);
}

bool RetryPolicy::prepare_retry(Txn& txn) {
  if (spec_.max_retries == 0) return false;  // watchdog-only policy
  if (txn.retries >= spec_.max_retries) {
    txn.status = Txn::Status::Aborted;
    ++aborts_;
    if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
      ts->instant(full_name(), "abort", sim().now());
    }
    return false;
  }
  // Exponential backoff in simulated time: attempt k (1-based) re-issues
  // after backoff_cycles << (k-1) bus cycles.
  const std::uint64_t cycles = spec_.backoff_cycles << txn.retries;
  if (cycles != 0) wait(bus_.cycle() * cycles);
  txn.rearm_retry();
  ++retries_;
  if (obs::TraceSession* ts = sim().trace_session(); ts != nullptr) {
    ts->instant(full_name(), "retry", sim().now());
  }
  return true;
}

void RetryPolicy::transport(Txn& txn) {
  for (;;) {
    if (watching()) arm(txn);
    bus_.master_port(master_).transport(txn);
    if (watching()) disarm(txn);
    if (txn.status != Txn::Status::Error) return;
    ++errors_;
    if (!prepare_retry(txn)) return;
  }
}

void RetryPolicy::post(Txn& txn) {
  if (watching()) arm(txn);
  bus_.post(master_, txn);
}

void RetryPolicy::settle(Txn& txn) {
  if (watching()) disarm(txn);
  while (txn.status == Txn::Status::Error) {
    ++errors_;
    if (!prepare_retry(txn)) return;
    // Re-issues run inline from the initiator's coroutine: the window
    // slot is already drained, so a blocking round trip here keeps the
    // initiator's posting depth intact.
    if (watching()) arm(txn);
    bus_.post(master_, txn);
    txn.done.wait(sim());
    if (watching()) disarm(txn);
  }
}

}  // namespace stlm::cam
