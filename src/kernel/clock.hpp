#pragma once
// Clock generator: a Module driving a bool Signal with a fixed period and
// duty cycle. Pin-level models and accessors synchronize to
// posedge_event(); CCATB models only use period() for cycle arithmetic,
// which is what keeps them fast.
//
// The generator is a method process re-armed by its own timed event, so
// a clock costs no coroutine switches: each edge is one method dispatch
// that writes the signal (visible, as ever, one delta later).

#include <cstdint>
#include <limits>
#include <string>

#include "kernel/module.hpp"
#include "kernel/signal.hpp"
#include "kernel/time.hpp"

namespace stlm {

class Clock final : public Module {
public:
  Clock(Simulator& sim, std::string name, Time period, double duty = 0.5,
        Time start = Time::zero(), Module* parent = nullptr);

  Signal<bool>& signal() { return sig_; }
  const Signal<bool>& signal() const { return sig_; }
  Event& posedge_event() { return sig_.posedge_event(); }
  Event& negedge_event() { return sig_.negedge_event(); }

  Time period() const { return period_; }
  // Number of rising edges generated so far.
  std::uint64_t cycle_count() const { return cycles_; }

  // Block the calling thread process until a rising edge at which
  // pred(sig.read()) holds — exactly the edge that
  //
  //   do { wait(posedge_event()); } while (!pred(sig.read()));
  //
  // returns at, without waking on the edges in between. The helper waits
  // one edge and samples; while the predicate is false it sleeps on
  // sig's value-changed event and re-aligns to the next rising edge. A
  // change that lands in the same delta as a rising edge is sampled at
  // once (the edge's waiters run in that very delta).
  //
  // Contract: pred reads nothing but its argument. A condition on two
  // signals can change without `sig` changing, so it needs the per-edge
  // loop above.
  template <class T, class Pred>
  void wait_posedge_until(Signal<T>& sig, Pred pred) {
    wait(posedge_event());
    while (!pred(sig.read())) {
      wait(sig.value_changed_event());
      if (sim().delta_count() != posedge_delta_) wait(posedge_event());
    }
  }

private:
  void on_tick();

  Time period_;
  Time high_;
  Time low_;
  Signal<bool> sig_;
  Event tick_;  // timed self-notification: the next edge
  std::uint64_t cycles_ = 0;
  // Delta cycle in which the latest rising edge's waiters run (the one
  // after the write).
  std::uint64_t posedge_delta_ = std::numeric_limits<std::uint64_t>::max();
};

}  // namespace stlm
