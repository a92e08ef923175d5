#pragma once
// Signals: primitive channels with evaluate/update semantics.
//
// A write becomes visible one delta cycle later (SystemC sc_signal
// semantics), which is what makes clocked pin-level models race-free: every
// process sampling a signal in a delta sees the value from before that
// delta's writes. If several processes write the same signal within one
// delta, the last write wins (no resolution).

#include <concepts>
#include <string>

#include "kernel/event.hpp"
#include "kernel/simulator.hpp"

namespace stlm {

template <class T>
class Signal final : public UpdateIf {
public:
  explicit Signal(Simulator& sim, std::string name = "signal", T init = T{})
      : UpdateIf(sim),
        name_(std::move(name)),
        cur_(init),
        next_(init),
        changed_(sim, name_ + ".changed"),
        posedge_(sim, name_ + ".pos"),
        negedge_(sim, name_ + ".neg") {}

  const T& read() const { return cur_; }
  operator const T&() const { return cur_; }

  void write(const T& v) {
    next_ = v;
    sim_.request_update(*this);
  }
  Signal& operator=(const T& v) {
    write(v);
    return *this;
  }

  const std::string& name() const { return name_; }
  Event& value_changed_event() { return changed_; }

  // Set the value outright, with no update and no event: for the owner
  // of a reset system (after Simulator::reset dropped any queued write).
  void reset(const T& v) {
    cur_ = v;
    next_ = v;
  }

  // Edge events are meaningful for bool signals (clocks, strobes, IRQs).
  Event& posedge_event()
    requires std::same_as<T, bool>
  {
    return posedge_;
  }
  Event& negedge_event()
    requires std::same_as<T, bool>
  {
    return negedge_;
  }

private:
  void update() override {
    if (next_ == cur_) return;
    cur_ = next_;
    changed_.notify_delta();
    if constexpr (std::same_as<T, bool>) {
      if (cur_) {
        posedge_.notify_delta();
      } else {
        negedge_.notify_delta();
      }
    }
  }

  std::string name_;
  T cur_;
  T next_;
  Event changed_;
  Event posedge_;
  Event negedge_;
};

}  // namespace stlm
