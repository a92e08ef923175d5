#include "kernel/clock.hpp"

#include "kernel/report.hpp"

namespace stlm {

Clock::Clock(Simulator& sim, std::string name, Time period, double duty,
             Time start, Module* parent)
    : Module(sim, std::move(name), parent),
      period_(period),
      sig_(sim, full_name() + ".clk", false),
      tick_(sim, full_name() + ".tick") {
  STLM_ASSERT(!period.is_zero(), "clock period must be positive: " + full_name());
  STLM_ASSERT(duty > 0.0 && duty < 1.0,
              "clock duty cycle must be in (0,1): " + full_name());
  high_ = Time::fs(static_cast<std::uint64_t>(
      static_cast<double>(period.femtoseconds()) * duty));
  STLM_ASSERT(!high_.is_zero() && high_ < period_,
              "clock duty cycle unrepresentable: " + full_name());
  low_ = period_ - high_;
  // The first rising edge comes at `start`; each edge schedules the next.
  spawn_method("gen", [this] { on_tick(); }, {&tick_},
               /*run_at_start=*/start.is_zero());
  if (!start.is_zero()) tick_.notify(start);
}

void Clock::on_tick() {
  if (!sig_.read()) {
    sig_.write(true);
    ++cycles_;
    posedge_delta_ = sim().delta_count() + 1;
    tick_.notify(high_);
  } else {
    sig_.write(false);
    tick_.notify(low_);
  }
}

}  // namespace stlm
