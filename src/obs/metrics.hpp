#pragma once
// Time-series metrics: named gauges sampled at a fixed simulated-time
// interval into CSV/JSON artifacts — utilization and queue depth *over
// time*, where the existing StatSet counters only give end-of-run
// aggregates. This is the groundwork for saturation/QoS curve sweeps.
//
// A gauge is any callable returning double (bus utilization, outstanding
// transaction count, channel queue depth, ...). The PeriodicSampler is an
// ordinary simulation thread process: it reads every gauge, appends one
// row stamped with the simulated time, and wait()s for the interval.
// Because the sampler is a real process it keeps the simulator non-idle:
// a bare run() never starves, so bound it with run_for()/stop(). A mapped
// system's run_until_done() needs nothing more — its last PE's return
// stops the run — so a sampled run reports the plain run's results. The
// lone-runner inline-advance fast path is naturally off while a sampler
// coexists with the workload (there are two live processes); that is
// the expected cost of opting into time-series capture.
//
// Determinism: rows contain only simulated time and gauge values, so for
// a deterministic simulation the CSV/JSON artifacts are byte-identical
// across runs.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace stlm {

class Simulator;

namespace obs {

class MetricsRegistry {
public:
  using Gauge = std::function<double()>;

  void add_gauge(std::string name, Gauge fn);
  std::size_t gauge_count() const { return gauges_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  // Read every gauge once and append a row stamped `now`.
  void sample(Time now);

  struct Row {
    Time when;
    std::vector<double> values;
  };
  const std::vector<Row>& rows() const { return rows_; }
  void clear() { rows_.clear(); }

  // CSV: header `time_us,<gauge>,...`, one row per sample; times rendered
  // as fixed-point microseconds (same mapping as the trace exporter).
  void write_csv(std::ostream& os) const;
  // JSON: {"names":[...],"rows":[{"t_us":...,"values":[...]},...]}.
  void write_json(std::ostream& os) const;

private:
  std::vector<std::string> names_;
  std::vector<Gauge> gauges_;
  std::vector<Row> rows_;
};

// Spawns a sim-owned thread process that samples `reg` every `interval`
// of simulated time (first sample at spawn time + interval). The process
// holds its state through a shared_ptr, so the PeriodicSampler handle may
// be destroyed in any order relative to the Simulator.
class PeriodicSampler {
public:
  PeriodicSampler(Simulator& sim, MetricsRegistry& reg, Time interval,
                  std::string name = "obs_sampler");

  // Stop sampling at the next wakeup (the process then terminates).
  void stop() { state_->stopped = true; }
  std::uint64_t samples() const { return state_->samples; }
  Time interval() const { return state_->interval; }

private:
  struct State {
    MetricsRegistry* reg;
    Time interval;
    bool stopped = false;
    std::uint64_t samples = 0;
  };
  std::shared_ptr<State> state_;
};

}  // namespace obs
}  // namespace stlm
