#pragma once
// Observability layer umbrella header.
//
// Three pillars, each usable on its own (see the individual headers):
//   * obs::TraceSession    — Chrome Trace Event JSON timeline export
//                            (loadable in Perfetto / chrome://tracing).
//   * obs::Profiler        — host wall-clock + dispatch-count attribution
//                            per process, plus kernel-internal snapshots
//                            (timed queue, stack pool, fast-path hits).
//   * obs::MetricsRegistry — simulated-time series of user gauges sampled
//                            by a PeriodicSampler process into CSV/JSON.
//
// The kernel/CAM hook call sites are always compiled in. With no session
// attached, each hook is a single null-pointer test on the owning
// Simulator.

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_session.hpp"

namespace stlm::obs {

// Always true: the hooks are part of the one library build. Kept only
// because perfbench/ still calls it.
constexpr bool compiled_in() { return true; }

}  // namespace stlm::obs
