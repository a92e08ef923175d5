// Observability walkthrough (src/obs): timeline tracing, kernel
// profiling, and time-series metrics on one mapped system.
//
// The example maps a small synthetic SoC (two streams + an RPC service)
// onto a PLB platform at the CAM level, attaches all three observability
// pillars, runs the workload, and writes three artifacts:
//
//   <prefix>trace.json    Chrome Trace Event timeline — open it in
//                         https://ui.perfetto.dev or chrome://tracing:
//                         one track per process (run spans), one per bus
//                         (queue/service spans per transaction, fast-path
//                         fallback instants).
//   <prefix>metrics.csv   bus utilization / outstanding txns / queue
//                         depth sampled every 200 ns of simulated time.
//   <prefix>profile.json  kernel self-profile: wall-clock per process,
//                         ctx switches, timed-queue and stack-pool
//                         internals, fast-path hit rate.
//
// The trace and CSV depend only on simulated behaviour, so two runs of
// this binary produce byte-identical files — CI runs it twice and
// diffs (tools/check_trace.py --same). The profile contains host wall
// clock and is naturally different run to run.
//
// Build & run:  ./example_observability [output-prefix]

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "obs/obs.hpp"

using namespace stlm;

namespace {

workload::GraphFactory soc_factory() {
  return [](core::SystemGraph& g,
            std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    auto video = std::make_unique<workload::ProducerPe>("video", 16, 256, 80);
    auto ctrl = std::make_unique<workload::ProducerPe>("ctrl", 8, 16, 300);
    auto v_sink = std::make_unique<workload::SinkPe>("v_sink", 16);
    auto c_sink = std::make_unique<workload::SinkPe>("c_sink", 8);
    auto client = std::make_unique<workload::RequesterPe>("client", 8, 32, 150);
    auto server = std::make_unique<workload::EchoServerPe>("server", 8, 40);

    g.add_pe(*video);
    g.add_pe(*ctrl);
    g.add_pe(*v_sink);
    g.add_pe(*c_sink);
    g.add_pe(*client);
    g.add_pe(*server);
    g.connect("video_ch", *video, "out", *v_sink, "in", 2);
    g.connect("ctrl_ch", *ctrl, "out", *c_sink, "in", 1);
    g.connect("rpc", *client, "out", *server, "in", 1);

    o.push_back(std::move(video));
    o.push_back(std::move(ctrl));
    o.push_back(std::move(v_sink));
    o.push_back(std::move(c_sink));
    o.push_back(std::move(client));
    o.push_back(std::move(server));
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "obs_";

  std::printf("== observability walkthrough ==\n\n");

  // Build the abstract system and map it onto a fast-target PLB platform
  // (the fast path engages on uncontended accesses, so the trace shows
  // both fast completions and fallback instants).
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  soc_factory()(graph, owned);
  graph.discover_roles();

  core::Platform plat;
  plat.name = "plb-priority-fast";
  plat.bus = core::BusKind::Plb;
  plat.arb = core::ArbKind::Priority;
  plat.fast_targets = true;

  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, plat, core::AbstractionLevel::Cam);

  // --- pillar 1: timeline tracing ----------------------------------------
  obs::TraceSession trace;
  trace.attach(sim);

  // --- pillar 2: kernel self-profiler ------------------------------------
  obs::Profiler prof;
  prof.attach(sim);
  if (ms->bus() != nullptr) {
    cam::CamIf* bus = ms->bus();
    prof.add_bus(bus->name(), [bus] {
      obs::Profiler::BusSample s;
      const trace::StatSet& st = bus->stats();
      s.transactions = st.counter("transactions");
      s.fast_hits = st.counter("fast_path_hits");
      return s;
    });
  }

  // --- pillar 3: time-series metrics -------------------------------------
  obs::MetricsRegistry metrics;
  ms->install_default_gauges(metrics);
  obs::PeriodicSampler sampler(sim, metrics, Time::ns(200));

  const bool done = ms->run_until_done(Time::us(300));
  sampler.stop();

  std::printf("workload %s at t=%s\n\n", done ? "completed" : "DID NOT finish",
              sim.now().to_string().c_str());

  ms->report(std::cout);
  std::printf("\n");
  prof.write_table(std::cout);

  // --- artifacts ----------------------------------------------------------
  {
    std::ofstream out(prefix + "trace.json");
    trace.write_json(out);
  }
  {
    std::ofstream out(prefix + "metrics.csv");
    metrics.write_csv(out);
  }
  {
    std::ofstream out(prefix + "profile.json");
    prof.write_json(out);
  }
  std::printf("\ntrace events recorded   %zu (dropped %llu)\n",
              trace.event_count(),
              static_cast<unsigned long long>(trace.dropped_events()));
  std::printf("metric samples          %llu x %zu gauges\n",
              static_cast<unsigned long long>(sampler.samples()),
              metrics.gauge_count());
  std::printf("artifacts               %strace.json %smetrics.csv %sprofile.json\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());
  return done ? 0 : 1;
}
