// Failure-semantics walkthrough (src/fault + cam::RetryPolicy): seeded
// fault injection, initiator-side retries with exponential backoff and
// timeout watchdogs, and QoS aging arbitration on one mapped system.
//
// The example maps a two-stream producer/sink workload onto a PLB
// platform at the CAM level with an active fault profile (errors,
// latency spikes, grant stalls) and a retry policy tight enough that
// injected spikes occasionally miss the watchdog deadline. It writes
// three artifacts:
//
//   <prefix>report.txt   the mapped-system report, including the
//                        failure-semantics section (injected faults,
//                        errors seen, retries, timeouts, aborts).
//   <prefix>txns.csv     the schema-v3 transaction log — one row per
//                        attempt, carrying `status` and `retries`.
//   <prefix>trace.json   Chrome Trace Event timeline with fault/retry/
//                        timeout/abort instants and a retrospective
//                        `watchdog` span per watched transaction.
//
// Everything here is a pure function of (workload, platform, seed), so
// two runs of this binary produce byte-identical files — the CI
// `faults` job runs it twice and diffs all three artifacts, then
// validates the trace with tools/check_trace.py (which also checks that
// every `timeout` instant lands inside a completed watchdog span).
//
// Build & run:  ./example_faults [output-prefix]

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "obs/obs.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

workload::GraphFactory streams_factory() {
  return [](core::SystemGraph& g,
            std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    auto video = std::make_unique<workload::ProducerPe>("video", 200, 96, 20);
    auto audio = std::make_unique<workload::ProducerPe>("audio", 200, 96, 20);
    auto v_sink = std::make_unique<workload::SinkPe>("v_sink", 200);
    auto a_sink = std::make_unique<workload::SinkPe>("a_sink", 200);
    g.add_pe(*video);
    g.add_pe(*audio);
    g.add_pe(*v_sink);
    g.add_pe(*a_sink);
    g.connect("video_ch", *video, "out", *v_sink, "in", 2);
    g.connect("audio_ch", *audio, "out", *a_sink, "in", 2);
    o.push_back(std::move(video));
    o.push_back(std::move(audio));
    o.push_back(std::move(v_sink));
    o.push_back(std::move(a_sink));
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "faults_";

  std::printf("== failure-semantics walkthrough ==\n");

  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  streams_factory()(graph, owned);
  graph.discover_roles();

  core::Platform plat;
  plat.name = "plb-aging-faulted";
  plat.bus = core::BusKind::Plb;
  plat.arb = core::ArbKind::PriorityAging;
  plat.aging_cycles = 16;
  plat.fault.name = "flaky";
  plat.fault.seed = 0xfa;
  plat.fault.error_rate = 0.05;
  plat.fault.spike_rate = 0.03;
  plat.fault.spike_cycles = 40;  // spikes long enough to miss the deadline
  plat.fault.stall_rate = 0.02;
  plat.fault.stall_cycles = 2;
  plat.retry.name = "r6";
  plat.retry.max_retries = 6;
  plat.retry.backoff_cycles = 2;
  plat.retry.timeout = 400_ns;

  Simulator sim;
  obs::TraceSession trace;
  trace.attach(sim);

  auto ms = core::Mapper::map(sim, graph, plat, core::AbstractionLevel::Cam);
  const bool done = ms->run_until_done(200_ms);

  trace.detach();
  {
    std::ofstream out(prefix + "report.txt");
    ms->report(out);
  }
  {
    std::ofstream out(prefix + "txns.csv");
    ms->txn_log().dump_csv(out);
  }
  {
    std::ofstream out(prefix + "trace.json");
    trace.write_json(out);
  }

  const auto t = ms->failure_totals();
  std::printf("completed: %s  sim time: %.2f us\n", done ? "yes" : "NO",
              sim.now().to_ns() / 1000.0);
  std::printf(
      "injected: %llu errors, %llu spikes, %llu stalls | "
      "seen: %llu errors, %llu retries, %llu timeouts, %llu aborts\n",
      static_cast<unsigned long long>(t.injected_errors),
      static_cast<unsigned long long>(t.injected_spikes),
      static_cast<unsigned long long>(t.injected_stalls),
      static_cast<unsigned long long>(t.errors_seen),
      static_cast<unsigned long long>(t.retries_issued),
      static_cast<unsigned long long>(t.timeouts),
      static_cast<unsigned long long>(t.aborts));
  std::printf("wrote %sreport.txt, %stxns.csv, %strace.json\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());
  return done ? 0 : 1;
}
