// Tests for the observability layer (src/obs): trace-exporter schema and
// determinism, the fast-path tracing blind-spot regression, the kernel
// profiler, metrics sampling, and the report/explorer surfacing.
//
// Txn ids are numbered per simulator, so two identical runs inside one
// test binary export byte-identical traces, ids included. Cross-process
// byte-identity is what CI checks by running the example twice.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cam/cam.hpp"
#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "obs/obs.hpp"
#include "ocp/memory.hpp"
#include "ocp/ocp.hpp"
#include "trace/channel_stats.hpp"
#include "trace/vcd.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// All "ts" values in file order (the fixed-point rendering parses exactly
// back through strtod for the magnitudes the tests produce).
std::vector<double> timestamps(const std::string& json) {
  std::vector<double> out;
  const std::string key = "\"ts\":";
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    out.push_back(std::strtod(json.c_str() + pos + key.size(), nullptr));
  }
  return out;
}

// A two-master workload against a PLB with optional fast targets: enough
// contention that fast runs mix fast-path completions and engine
// fallbacks, which is exactly the coverage the blind-spot test needs.
struct TraceRun {
  std::string json;
  std::uint64_t fast_hits = 0;
  std::uint64_t transactions = 0;
};

TraceRun run_traced_plb(bool fast, obs::TraceSession::Options opts = {}) {
  Simulator sim;
  obs::TraceSession trace(opts);
  trace.attach(sim);
  cam::PlbCam bus(sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>(),
                  0, cam::SplitConfig{}, fast);
  ocp::MemorySlave mem("mem", 0, 1 << 16, 30_ns);
  bus.attach_slave(mem, {0, 1 << 16}, "mem");
  const std::size_t m0 = bus.add_master("a");
  const std::size_t m1 = bus.add_master("b");
  sim.spawn_thread("a", [&] {
    std::vector<std::uint8_t> p(64, 1);
    Txn t;
    for (int i = 0; i < 10; ++i) {
      t.begin_write(static_cast<std::uint64_t>(i % 8) * 64, p.data(),
                    p.size());
      bus.master_port(m0).transport(t);
      wait(40_ns);
    }
  });
  sim.spawn_thread("b", [&] {
    wait(15_ns);
    std::vector<std::uint8_t> p(32, 2);
    Txn t;
    for (int i = 0; i < 10; ++i) {
      t.begin_read(0x1000 + static_cast<std::uint64_t>(i % 4) * 32, 32);
      bus.master_port(m1).transport(t);
      wait(25_ns);
    }
  });
  sim.run();
  TraceRun r;
  r.fast_hits = bus.fast_path_hits();
  r.transactions = bus.stats().counter("transactions");
  std::ostringstream os;
  trace.write_json(os);
  r.json = os.str();
  return r;
}

workload::GraphFactory tiny_factory() {
  return [](core::SystemGraph& g,
            std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    auto prod = std::make_unique<workload::ProducerPe>("prod", 8, 64, 100);
    auto sink = std::make_unique<workload::SinkPe>("sink", 8);
    g.add_pe(*prod);
    g.add_pe(*sink);
    g.connect("ch", *prod, "out", *sink, "in", 1);
    o.push_back(std::move(prod));
    o.push_back(std::move(sink));
  };
}

core::Platform fast_plb_platform() {
  core::Platform p;
  p.name = "plb-fast";
  p.bus = core::BusKind::Plb;
  p.arb = core::ArbKind::Priority;
  p.fast_targets = true;
  return p;
}

}  // namespace

// The exporter emits a well-formed Chrome Trace Event document: metadata
// names every track, duration pairs balance, async pairs balance, and
// timestamps are monotonically non-decreasing in file order.
TEST(ObsTrace, SchemaBalanceAndMonotonicity) {
  const TraceRun r = run_traced_plb(/*fast=*/false);
  const std::string& j = r.json;

  EXPECT_EQ(j.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  EXPECT_GE(count_of(j, "\"ph\":\"M\""), 3u);  // process + >=2 thread names
  EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"plb\""), std::string::npos);

  // Balanced pairs.
  const std::size_t b = count_of(j, "\"ph\":\"B\"");
  const std::size_t e = count_of(j, "\"ph\":\"E\"");
  EXPECT_GT(b, 0u);
  EXPECT_EQ(b, e);
  const std::size_t ab = count_of(j, "\"ph\":\"b\"");
  const std::size_t ae = count_of(j, "\"ph\":\"e\"");
  EXPECT_EQ(ab, ae);
  // Two async spans (queue + service) per completed transaction; each
  // span's name appears on both its 'b' and its 'e' event.
  EXPECT_EQ(ab, 2 * r.transactions);
  EXPECT_EQ(count_of(j, "\"name\":\"queue\""), 2 * r.transactions);
  EXPECT_EQ(count_of(j, "\"name\":\"service\""), 2 * r.transactions);

  const std::vector<double> ts = timestamps(j);
  ASSERT_GT(ts.size(), 4u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    ASSERT_GE(ts[i], ts[i - 1]) << "ts regression at event " << i;
  }
}

// Determinism: identical runs export byte-identical JSON, transaction
// span ids included (each simulator numbers its transactions from 1).
TEST(ObsTrace, ExportIsDeterministic) {
  const TraceRun run1 = run_traced_plb(false);
  const TraceRun run2 = run_traced_plb(false);
  EXPECT_GT(count_of(run1.json, "\"ph\":\"b\""), 0u);
  EXPECT_EQ(run1.json, run2.json);
}

// Fast-path blind-spot regression: transactions completed on the fast
// path (no grant-engine involvement) must still appear in the trace.
// A fast run and an engine-only run of the same workload agree on the
// transaction-span count, and the fast run demonstrably used both paths.
TEST(ObsTrace, FastPathTransactionsAreTraced) {
  const TraceRun slow = run_traced_plb(/*fast=*/false);
  const TraceRun fast = run_traced_plb(/*fast=*/true);

  EXPECT_EQ(slow.fast_hits, 0u);
  EXPECT_GT(fast.fast_hits, 0u);
  EXPECT_LT(fast.fast_hits, fast.transactions)
      << "need a mix of fast completions and engine fallbacks";

  EXPECT_EQ(fast.transactions, slow.transactions);
  EXPECT_EQ(count_of(fast.json, "\"name\":\"queue\""),
            count_of(slow.json, "\"name\":\"queue\""));
  EXPECT_EQ(count_of(fast.json, "\"name\":\"service\""),
            count_of(slow.json, "\"name\":\"service\""));
  // Fallbacks under contention are marked so the timeline explains them.
  EXPECT_GT(count_of(fast.json, "\"name\":\"fast_fallback\""), 0u);
  EXPECT_EQ(count_of(slow.json, "\"name\":\"fast_fallback\""), 0u);
}

// The event cap drops whole spans, never half of one: B/E stay balanced
// and the drop counter owns everything that fell off the end.
TEST(ObsTrace, EventCapKeepsPairsBalanced) {
  obs::TraceSession::Options tiny;
  tiny.max_events = 16;
  const TraceRun r = run_traced_plb(false, tiny);
  obs::TraceSession probe(tiny);  // options round-trip
  EXPECT_EQ(probe.options().max_events, 16u);

  EXPECT_EQ(count_of(r.json, "\"ph\":\"B\""), count_of(r.json, "\"ph\":\"E\""));
  EXPECT_EQ(count_of(r.json, "\"ph\":\"b\""), count_of(r.json, "\"ph\":\"e\""));
  const TraceRun uncapped = run_traced_plb(false);
  EXPECT_LT(count_of(r.json, "\"ph\":"), count_of(uncapped.json, "\"ph\":"));
}

// Profiler: dispatch hooks attribute wall time and dispatch counts per
// process, kernel counters flow into the snapshot, and bus sample
// callbacks produce the fast-hit rate. The JSON export carries the same.
TEST(ObsProfiler, AttributesDispatchesAndCounters) {
  Simulator sim;
  obs::Profiler prof;
  prof.attach(sim);
  cam::PlbCam bus(sim, "plb", 10_ns, std::make_unique<cam::PriorityArbiter>(),
                  0, cam::SplitConfig{}, /*fast=*/true);
  ocp::MemorySlave mem("mem", 0, 1 << 16);
  bus.attach_slave(mem, {0, 1 << 16}, "mem");
  const std::size_t m = bus.add_master("cpu");
  prof.add_bus("plb", [&bus] {
    obs::Profiler::BusSample s;
    s.transactions = bus.stats().counter("transactions");
    s.fast_hits = bus.fast_path_hits();
    return s;
  });
  sim.spawn_thread("cpu", [&] {
    std::vector<std::uint8_t> p(64, 3);
    Txn t;
    for (int i = 0; i < 8; ++i) {
      t.begin_write(static_cast<std::uint64_t>(i) * 64, p.data(), p.size());
      bus.master_port(m).transport(t);
      wait(10_ns);
    }
  });
  sim.run();

  const obs::Profiler::Snapshot s = prof.snapshot();
  EXPECT_GT(s.ctx_switches, 0u);
  EXPECT_EQ(s.ctx_switches, sim.ctx_switches());
  ASSERT_EQ(s.buses.size(), 1u);
  EXPECT_EQ(s.buses[0].transactions, 8u);
  EXPECT_EQ(s.buses[0].fast_hits, 8u);
  EXPECT_DOUBLE_EQ(s.fast_hit_rate, 1.0);
  ASSERT_FALSE(s.processes.empty());
  std::uint64_t cpu_dispatches = 0;
  for (const auto& p : s.processes) {
    if (p.name == "cpu") cpu_dispatches = p.dispatches;
    EXPECT_GE(p.wall_ns, 0.0);
  }
  EXPECT_GT(cpu_dispatches, 0u);

  std::ostringstream table, json;
  prof.write_table(table);
  prof.write_json(json);
  EXPECT_NE(table.str().find("ctx switches"), std::string::npos);
  EXPECT_NE(table.str().find("fast-path hit rate"), std::string::npos);
  EXPECT_NE(json.str().find("\"ctx_switches\""), std::string::npos);
  EXPECT_NE(json.str().find("\"fast_hit_rate\": 1"), std::string::npos);
}

// Observers key processes by ProcessBase::serial, not by address: a
// process built in a dead one's storage gets its own track and its own
// profiler row instead of being recorded as the dead one.
TEST(ObsLifetime, ProcessBuiltInDeadStorageIsANewProcess) {
  Simulator sim;
  obs::TraceSession trace;
  trace.attach(sim);
  obs::Profiler prof;
  prof.attach(sim);
  alignas(Process) unsigned char storage[sizeof(Process)];
  Process* first = new (storage) Process(sim, "first", [] {});
  sim.run();
  ASSERT_TRUE(first->terminated());
  const std::uint64_t first_serial = first->serial();
  first->~Process();
  Process* second = new (storage) Process(sim, "second", [] {});
  sim.run();
  ASSERT_TRUE(second->terminated());
  EXPECT_NE(second->serial(), first_serial);
  second->~Process();

  const obs::Profiler::Snapshot s = prof.snapshot();
  ASSERT_EQ(s.processes.size(), 2u);
  for (const auto& p : s.processes) {
    EXPECT_EQ(p.dispatches, 1u) << p.name;
  }
  std::ostringstream json;
  trace.write_json(json);
  EXPECT_EQ(count_of(json.str(), "\"args\":{\"name\":\"first\"}"), 1u);
  EXPECT_EQ(count_of(json.str(), "\"args\":{\"name\":\"second\"}"), 1u);
}

// The timed-queue and stack-pool internals the profiler snapshots move when the
// kernel actually schedules timed work across coroutine stacks.
TEST(ObsProfiler, KernelInternalCountersMove) {
  Simulator sim;
  obs::Profiler prof;
  prof.attach(sim);
  for (int i = 0; i < 4; ++i) {
    sim.spawn_thread("w" + std::to_string(i), [i] {
      for (int k = 0; k < 5; ++k) wait(Time::ns(10 + 7 * i));
    });
  }
  sim.run();
  const obs::Profiler::Snapshot s = prof.snapshot();
  EXPECT_GT(s.timed_pushes, 0u);
  EXPECT_GT(s.timed_peak_size, 0u);
  EXPECT_EQ(s.timed_size, 0u) << "run() drains the timed queue";
  EXPECT_GT(s.stack_peak_in_use, 0u);
  EXPECT_GE(s.ctx_switches, 4u);
}

// A single runner with nothing else live advances time inline instead of
// taking a scheduler round trip; the kernel counts those separately.
TEST(ObsProfiler, InlineAdvancesCounted) {
  Simulator sim;
  sim.spawn_thread("lone", [] {
    for (int i = 0; i < 10; ++i) wait(5_ns);
  });
  sim.run();
  EXPECT_GT(sim.inline_advances(), 0u);
}

// Observers destroyed while attached leave nothing behind for the next
// run to call into: the trace session and the profiler detach, and the
// VCD writer withdraws its post-delta hook. A simulator destroyed first
// detaches its observers, so their own destruction touches nothing dead.
TEST(ObsLifetime, DestroyedObserversDetach) {
  const std::string vcd_path = "/tmp/stlm_test_obs_lifetime.vcd";
  Simulator sim;
  Signal<bool> strobe(sim, "strobe", false);
  sim.spawn_thread("toggler", [&] {
    for (int i = 0; i < 4; ++i) {
      strobe.write(!strobe.read());
      wait(10_ns);
    }
  });
  {
    obs::TraceSession trace;
    trace.attach(sim);
    obs::Profiler prof;
    prof.attach(sim);
    trace::VcdWriter vcd(sim, vcd_path);
    vcd.add(strobe);
    sim.run_for(15_ns);
  }
  std::remove(vcd_path.c_str());
  EXPECT_EQ(sim.trace_session(), nullptr);
  EXPECT_EQ(sim.profiler(), nullptr);
  sim.run();
  EXPECT_EQ(sim.now(), 40_ns);

  obs::TraceSession trace;
  obs::Profiler prof;
  {
    Simulator inner;
    trace.attach(inner);
    prof.attach(inner);
    inner.run();
  }
  EXPECT_EQ(trace.simulator(), nullptr);
  EXPECT_EQ(prof.simulator(), nullptr);
}

// Metrics: the periodic sampler reads every gauge on a fixed simulated
// cadence, rows are stamped with simulated time, and the CSV artifact is
// shaped time_us,<gauges> with byte-identical output across runs.
TEST(ObsMetrics, PeriodicSamplerCadenceAndCsv) {
  auto run = [] {
    Simulator sim;
    obs::MetricsRegistry reg;
    int calls = 0;
    reg.add_gauge("ramp", [&calls] { return static_cast<double>(calls++); });
    reg.add_gauge("konst", [] { return 2.5; });
    obs::PeriodicSampler sampler(sim, reg, 100_ns, "sampler");
    sim.run_for(Time::us(1));
    sampler.stop();
    std::ostringstream os;
    reg.write_csv(os);
    return std::make_pair(os.str(), reg.rows().size());
  };
  const auto [csv1, rows1] = run();
  const auto [csv2, rows2] = run();

  EXPECT_EQ(rows1, 10u) << "1 us / 100 ns interval";
  EXPECT_EQ(csv1, csv2);
  EXPECT_EQ(csv1.rfind("time_us,ramp,konst\n", 0), 0u);
  EXPECT_NE(csv1.find("\n0.100000000,0,2.5\n"), std::string::npos);
  EXPECT_NE(csv1.find("\n1.000000000,9,2.5\n"), std::string::npos);
}

TEST(ObsMetrics, RegistrySamplesOnDemandAndExportsJson) {
  obs::MetricsRegistry reg;
  double v = 1.0;
  reg.add_gauge("g", [&v] { return v; });
  reg.sample(Time::ns(10));
  v = 3.0;
  reg.sample(Time::ns(20));
  ASSERT_EQ(reg.rows().size(), 2u);
  EXPECT_EQ(reg.rows()[0].values[0], 1.0);
  EXPECT_EQ(reg.rows()[1].values[0], 3.0);
  ASSERT_EQ(reg.names().size(), 1u);
  EXPECT_EQ(reg.names()[0], "g");
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find("\"names\":[\"g\"]"), std::string::npos);
  EXPECT_NE(os.str().find("\"t_us\":0.010000000"), std::string::npos);
  reg.clear();
  EXPECT_TRUE(reg.rows().empty());
}

// MappedSystem surfacing: report() prints the kernel observability
// section and the default gauges feed a sampler without any hand-wiring.
TEST(ObsIntegration, MappedSystemReportAndDefaultGauges) {
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  tiny_factory()(graph, owned);
  graph.discover_roles();

  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, fast_plb_platform(),
                              core::AbstractionLevel::Cam);
  obs::MetricsRegistry reg;
  ms->install_default_gauges(reg);
  EXPECT_GE(reg.gauge_count(), 3u);
  obs::PeriodicSampler sampler(sim, reg, 500_ns);
  ASSERT_TRUE(ms->run_until_done(Time::us(300)));
  sampler.stop();

  EXPECT_GT(reg.rows().size(), 0u);
  std::ostringstream os;
  ms->report(os);
  const std::string rep = os.str();
  EXPECT_NE(rep.find("kernel ctx switches"), std::string::npos);
  EXPECT_NE(rep.find("kernel inline advances"), std::string::npos);
  EXPECT_NE(rep.find("bus fast-path hit rate"), std::string::npos);
}

// Observing a run must not change it. A PeriodicSampler is a process
// that outlives the workload and a TraceSession hooks every delta, yet
// the run still ends at the last PE's return with the plain run's
// completion time, traffic and bus utilization.
TEST(ObsIntegration, ObserversLeaveTheRunsResultsUnchanged) {
  enum class Observer { None, Sampler, Trace };
  struct Result {
    bool done = false;
    Time end;
    std::uint64_t txns = 0;
    std::uint64_t bytes = 0;
    double utilization = 0.0;
  };
  auto run = [](Observer o) {
    std::vector<std::unique_ptr<core::ProcessingElement>> owned;
    core::SystemGraph graph;
    tiny_factory()(graph, owned);
    graph.discover_roles();
    Simulator sim;
    obs::TraceSession trace;
    if (o == Observer::Trace) trace.attach(sim);
    auto ms = core::Mapper::map(sim, graph, fast_plb_platform(),
                                core::AbstractionLevel::Cam);
    obs::MetricsRegistry reg;
    ms->install_default_gauges(reg);
    std::optional<obs::PeriodicSampler> sampler;
    if (o == Observer::Sampler) sampler.emplace(sim, reg, 200_ns);
    Result r;
    r.done = ms->run_until_done(Time::us(300));
    if (sampler) sampler->stop();
    r.end = sim.now();
    const auto d = trace::latency_dist(ms->txn_log().records());
    r.txns = d.count;
    r.bytes = d.bytes;
    r.utilization = ms->bus()->utilization();
    if (o == Observer::Sampler) {
      EXPECT_GT(reg.rows().size(), 0u);
    }
    if (o == Observer::Trace) {
      EXPECT_GT(trace.event_count(), 0u);
    }
    return r;
  };
  const Result plain = run(Observer::None);
  ASSERT_TRUE(plain.done);
  ASSERT_GT(plain.txns, 0u);
  for (const Observer o : {Observer::Sampler, Observer::Trace}) {
    const Result seen = run(o);
    const char* which = o == Observer::Sampler ? "sampler" : "trace";
    EXPECT_TRUE(seen.done) << which;
    EXPECT_EQ(seen.end, plain.end)
        << which << " ended at " << seen.end.to_string() << ", plain at "
        << plain.end.to_string();
    EXPECT_EQ(seen.txns, plain.txns) << which;
    EXPECT_EQ(seen.bytes, plain.bytes) << which;
    EXPECT_EQ(seen.utilization, plain.utilization) << which;
  }
}

// Attached OCP monitors show up in the report with their full counter set
// (stall cycles, violations, outstanding) — previously those sat unread
// on the monitor object unless a test polled them directly.
TEST(ObsIntegration, ReportSurfacesOcpMonitors) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);
  ocp::OcpPins pins(sim, "pins");
  ocp::MemorySlave mem("mem", 0, 4096, 20_ns);
  ocp::OcpPinMaster master(sim, "master", pins, clk);
  ocp::OcpPinSlave slave(sim, "slave", pins, clk, mem);
  ocp::OcpMonitor mon(sim, "mon", pins, clk);
  sim.spawn_thread("pe", [&] {
    master.transport(ocp::Request::write(0x40, {1, 2, 3, 4}));
    master.transport(ocp::Request::read(0x40, 4));
    wait(50_ns);  // let the monitor sample the final response edges
    sim.stop();
  });
  sim.run();
  EXPECT_GT(mon.command_beats(), 0u);
  EXPECT_GE(mon.outstanding(), 0);

  // Monitors registered on a mapped system are reported; this one uses a
  // bare graph (no monitors), so exercise the attach path directly.
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  tiny_factory()(graph, owned);
  graph.discover_roles();
  Simulator sim2;
  auto ms = core::Mapper::map(sim2, graph, fast_plb_platform(),
                              core::AbstractionLevel::Cam);
  ms->attach_monitor(mon);
  std::ostringstream os;
  ms->report(os);
  EXPECT_NE(os.str().find("ocp monitors:"), std::string::npos);
  EXPECT_NE(os.str().find("stall_cycles="), std::string::npos);
  EXPECT_NE(os.str().find("violations=0"), std::string::npos);
  EXPECT_NE(os.str().find("outstanding="), std::string::npos);
}

// Explorer: rows carry the new kernel columns, the table prints them, and
// the opt-in trace target writes a per-cell trace file.
TEST(ObsIntegration, ExplorerRowsTableAndTraceTarget) {
  const std::string path = "obs_test_cell_trace.json";
  const workload::WorkloadCase tiny{"", tiny_factory()};
  expl::Explorer ex;
  ex.set_trace_target({"plb-fast", "", path});
  const expl::ExplorationRow row =
      ex.evaluate(fast_plb_platform(), tiny, Time::us(300));
  ASSERT_TRUE(row.completed);

  // fast_hit_rate derives from the always-on bus stats counters;
  // ctx_switches is the kernel-side dispatch counter.
  EXPECT_GT(row.fast_hit_rate, 0.0);
  EXPECT_LE(row.fast_hit_rate, 1.0);
  EXPECT_GT(row.ctx_switches, 0u);

  std::ostringstream table;
  expl::Explorer::print_table(table, {row});
  EXPECT_NE(table.str().find("ctx_sw"), std::string::npos);
  EXPECT_NE(table.str().find("fast_hit"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace target file missing";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"ph\":\"B\""), std::string::npos);
  in.close();
  std::remove(path.c_str());

  // Non-matching target: no file is produced for other cells.
  const std::string other = "obs_test_other_trace.json";
  expl::Explorer ex2;
  ex2.set_trace_target({"no-such-platform", "", other});
  (void)ex2.evaluate(fast_plb_platform(), tiny, Time::us(300));
  std::ifstream none(other);
  EXPECT_FALSE(none.good());
}

// A trace target that cannot be written is an error naming the path, not
// a silently missing file (as for an unopenable VCD file).
TEST(ObsIntegration, UnwritableTraceTargetThrows) {
  const std::string path = "obs_test_missing_dir/cell_trace.json";
  const workload::WorkloadCase tiny{"", tiny_factory()};
  expl::Explorer ex;
  ex.set_trace_target({"plb-fast", "", path});
  try {
    (void)ex.evaluate(fast_plb_platform(), tiny, Time::us(300));
    FAIL() << "expected SimulationError for " << path;
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}
