// Tests for the workload engine: seeded synthetic generators (determinism
// across sweeps and threads), declarative specs, and trace
// capture/replay round trips.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "trace/channel_stats.hpp"
#include "workload/workload.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

workload::WorkloadSpec small_uniform(std::uint64_t seed) {
  workload::WorkloadSpec s;
  s.name = "uniform-test";
  s.shape = workload::TrafficShape::Uniform;
  s.seed = seed;
  s.streams = 2;
  s.messages = 6;
  s.payload = {16, 96};
  s.gap = {10, 80};
  return s;
}

// Run one spec on one platform and return the row.
expl::ExplorationRow run_spec(const workload::WorkloadSpec& spec,
                              const core::Platform& p) {
  expl::Explorer ex;
  return ex.evaluate(p, workload::make_case(spec), 50_ms);
}

}  // namespace

TEST(Rng, SplitMixIsDeterministicAndWellSpread) {
  workload::SplitMix64 a(42), b(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = a.next();
    EXPECT_EQ(v, b.next());
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions in a short stream
  // Known first output for seed 0 (reference vector from the splitmix64
  // paper implementation).
  workload::SplitMix64 z(0);
  EXPECT_EQ(z.next(), 0xe220a8397b1dcdafull);
}

TEST(Rng, UniformStaysInRangeAndDegenerates) {
  workload::SplitMix64 g(7);
  for (int i = 0; i < 200; ++i) {
    const auto v = g.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(g.uniform(5, 5), 5u);
  EXPECT_EQ(g.uniform(9, 3), 9u);  // inverted range clamps to lo
}

TEST(Workload, EachShapeCompletesOnDefaultPlatform) {
  for (auto shape :
       {workload::TrafficShape::Uniform, workload::TrafficShape::Bursty,
        workload::TrafficShape::RequestReply, workload::TrafficShape::Pipeline,
        workload::TrafficShape::Banked}) {
    workload::WorkloadSpec s = small_uniform(11);
    s.shape = shape;
    s.name = workload::traffic_shape_name(shape);
    const auto row = run_spec(s, core::Platform{});
    EXPECT_TRUE(row.completed) << s.name;
    EXPECT_GT(row.transactions, 0u) << s.name;
    EXPECT_GT(row.bytes, 0u) << s.name;
    EXPECT_EQ(row.workload, s.name);
  }
}

TEST(Workload, SameSeedReproducesRowBitExactly) {
  const auto a = run_spec(small_uniform(123), core::Platform{});
  const auto b = run_spec(small_uniform(123), core::Platform{});
  EXPECT_EQ(a.sim_time_us, b.sim_time_us);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.mean_latency_ns, b.mean_latency_ns);
  EXPECT_EQ(a.bus_utilization, b.bus_utilization);
}

TEST(Workload, DifferentSeedsProduceDifferentTraffic) {
  const auto a = run_spec(small_uniform(1), core::Platform{});
  const auto b = run_spec(small_uniform(2), core::Platform{});
  // Payload sizes are drawn per message from [16,96]: byte totals
  // colliding across seeds is astronomically unlikely.
  EXPECT_NE(a.bytes, b.bytes);
}

TEST(Workload, CandidatesAreFiveNamedCases) {
  const auto cases = expl::workload_candidates();
  ASSERT_EQ(cases.size(), 5u);
  std::set<std::string> names;
  for (const auto& c : cases) names.insert(c.name);
  EXPECT_TRUE(names.count("uniform"));
  EXPECT_TRUE(names.count("bursty"));
  EXPECT_TRUE(names.count("reqreply"));
  EXPECT_TRUE(names.count("pipeline"));
  EXPECT_TRUE(names.count("banked"));
}

// ------------------------------------------- banked-memory workload ----

TEST(Workload, BankedShapeCompletesOnAtomicAndSplitPlatforms) {
  workload::WorkloadSpec s;
  s.name = "banked-test";
  s.shape = workload::TrafficShape::Banked;
  s.seed = 77;
  s.streams = 2;
  s.messages = 10;
  s.payload = {32, 96};
  s.gap = {0, 20};

  core::Platform atomic;  // PLB/priority
  atomic.name = "plb-atomic";
  const auto r_atomic = run_spec(s, atomic);
  EXPECT_TRUE(r_atomic.completed);
  EXPECT_GT(r_atomic.transactions, 0u);

  core::Platform split = atomic;
  split.name = "plb-split4";
  split.split_txns = true;
  split.max_outstanding = 4;
  const auto r_split = run_spec(s, split);
  EXPECT_TRUE(r_split.completed);
  // Conservation: the split platform moves the identical traffic.
  EXPECT_EQ(r_split.transactions, r_atomic.transactions);
  EXPECT_EQ(r_split.bytes, r_atomic.bytes);
  // The posted windows + off-bus banked service must pipeline: the split
  // platform finishes the same access stream strictly sooner.
  EXPECT_LT(r_split.sim_time_us, r_atomic.sim_time_us);
}

TEST(Workload, BankedShapeIsSeedDeterministic) {
  workload::WorkloadSpec s;
  s.shape = workload::TrafficShape::Banked;
  s.name = "banked-det";
  s.seed = 123;
  s.streams = 2;
  s.messages = 8;
  const auto a = run_spec(s, core::Platform{});
  const auto b = run_spec(s, core::Platform{});
  EXPECT_EQ(a.sim_time_us, b.sim_time_us);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.mean_queue_ns, b.mean_queue_ns);
}

// A memory client PE is CAM-only plumbing; at the abstract levels
// mem_bus() is null and the PE models accesses as compute, so the same
// graph still elaborates and completes (role discovery, CCATB runs).
TEST(Workload, BankedGraphRunsAtAbstractLevels) {
  workload::WorkloadSpec s;
  s.shape = workload::TrafficShape::Banked;
  s.name = "banked-abstract";
  s.seed = 9;
  s.streams = 2;
  s.messages = 6;
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  s.factory()(graph, owned);
  graph.discover_roles();
  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, core::Platform{},
                              core::AbstractionLevel::Ccatb);
  EXPECT_TRUE(ms->run_until_done(100_ms));
  EXPECT_TRUE(ms->memories().empty());  // no interconnect, no targets
}

namespace {

// A small mixed workload (streams + request/reply) used as the capture
// source for replay tests.
workload::GraphFactory capture_factory() {
  return [](core::SystemGraph& g,
            std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    auto prod = std::make_unique<workload::ProducerPe>("prod", 8, 96, 40);
    auto sink = std::make_unique<workload::SinkPe>("sink", 8);
    auto client = std::make_unique<workload::RequesterPe>("client", 5, 32, 80);
    auto server = std::make_unique<workload::EchoServerPe>("server", 5, 30);
    g.add_pe(*prod);
    g.add_pe(*sink);
    g.add_pe(*client);
    g.add_pe(*server);
    g.connect("stream", *prod, "out", *sink, "in", 2);
    g.connect("rpc", *client, "out", *server, "in", 1);
    o.push_back(std::move(prod));
    o.push_back(std::move(sink));
    o.push_back(std::move(client));
    o.push_back(std::move(server));
  };
}

// Run `factory` at the given level on `p`, return the mapped system's
// logger contents via dump_csv (plus the summary).
struct CaptureResult {
  std::string csv;
  trace::LatencyDist summary;
};

CaptureResult capture_run(const workload::GraphFactory& factory,
                          const core::Platform& p,
                          core::AbstractionLevel level) {
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  factory(graph, owned);
  graph.discover_roles();
  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, p, level);
  EXPECT_TRUE(ms->run_until_done(100_ms));
  std::ostringstream os;
  ms->txn_log().dump_csv(os);
  return CaptureResult{os.str(), trace::latency_dist(ms->txn_log().records())};
}

}  // namespace

TEST(TraceReplay, ReproducesCountAndBytesOnCapturePlatform) {
  const core::Platform p;  // capture platform
  const auto cap =
      capture_run(capture_factory(), p, core::AbstractionLevel::Ccatb);
  ASSERT_GT(cap.summary.count, 0u);

  // Port the trace through CSV (the portable form), then replay it on the
  // platform it was captured on, at the same level.
  trace::TxnLogger loaded;
  std::istringstream is(cap.csv);
  loaded.load_csv(is);
  ASSERT_EQ(loaded.size(), cap.summary.count);

  const auto rep = capture_run(workload::replay_factory(loaded), p,
                               core::AbstractionLevel::Ccatb);
  // The acceptance bar: transaction count and byte total reproduce
  // exactly (send/request/reply sequence and payload sizes are identical).
  EXPECT_EQ(rep.summary.count, cap.summary.count);
  EXPECT_EQ(rep.summary.bytes, cap.summary.bytes);
}

TEST(TraceReplay, CapturedTraceRunsOnEveryCandidatePlatform) {
  const auto cap = capture_run(capture_factory(), core::Platform{},
                               core::AbstractionLevel::Ccatb);
  trace::TxnLogger loaded;
  std::istringstream is(cap.csv);
  loaded.load_csv(is);

  expl::Explorer ex;
  const auto rows =
      ex.sweep_parallel(expl::default_candidates(),
                        {workload::replay_case("replay", loaded)}, 100_ms, 1);
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.completed) << r.platform;
    EXPECT_EQ(r.workload, "replay");
    EXPECT_GT(r.transactions, 0u) << r.platform;
  }
}

TEST(TraceReplay, PreservesInterArrivalGaps) {
  // Second send starts 10 us after the first; the first completed at
  // 100 ns, so the replay charges the 9.9 us idle span as compute
  // (990 cycles at 10 ns) — the re-issued send pays its own transfer
  // time again, so gaps run completion-to-start, not start-to-start.
  trace::TxnLogger log;
  log.record("ch", trace::TxnKind::Send, 16, 0_ns, 100_ns);
  log.record("ch", trace::TxnKind::Send, 16, 10_us, Time::us(10) + 100_ns);

  const auto scripts = workload::build_replay(log);
  ASSERT_EQ(scripts.size(), 1u);
  ASSERT_EQ(scripts[0].actions.size(), 2u);
  EXPECT_EQ(scripts[0].actions[0].gap_cycles, 0u);
  EXPECT_EQ(scripts[0].actions[1].gap_cycles, 990u);

  const auto rep = capture_run(workload::replay_factory(log),
                               core::Platform{},
                               core::AbstractionLevel::Ccatb);
  EXPECT_EQ(rep.summary.count, 2u);
  EXPECT_EQ(rep.summary.bytes, 32u);
}

TEST(TraceReplay, MatchesRepliesToRequestsInOrder) {
  trace::TxnLogger log;
  log.record("rpc", trace::TxnKind::Request, 24, 0_ns, 50_ns);
  log.record("rpc", trace::TxnKind::Reply, 48, 60_ns, 120_ns);
  log.record("rpc", trace::TxnKind::Request, 8, 500_ns, 550_ns);
  log.record("rpc", trace::TxnKind::Reply, 4, 560_ns, 620_ns);
  const auto scripts = workload::build_replay(log);
  ASSERT_EQ(scripts.size(), 1u);
  ASSERT_EQ(scripts[0].actions.size(), 2u);
  EXPECT_EQ(scripts[0].actions[0].bytes, 24u);
  EXPECT_EQ(scripts[0].actions[0].reply_bytes, 48u);
  EXPECT_EQ(scripts[0].actions[1].bytes, 8u);
  EXPECT_EQ(scripts[0].actions[1].reply_bytes, 4u);
  // Second request's gap runs from the first *reply*'s end (120 ns, when
  // the blocking master resumed) to its start (500 ns): 38 cycles.
  EXPECT_EQ(scripts[0].actions[1].gap_cycles, 38u);
}

TEST(TraceReplay, RejectsUnreplayableTraces) {
  {
    trace::TxnLogger log;  // empty
    EXPECT_THROW(workload::build_replay(log), ElaborationError);
  }
  {
    trace::TxnLogger log;  // bus-level rows only
    log.record("plb", trace::TxnKind::Write, 64, 0_ns, 100_ns);
    log.record("plb", trace::TxnKind::Read, 4, 200_ns, 300_ns);
    EXPECT_THROW(workload::build_replay(log), ElaborationError);
  }
  {
    trace::TxnLogger log;  // reply with no request
    log.record("rpc", trace::TxnKind::Reply, 8, 0_ns, 10_ns);
    EXPECT_THROW(workload::build_replay(log), ElaborationError);
  }
  {
    trace::TxnLogger log;  // request never answered
    log.record("rpc", trace::TxnKind::Request, 8, 0_ns, 10_ns);
    EXPECT_THROW(workload::build_replay(log), ElaborationError);
  }
}

// ------------------------------------------- replay validation ----------

namespace {

// Capture a run and hand back the raw logger (not just its CSV), for
// distribution comparisons.
trace::TxnLogger capture_log(const workload::GraphFactory& factory,
                             const core::Platform& p,
                             core::AbstractionLevel level) {
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  factory(graph, owned);
  graph.discover_roles();
  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, p, level);
  EXPECT_TRUE(ms->run_until_done(200_ms));
  trace::TxnLogger log;
  std::ostringstream os;
  ms->txn_log().dump_csv(os);
  std::istringstream is(os.str());
  log.load_csv(is);  // round through the portable form on purpose
  return log;
}

}  // namespace

// The phase-accurate acceptance bar: replaying a trace on the platform
// it was captured from must reproduce not just count/bytes but the
// latency distribution per channel (the replay sink now also serves the
// captured reply gaps, so request round trips pace like the original).
TEST(TraceReplay, SamePlatformReplayPassesDistributionValidation) {
  const core::Platform p;
  const auto original =
      capture_log(capture_factory(), p, core::AbstractionLevel::Ccatb);
  const auto replayed = capture_log(workload::replay_factory(original), p,
                                    core::AbstractionLevel::Ccatb);

  const auto v = workload::validate_replay(original, replayed);
  EXPECT_TRUE(v.ok) << v.report();
  ASSERT_EQ(v.channels.size(), 2u);  // "stream" and "rpc"
  for (const auto& c : v.channels) {
    EXPECT_TRUE(c.ok()) << v.report();
    EXPECT_EQ(c.original.count, c.replayed.count);
    EXPECT_EQ(c.original.bytes, c.replayed.bytes);
  }
  // The report is the human-readable tolerance table.
  const std::string rep = v.report();
  EXPECT_NE(rep.find("PASS"), std::string::npos);
  EXPECT_NE(rep.find("stream"), std::string::npos);
  EXPECT_NE(rep.find("p95"), std::string::npos);
}

// Same-platform replay validation for every canonical synthetic
// workload that captures SHIP traffic.
TEST(TraceReplay, CanonicalWorkloadsValidateOnCapturePlatform) {
  const core::Platform p;
  for (const auto& wc : expl::workload_candidates()) {
    if (wc.name == "banked") continue;  // bus-only traffic: nothing to replay
    const auto original =
        capture_log(wc.factory, p, core::AbstractionLevel::Ccatb);
    const auto replayed = capture_log(workload::replay_factory(original), p,
                                      core::AbstractionLevel::Ccatb);
    const auto v = workload::validate_replay(original, replayed);
    EXPECT_TRUE(v.ok) << wc.name << ":\n" << v.report();
  }
}

TEST(TraceReplay, ValidationFlagsDistortedLatencies) {
  trace::TxnLogger original, fast;
  for (int i = 0; i < 10; ++i) {
    const Time start = Time::us(static_cast<std::uint64_t>(i));
    original.record("ch", trace::TxnKind::Send, 64, start, start + 1000_ns);
    fast.record("ch", trace::TxnKind::Send, 64, start, start + 100_ns);
  }
  const auto v = workload::validate_replay(original, fast);
  EXPECT_FALSE(v.ok);
  ASSERT_EQ(v.channels.size(), 1u);
  EXPECT_TRUE(v.channels[0].counts_ok);
  EXPECT_TRUE(v.channels[0].bytes_ok);
  bool some_stat_failed = false;
  for (const auto& s : v.channels[0].stats) some_stat_failed |= !s.ok;
  EXPECT_TRUE(some_stat_failed);
  EXPECT_NE(v.report().find("FAIL"), std::string::npos);
}

TEST(TraceReplay, ValidationFlagsCountMismatchAndMissingChannels) {
  trace::TxnLogger original, replayed;
  original.record("a", trace::TxnKind::Send, 64, 0_ns, 100_ns);
  original.record("a", trace::TxnKind::Send, 64, 1_us, Time::us(1) + 100_ns);
  original.record("b", trace::TxnKind::Send, 8, 0_ns, 50_ns);
  replayed.record("a", trace::TxnKind::Send, 64, 0_ns, 100_ns);  // one lost
  const auto v = workload::validate_replay(original, replayed);
  EXPECT_FALSE(v.ok);
  ASSERT_EQ(v.channels.size(), 2u);
  EXPECT_FALSE(v.channels[0].counts_ok);  // "a": 2 -> 1
  EXPECT_FALSE(v.channels[1].in_replayed);  // "b" missing entirely
  EXPECT_NE(v.report().find("MISSING"), std::string::npos);

  // Bus rows are ignored by default: a replay on another platform that
  // regenerates different read/write rows still validates SHIP-only.
  trace::TxnLogger with_bus;
  with_bus.record("a", trace::TxnKind::Send, 64, 0_ns, 100_ns);
  with_bus.record("a", trace::TxnKind::Send, 64, 1_us, Time::us(1) + 100_ns);
  with_bus.record("b", trace::TxnKind::Send, 8, 0_ns, 50_ns);
  with_bus.record("plb", trace::TxnKind::Write, 64, 0_ns, 90_ns);
  const auto v2 = workload::validate_replay(original, with_bus);
  EXPECT_TRUE(v2.ok) << v2.report();

  // Nothing to compare at all is a failure, not a vacuous pass.
  trace::TxnLogger empty_a, empty_b;
  EXPECT_FALSE(workload::validate_replay(empty_a, empty_b).ok);
}

TEST(TraceReplay, ReplySinkServesCapturedReplyGap) {
  trace::TxnLogger log;
  log.record("rpc", trace::TxnKind::Request, 24, 0_ns, 50_ns);
  log.record("rpc", trace::TxnKind::Reply, 48, 550_ns, 600_ns);
  const auto scripts = workload::build_replay(log);
  ASSERT_EQ(scripts.size(), 1u);
  ASSERT_EQ(scripts[0].actions.size(), 1u);
  // Reply started 500 ns after the request completed: 50 cycles at the
  // default 10 ns replay clock, charged on the sink before it answers.
  EXPECT_EQ(scripts[0].actions[0].reply_gap_cycles, 50u);
}

TEST(TraceReplay, RawMsgRoundTripsExactSizes) {
  for (std::size_t n : {0ull, 1ull, 7ull, 256ull}) {
    workload::RawMsg m(n, 0x3c);
    EXPECT_EQ(ship::serialized_size(m), n);
    const auto bytes = ship::to_bytes(m);
    workload::RawMsg back;
    ship::from_bytes(back, bytes);
    EXPECT_EQ(back.data, m.data);
  }
}
