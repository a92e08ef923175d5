// Failure-semantics tests: transaction status lifecycle, the seeded
// fault injector, initiator-side retry/timeout policies, QoS arbiters —
// and the regression guards that pin zero-fault configurations to the
// seed's bit-identical timing and same-seed fault runs to byte-identical
// artifacts.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cam/cam.hpp"
#include "explore/explore.hpp"
#include "fault/fault.hpp"
#include "kernel/kernel.hpp"
#include "obs/obs.hpp"
#include "ocp/memory.hpp"
#include "workload/validate.hpp"
#include "workload/workload.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::time_literals;

namespace {

// Target that errors the first `fails` accesses, then answers Ok — the
// deterministic way to exercise exact retry counts.
class FlakySlave final : public ocp::ocp_tl_slave_if {
public:
  explicit FlakySlave(int fails) : fails_(fails) {}
  using ocp::ocp_tl_slave_if::handle;
  Time handle(Txn& txn) override {
    ++accesses_;
    if (fails_ > 0) {
      --fails_;
      txn.respond_error();
    } else if (txn.op == Txn::Op::Read) {
      txn.respond_buffer(txn.payload_bytes());
    } else {
      txn.respond_ok();
    }
    return Time::zero();
  }
  int accesses() const { return accesses_; }

private:
  int fails_;
  int accesses_ = 0;
};

// One blocking write through a RetryPolicy on a private PLB; returns the
// completion time. `fails` errors precede success at the target.
struct PolicyRun {
  Time end;
  Txn::Status status;
  std::uint32_t retries;
  std::uint64_t errors_seen;
  std::uint64_t retries_issued;
  std::uint64_t aborts;
  std::uint64_t timeouts;
};

PolicyRun run_policy_write(int fails, fault::RetrySpec spec,
                           Time slave_latency = Time::zero()) {
  Simulator sim;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  FlakySlave flaky(fails);
  ocp::MemorySlave mem("mem", 0x10000, 1 << 12, slave_latency);
  bus.attach_slave(flaky, {0, 1 << 12}, "flaky");
  bus.attach_slave(mem, {0x10000, 1 << 12}, "mem");
  const std::size_t m = bus.add_master("m0");
  RetryPolicy policy(sim, "retry0", std::move(spec), bus, m);

  PolicyRun out{};
  sim.spawn_thread("pe", [&] {
    std::uint8_t payload[16] = {0xab};
    Txn t;
    t.begin_write(slave_latency.is_zero() ? 0x0 : 0x10000, payload,
                  sizeof payload);
    policy.transport(t);
    out.end = sim.now();
    out.status = t.status;
    out.retries = t.retries;
  });
  sim.run();
  out.errors_seen = policy.errors_seen();
  out.retries_issued = policy.retries_issued();
  out.aborts = policy.aborts();
  out.timeouts = policy.timeouts_observed();
  return out;
}

}  // namespace

// ------------------------------------------------ retry state machine ----

TEST(RetryPolicy, ErrorFreeTransportIsTransparent) {
  fault::RetrySpec spec;
  spec.max_retries = 3;
  const auto r = run_policy_write(0, spec);
  EXPECT_EQ(r.status, Txn::Status::Ok);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.errors_seen, 0u);
  EXPECT_EQ(r.retries_issued, 0u);
  EXPECT_EQ(r.aborts, 0u);
}

TEST(RetryPolicy, RetriesUntilSuccessAndCountsAttempts) {
  fault::RetrySpec spec;
  spec.max_retries = 3;
  spec.backoff_cycles = 2;
  const auto r = run_policy_write(2, spec);
  EXPECT_EQ(r.status, Txn::Status::Ok);
  EXPECT_EQ(r.retries, 2u);
  EXPECT_EQ(r.errors_seen, 2u);
  EXPECT_EQ(r.retries_issued, 2u);
  EXPECT_EQ(r.aborts, 0u);
}

TEST(RetryPolicy, BackoffIsExponentialInSimulatedTime) {
  // Identical scenarios except the backoff knob. Zero backoff re-issues
  // back to back inside the grant window, so comparing against it mixes
  // re-arbitration setup cycles into the delta; two non-zero settings
  // see the same grant pattern, and widening the knob from 2 to 4 must
  // add exactly ((4<<0)+(4<<1)) - ((2<<0)+(2<<1)) = 6 bus cycles at
  // 10 ns across the two retries — the exponential schedule, sharp.
  fault::RetrySpec none;
  none.max_retries = 3;
  none.backoff_cycles = 0;
  fault::RetrySpec narrow = none;
  narrow.backoff_cycles = 2;
  fault::RetrySpec wide = none;
  wide.backoff_cycles = 4;
  const auto z = run_policy_write(2, none);
  const auto a = run_policy_write(2, narrow);
  const auto b = run_policy_write(2, wide);
  ASSERT_EQ(z.status, Txn::Status::Ok);
  ASSERT_EQ(a.status, Txn::Status::Ok);
  ASSERT_EQ(b.status, Txn::Status::Ok);
  EXPECT_EQ(b.end - a.end, Time::ns(10) * 6);
  EXPECT_GT(a.end, z.end);  // backoff can only defer completion
}

TEST(RetryPolicy, AbortsAfterExhaustionAndStampsAborted) {
  fault::RetrySpec spec;
  spec.max_retries = 2;
  spec.backoff_cycles = 1;
  const auto r = run_policy_write(/*fails=*/1000, spec);
  EXPECT_EQ(r.status, Txn::Status::Aborted);
  EXPECT_EQ(r.retries, 2u);       // both budgeted re-issues happened
  EXPECT_EQ(r.errors_seen, 3u);   // initial attempt + 2 retries all errored
  EXPECT_EQ(r.retries_issued, 2u);
  EXPECT_EQ(r.aborts, 1u);
}

TEST(RetryPolicy, MaxRetriesZeroPassesErrorsThrough) {
  fault::RetrySpec spec;
  spec.max_retries = 0;
  spec.timeout = 1_ms;  // watchdog-only policy
  const auto r = run_policy_write(1, spec);
  EXPECT_EQ(r.status, Txn::Status::Error);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.errors_seen, 1u);
  EXPECT_EQ(r.aborts, 0u);
}

TEST(RetryPolicy, WatchdogPromotesLateCompletionToTimeout) {
  // Slave takes 1 us; the watchdog deadline is 200 ns. The access still
  // completes with valid data — late-but-correct reports Timeout, keeps
  // data_valid(), and is NOT retried.
  fault::RetrySpec spec;
  spec.max_retries = 3;
  spec.timeout = 200_ns;
  const auto r = run_policy_write(0, spec, /*slave_latency=*/1_us);
  EXPECT_EQ(r.status, Txn::Status::Timeout);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.timeouts, 1u);
  EXPECT_EQ(r.retries_issued, 0u);
}

TEST(RetryPolicy, FastCompletionLeavesWatchdogSilent) {
  fault::RetrySpec spec;
  spec.max_retries = 3;
  spec.timeout = 1_ms;
  const auto r = run_policy_write(0, spec);
  EXPECT_EQ(r.status, Txn::Status::Ok);
  EXPECT_EQ(r.timeouts, 0u);
}

TEST(TxnStatus, DataValidCoversOkAndTimeoutOnly) {
  Txn t;
  t.begin_read(0, 4);
  t.status = Txn::Status::Ok;
  EXPECT_TRUE(t.data_valid());
  t.status = Txn::Status::Timeout;
  EXPECT_TRUE(t.data_valid());
  t.status = Txn::Status::Error;
  EXPECT_FALSE(t.data_valid());
  t.status = Txn::Status::Aborted;
  EXPECT_FALSE(t.data_valid());
}

// ----------------------------------------------------- fault injector ----

TEST(FaultInjector, SameSeedReproducesTheSameDrawSequence) {
  fault::FaultProfile fp;
  fp.seed = 42;
  fp.error_rate = 0.3;
  fp.spike_rate = 0.2;
  fp.spike_cycles = 5;
  fp.stall_rate = 0.25;
  fp.stall_cycles = 3;
  fault::Injector a(fp), b(fp);
  for (int i = 0; i < 500; ++i) {
    const auto fa = a.on_access(static_cast<std::size_t>(i % 3));
    const auto fb = b.on_access(static_cast<std::size_t>(i % 3));
    EXPECT_EQ(fa.error, fb.error);
    EXPECT_EQ(fa.spike_cycles, fb.spike_cycles);
    EXPECT_EQ(a.on_grant(), b.on_grant());
  }
  EXPECT_EQ(a.injected_errors(), b.injected_errors());
  EXPECT_GT(a.injected_errors(), 0u);
  EXPECT_GT(a.injected_spikes(), 0u);
  EXPECT_GT(a.injected_stalls(), 0u);
}

TEST(FaultInjector, PerSlaveStreamsAreIndependentOfInterleaving) {
  // Slave 1's draw sequence must not depend on how many draws slave 0
  // made in between — per-slave streams decouple targets.
  fault::FaultProfile fp;
  fp.seed = 7;
  fp.error_rate = 0.4;
  fault::Injector a(fp), b(fp);
  std::vector<bool> seq_a, seq_b;
  for (int i = 0; i < 100; ++i) {
    a.on_access(0);  // interleaved traffic on slave 0 ...
    seq_a.push_back(a.on_access(1).error);
    seq_b.push_back(b.on_access(1).error);  // ... b never touches slave 0
  }
  EXPECT_EQ(seq_a, seq_b);
}

TEST(FaultInjector, ZeroRatesDrawNothing) {
  fault::FaultProfile fp;  // all-zero rates, inactive
  EXPECT_FALSE(fp.active());
  fault::Injector inj(fp);
  for (int i = 0; i < 100; ++i) {
    const auto f = inj.on_access(0);
    EXPECT_FALSE(f.error);
    EXPECT_EQ(f.spike_cycles, 0u);
    EXPECT_EQ(inj.on_grant(), 0u);
  }
  EXPECT_EQ(inj.injected_errors(), 0u);
}

// ------------------------------------------------------- QoS arbiters ----

TEST(QosArbiters, AgingPreemptsStaticPriorityForStarvedMasters) {
  AgingPriorityArbiter arb(/*aging_cycles=*/4);
  const std::vector<bool> both{true, true};
  // Master 0 wins while master 1's age is under the threshold ...
  EXPECT_EQ(arb.pick(both, 0), 0);
  EXPECT_EQ(arb.pick(both, 1), 0);
  EXPECT_EQ(arb.pick(both, 2), 0);
  EXPECT_EQ(arb.pick(both, 3), 0);
  // ... at cycle 4 master 1 has waited 4 cycles (since cycle 0): aged.
  EXPECT_EQ(arb.pick(both, 4), 1);
  // Its age reset on the grant; priority order resumes.
  EXPECT_EQ(arb.pick(both, 5), 0);
}

TEST(QosArbiters, AgingBreaksTiesOldestFirst) {
  AgingPriorityArbiter arb(/*aging_cycles=*/2);
  // Master 2 starts waiting at cycle 0, master 1 at cycle 1: when both
  // are aged, the longest-waiting (2) wins despite the higher index.
  EXPECT_EQ(arb.pick({true, false, true}, 0), 0);
  EXPECT_EQ(arb.pick({false, true, true}, 1), 1);
  EXPECT_EQ(arb.pick({false, true, true}, 3), 2);
}

TEST(QosArbiters, BandwidthSharesConvergeToRatios) {
  BandwidthArbiter arb({3, 1});
  const std::vector<bool> both{true, true};
  int wins0 = 0, wins1 = 0;
  for (std::uint64_t c = 0; c < 40; ++c) {
    const int w = arb.pick(both, c);
    ASSERT_GE(w, 0);
    (w == 0 ? wins0 : wins1)++;
  }
  // Deficit credits make the ratio exact over full periods: 3:1.
  EXPECT_EQ(wins0, 30);
  EXPECT_EQ(wins1, 10);
}

TEST(QosArbiters, BandwidthIsWorkConserving) {
  BandwidthArbiter arb({1, 7});
  // A requester with a tiny share still wins immediately when alone.
  EXPECT_EQ(arb.pick({true, false}, 0), 0);
  EXPECT_EQ(arb.pick({false, true}, 1), 1);
  EXPECT_EQ(arb.pick({false, false}, 2), -1);
}

TEST(QosArbiters, PlatformsMapAndCompleteUnderQosArbitration) {
  const workload::WorkloadCase wl{
      "", [](core::SystemGraph& g,
             std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
        auto p0 = std::make_unique<workload::ProducerPe>("p0", 6, 64, 20);
        auto p1 = std::make_unique<workload::ProducerPe>("p1", 6, 64, 20);
        auto s0 = std::make_unique<workload::SinkPe>("s0", 6);
        auto s1 = std::make_unique<workload::SinkPe>("s1", 6);
        g.add_pe(*p0);
        g.add_pe(*p1);
        g.add_pe(*s0);
        g.add_pe(*s1);
        g.connect("ch0", *p0, "out", *s0, "in", 2);
        g.connect("ch1", *p1, "out", *s1, "in", 2);
        o.push_back(std::move(p0));
        o.push_back(std::move(p1));
        o.push_back(std::move(s0));
        o.push_back(std::move(s1));
      }};
  expl::Explorer ex;
  core::Platform aging;
  aging.name = "plb-aging";
  aging.arb = core::ArbKind::PriorityAging;
  aging.aging_cycles = 8;
  core::Platform bw;
  bw.name = "plb-bandwidth";
  bw.arb = core::ArbKind::Bandwidth;
  bw.qos_shares = {4, 1, 1, 1};
  for (const auto* p : {&aging, &bw}) {
    const auto row = ex.evaluate(*p, wl, 50_ms);
    EXPECT_TRUE(row.completed) << p->name;
    EXPECT_GT(row.transactions, 0u) << p->name;
  }
  EXPECT_STREQ(core::arb_kind_name(core::ArbKind::PriorityAging), "aging");
  EXPECT_STREQ(core::arb_kind_name(core::ArbKind::Bandwidth), "bandwidth");
}

// --------------------------------------- outcome conservation property ----

namespace {

workload::GraphFactory faulted_factory() {
  return [](core::SystemGraph& g,
            std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    auto p0 = std::make_unique<workload::ProducerPe>("p0", 10, 96, 20);
    auto p1 = std::make_unique<workload::ProducerPe>("p1", 10, 96, 20);
    auto s0 = std::make_unique<workload::SinkPe>("s0", 10);
    auto s1 = std::make_unique<workload::SinkPe>("s1", 10);
    g.add_pe(*p0);
    g.add_pe(*p1);
    g.add_pe(*s0);
    g.add_pe(*s1);
    g.connect("ch0", *p0, "out", *s0, "in", 2);
    g.connect("ch1", *p1, "out", *s1, "in", 2);
    o.push_back(std::move(p0));
    o.push_back(std::move(p1));
    o.push_back(std::move(s0));
    o.push_back(std::move(s1));
  };
}

fault::FaultProfile canonical_fault() {
  fault::FaultProfile fp;
  fp.name = "flaky";
  fp.seed = 0xfau;
  fp.error_rate = 0.05;
  fp.spike_rate = 0.03;
  fp.spike_cycles = 4;
  fp.stall_rate = 0.02;
  fp.stall_cycles = 2;
  return fp;
}

fault::RetrySpec canonical_retry() {
  fault::RetrySpec rs;
  rs.name = "r6";
  // Budget deep enough that retry exhaustion is unreachable at the 5%
  // error rate (0.05^7 per logical txn) — the conservation property can
  // then require every logical transaction to settle Ok.
  rs.max_retries = 6;
  rs.backoff_cycles = 2;
  return rs;
}

struct FaultedRun {
  bool completed = false;
  std::string report;
  std::string csv;
  std::string trace_json;
  std::vector<trace::TxnRecord> bus_rows;
  core::MappedSystem::FailureTotals totals;
  std::uint64_t fast_hits = 0;
  Time end;
};

FaultedRun run_faulted(const core::Platform& p, Time max_time = 200_ms) {
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  faulted_factory()(graph, owned);
  graph.discover_roles();
  Simulator sim;
  obs::TraceSession ts;
  ts.attach(sim);
  auto ms = core::Mapper::map(sim, graph, p, core::AbstractionLevel::Cam);
  FaultedRun out;
  out.completed = ms->run_until_done(max_time);
  out.end = sim.now();
  std::ostringstream r, c, t;
  ms->report(r);
  ms->txn_log().dump_csv(c);
  ts.detach();
  ts.write_json(t);
  out.report = r.str();
  out.csv = c.str();
  out.trace_json = t.str();
  const trace::TxnLogger& log = ms->txn_log();
  const std::string bus_channel = ms->bus() ? ms->bus()->name() : "";
  for (const auto& rec : log.records()) {
    if (log.channel_name(rec.channel) == bus_channel) {
      out.bus_rows.push_back(rec);
    }
  }
  out.totals = ms->failure_totals();
  if (ms->bus()) out.fast_hits = ms->bus()->stats().counter("fast_path_hits");
  return out;
}

// Txn ids come from a process-wide counter, so two identical runs inside
// one test process occupy shifted id ranges even when every timestamp,
// status and retry count matches. Renumber ids densely in order of first
// appearance: after normalisation the comparison pins everything except
// that global offset. (Cross-process runs — the CI determinism gate —
// compare raw bytes; this is purely an in-process artefact.)
std::string normalize_csv_ids(const std::string& csv) {
  std::map<std::string, std::uint64_t> remap;
  std::ostringstream out;
  std::istringstream in(csv);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      out << line << '\n';
      header = false;
      continue;
    }
    std::vector<std::string> f;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t c = line.find(',', pos);
      f.push_back(line.substr(pos, c == std::string::npos ? c : c - pos));
      if (c == std::string::npos) break;
      pos = c + 1;
    }
    if (f.size() > 8) {  // field 8 of the v3 schema is the txn id
      const auto it = remap.emplace(f[8], remap.size()).first;
      f[8] = std::to_string(it->second);
    }
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (i != 0) out << ',';
      out << f[i];
    }
    out << '\n';
  }
  return out.str();
}

std::string normalize_trace_ids(const std::string& json) {
  static const std::string kKey = "\"id\":";
  std::map<std::string, std::uint64_t> remap;
  std::string out;
  out.reserve(json.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t k = json.find(kKey, pos);
    if (k == std::string::npos) {
      out.append(json, pos, std::string::npos);
      break;
    }
    const std::size_t digits = k + kKey.size();
    std::size_t end = digits;
    while (end < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[end])) != 0) {
      ++end;
    }
    out.append(json, pos, digits - pos);
    const auto it =
        remap.emplace(json.substr(digits, end - digits), remap.size()).first;
    out += std::to_string(it->second);
    pos = end;
  }
  return out;
}

// Every issued transaction settles exactly once with exactly one final
// status: per txn id, every non-final log row is a retried Error attempt
// and the final row is Ok (the retry budget makes aborts unreachable).
void expect_outcomes_conserved(const FaultedRun& run, const char* label) {
  ASSERT_TRUE(run.completed) << label;
  EXPECT_EQ(run.totals.aborts, 0u) << label;
  std::map<std::uint64_t, std::vector<const trace::TxnRecord*>> by_id;
  for (const auto& r : run.bus_rows) by_id[r.txn].push_back(&r);
  std::uint64_t error_rows = 0, retried_rows = 0;
  for (const auto& [id, rows] : by_id) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const bool final_row = i + 1 == rows.size();
      // Attempt numbers count up from 0 — the id groups all attempts of
      // one logical transaction (Txn::rearm_retry keeps the id).
      EXPECT_EQ(rows[i]->retries, i) << label << " txn " << id;
      if (final_row) {
        EXPECT_EQ(rows[i]->status, trace::TxnStatus::Ok)
            << label << " txn " << id << " settled more than once or not Ok";
      } else {
        EXPECT_EQ(rows[i]->status, trace::TxnStatus::Error)
            << label << " txn " << id << " non-final row not an Error";
      }
      if (rows[i]->status == trace::TxnStatus::Error) ++error_rows;
      if (rows[i]->retries > 0) ++retried_rows;
    }
  }
  // Book-keeping closes: every injected error surfaced as exactly one
  // Error row, every Error row was seen by a policy, and every policy
  // re-issue produced exactly one additional row.
  EXPECT_EQ(error_rows, run.totals.injected_errors) << label;
  EXPECT_EQ(run.totals.errors_seen, run.totals.injected_errors) << label;
  EXPECT_EQ(retried_rows, run.totals.retries_issued) << label;
  EXPECT_GT(run.totals.injected_errors, 0u)
      << label << ": the profile never fired — the property was vacuous";
}

core::Platform faulted_platform(const char* name) {
  core::Platform p;
  p.name = name;
  p.fault = canonical_fault();
  p.retry = canonical_retry();
  return p;
}

}  // namespace

TEST(FaultConservation, AtomicBusConservesOutcomes) {
  expect_outcomes_conserved(run_faulted(faulted_platform("plb-atomic")),
                            "atomic");
}

TEST(FaultConservation, SplitBusConservesOutcomes) {
  auto p = faulted_platform("plb-split");
  p.split_txns = true;
  p.max_outstanding = 4;
  expect_outcomes_conserved(run_faulted(p), "split");
}

TEST(FaultConservation, FastPathPlatformConservesOutcomesAndVetoesFastPath) {
  auto p = faulted_platform("plb-fast");
  p.fast_targets = true;
  const auto run = run_faulted(p);
  expect_outcomes_conserved(run, "fast");
  // An attached injector disables the fast path wholesale: its draws
  // belong to the engine's delivery point.
  EXPECT_EQ(run.fast_hits, 0u);
}

TEST(FaultConservation, CrossbarConservesOutcomes) {
  auto p = faulted_platform("xbar");
  p.bus = core::BusKind::Crossbar;
  expect_outcomes_conserved(run_faulted(p), "crossbar");
}

// ------------------------------------------- determinism / bit-identity ----

TEST(FaultDeterminism, SameSeedRunsAreByteIdentical) {
  const auto p = faulted_platform("plb-det");
  const auto a = run_faulted(p);
  const auto b = run_faulted(p);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(normalize_csv_ids(a.csv), normalize_csv_ids(b.csv));
  EXPECT_EQ(normalize_trace_ids(a.trace_json),
            normalize_trace_ids(b.trace_json));
}

TEST(FaultDeterminism, TraceCarriesFailureInstants) {
  auto p = faulted_platform("plb-instants");
  p.retry.timeout = 400_ns;  // tight enough that spikes miss deadlines
  const auto run = run_faulted(p);
  ASSERT_TRUE(run.completed);
  EXPECT_NE(run.trace_json.find("\"fault\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"retry\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"watchdog\""), std::string::npos);
}

TEST(FaultBitIdentity, InactiveProfileOnTheBusMatchesTheSeedAnchor) {
  // The bench_cam contention anchor (8 masters x 200 64-byte writes,
  // priority PLB @ 10 ns) must hold with an attached-but-all-zero
  // injector: zero-rate knobs compile to exact seed behaviour.
  auto run = [](fault::Injector* inj) {
    Simulator sim;
    PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
    if (inj != nullptr) bus.set_fault_injector(inj);
    ocp::MemorySlave mem("mem", 0, 1 << 20, Time::zero());
    bus.attach_slave(mem, {0, 1 << 20}, "mem");
    for (std::size_t m = 0; m < 8; ++m) {
      const std::size_t idx = bus.add_master("m" + std::to_string(m));
      sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
        std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(m));
        Txn t;
        for (int i = 0; i < 200; ++i) {
          const std::uint64_t addr =
              (m << 12) + static_cast<std::uint64_t>(i % 32) * 64;
          t.begin_write(addr, payload.data(), payload.size());
          bus.master_port(idx).transport(t);
        }
      });
    }
    sim.run();
    return sim.now();
  };
  EXPECT_EQ(run(nullptr), Time::ns(128020));
  fault::Injector idle{fault::FaultProfile{}};
  EXPECT_EQ(run(&idle), Time::ns(128020));
  EXPECT_EQ(idle.injected_errors(), 0u);
}

TEST(FaultBitIdentity, InactiveAxesReproduceTheFaultFreeRun) {
  // A named-but-zero-rate profile and a watchdog-only retry spec with a
  // deadline nothing can miss must not move a femtosecond or a byte of
  // the transaction log relative to the plain platform.
  core::Platform plain;
  const auto base = run_faulted(plain);

  core::Platform inactive;
  inactive.fault.name = "noop";  // named, but inactive (all-zero rates)
  ASSERT_FALSE(inactive.fault.active());
  const auto same = run_faulted(inactive);
  ASSERT_TRUE(base.completed);
  EXPECT_EQ(same.end, base.end);
  EXPECT_EQ(normalize_csv_ids(same.csv), normalize_csv_ids(base.csv));
  EXPECT_EQ(same.report, base.report);

  core::Platform watchdog_only;
  watchdog_only.retry.timeout = 1_ms;  // active, but never fires
  const auto watched = run_faulted(watchdog_only);
  ASSERT_TRUE(watched.completed);
  EXPECT_EQ(watched.end, base.end);
  EXPECT_EQ(normalize_csv_ids(watched.csv), normalize_csv_ids(base.csv));
  EXPECT_EQ(watched.totals.timeouts, 0u);
}

// -------------------------------------------------- exploration surface ----

TEST(FaultExplore, GridAxesMultiplyAndSuffixNames) {
  expl::GridSpec spec;
  spec.faults.push_back(canonical_fault());
  spec.retries.push_back(canonical_retry());
  const auto cands = expl::grid_candidates(spec);
  EXPECT_EQ(cands.size(), 108u * 4u);
  std::set<std::string> names;
  for (const auto& p : cands) names.insert(p.name);
  EXPECT_EQ(names.size(), cands.size()) << "grid names must stay unique";
  // Inactive axis entries leave names untouched; active ones suffix.
  EXPECT_TRUE(names.count("plb-priority-10ns-64b"));
  EXPECT_TRUE(names.count("plb-priority-10ns-64b-flaky"));
  EXPECT_TRUE(names.count("plb-priority-10ns-64b-r6"));
  EXPECT_TRUE(names.count("plb-priority-10ns-64b-flaky-r6"));
  // The default spec is unchanged: exactly the 108 fault-free points.
  EXPECT_EQ(expl::grid_candidates().size(), 108u);
}

TEST(FaultExplore, RowCarriesFailureColumns) {
  const workload::WorkloadCase wl{"", faulted_factory()};
  expl::Explorer ex;
  const auto p = faulted_platform("plb-columns");
  const auto row = ex.evaluate(p, wl, 200_ms);
  ASSERT_TRUE(row.completed);
  EXPECT_GT(row.error_rate, 0.0);
  EXPECT_LT(row.error_rate, 1.0);
  EXPECT_GT(row.retries, 0u);
  EXPECT_EQ(row.aborted, 0u);
  EXPECT_GT(row.goodput_mbps, 0.0);
  // Goodput counts Ok-status payload only, so it must undercut the raw
  // byte rate whenever errors were injected.
  EXPECT_LT(row.goodput_mbps,
            static_cast<double>(row.bytes) / row.sim_time_us);
  EXPECT_EQ(row.slo_miss_pct, 0.0);  // no SLO configured

  expl::Explorer strict;
  strict.set_slo(Time::ns(1));  // nothing on a real bus is this fast
  const auto missed = strict.evaluate(p, wl, 200_ms);
  EXPECT_EQ(missed.slo_miss_pct, 100.0);
  strict.set_slo(1_ms);  // nothing is this slow either
  EXPECT_EQ(strict.evaluate(p, wl, 200_ms).slo_miss_pct, 0.0);
}

TEST(FaultExplore, FaultFreeRowsAreUnchangedByTheNewColumns) {
  expl::Explorer ex;
  const auto row =
      ex.evaluate(core::Platform{}, {"", faulted_factory()}, 200_ms);
  ASSERT_TRUE(row.completed);
  EXPECT_EQ(row.error_rate, 0.0);
  EXPECT_EQ(row.retries, 0u);
  EXPECT_EQ(row.timeouts, 0u);
  EXPECT_EQ(row.aborted, 0u);
  EXPECT_EQ(row.slo_miss_pct, 0.0);
  EXPECT_GT(row.goodput_mbps, 0.0);
  // With zero faults every byte is goodput.
  EXPECT_NEAR(row.goodput_mbps,
              static_cast<double>(row.bytes) / row.sim_time_us, 1e-9);
}

TEST(FaultExplore, TableRendersFailureColumns) {
  expl::Explorer ex;
  const auto rows = ex.sweep_parallel({faulted_platform("plb-table")},
                                      {{"", faulted_factory()}}, 200_ms, 1);
  std::ostringstream os;
  expl::Explorer::print_table(os, rows);
  const std::string t = os.str();
  EXPECT_NE(t.find("err_rate"), std::string::npos);
  EXPECT_NE(t.find("goodput_mbs"), std::string::npos);
  EXPECT_NE(t.find("slo_miss"), std::string::npos);
}

TEST(FaultExplore, PerChannelStatsCountFailureOutcomes) {
  const auto run = run_faulted(faulted_platform("plb-channels"));
  ASSERT_TRUE(run.completed);
  trace::TxnLogger log;
  std::istringstream is(run.csv);
  log.load_csv(is);
  std::uint64_t bus_errors = 0, bus_retried = 0;
  for (const auto& r : run.bus_rows) {
    if (r.status == trace::TxnStatus::Error) ++bus_errors;
    if (r.retries > 0) ++bus_retried;
  }
  ASSERT_GT(bus_errors, 0u);
  ASSERT_GT(bus_retried, 0u);
  // Every CAM-level row is a bus row tagged with its master: the bus
  // channel tallies each outcome once, and the per-master groups
  // partition those tallies exactly.
  ASSERT_EQ(log.size(), run.bus_rows.size());
  const std::string bus = log.channel_name(log.records()[0].channel);
  const auto channels = trace::per_channel_stats(log);
  std::uint64_t master_errors = 0, master_retried = 0, master_groups = 0;
  for (const auto& c : channels) {
    if (c.channel == bus) {
      EXPECT_EQ(c.dist.count, run.bus_rows.size());
      EXPECT_EQ(c.dist.errors, bus_errors);
      EXPECT_EQ(c.dist.retried, bus_retried);
      continue;
    }
    master_errors += c.dist.errors;
    master_retried += c.dist.retried;
    ++master_groups;
  }
  EXPECT_GT(master_groups, 0u);
  EXPECT_EQ(master_errors, bus_errors);
  EXPECT_EQ(master_retried, bus_retried);
  std::ostringstream os;
  trace::print_channel_table(os, channels);
  EXPECT_NE(os.str().find("err"), std::string::npos);
  EXPECT_NE(os.str().find("rty"), std::string::npos);
}

// ------------------------------------------------- CSV schema round trip ----

TEST(FaultCsv, V3RoundTripsStatusAndRetries) {
  trace::TxnLogger log;
  const auto ch = log.intern("bus");
  log.record(ch, trace::TxnKind::Write, 7, 64, 0_ns, 100_ns, 10_ns, 20_ns,
             trace::TxnStatus::Error, 0);
  log.record(ch, trace::TxnKind::Write, 7, 64, 120_ns, 200_ns, 130_ns, 140_ns,
             trace::TxnStatus::Ok, 1);
  log.record(ch, trace::TxnKind::Read, 8, 32, 50_ns, 300_ns, 60_ns, 70_ns,
             trace::TxnStatus::Timeout, 0);
  std::ostringstream os;
  log.dump_csv(os);
  EXPECT_NE(os.str().find("status,retries"), std::string::npos);
  EXPECT_NE(os.str().find("error"), std::string::npos);
  EXPECT_NE(os.str().find("timeout"), std::string::npos);

  trace::TxnLogger loaded;
  std::istringstream is(os.str());
  loaded.load_csv(is);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.records()[0].status, trace::TxnStatus::Error);
  EXPECT_EQ(loaded.records()[0].retries, 0u);
  EXPECT_EQ(loaded.records()[1].status, trace::TxnStatus::Ok);
  EXPECT_EQ(loaded.records()[1].retries, 1u);
  EXPECT_EQ(loaded.records()[2].status, trace::TxnStatus::Timeout);
  // The round trip is bit-identical: dumping again matches byte for byte.
  std::ostringstream os2;
  loaded.dump_csv(os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(FaultCsv, OlderSchemasStillLoadWithDefaults) {
  // v1: no phase and no status columns.
  const std::string v1 =
      "channel,kind,bytes,start_fs,end_fs,latency_ns,txn\n"
      "bus,write,64,0,100000000,100.0,7\n";
  trace::TxnLogger l1;
  std::istringstream is1(v1);
  l1.load_csv(is1);
  ASSERT_EQ(l1.size(), 1u);
  EXPECT_EQ(l1.records()[0].status, trace::TxnStatus::Ok);
  EXPECT_EQ(l1.records()[0].retries, 0u);
  EXPECT_EQ(l1.records()[0].grant, l1.records()[0].start);

  // v2: phase columns but no status columns.
  const std::string v2 =
      "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn\n"
      "bus,write,64,0,10000000,20000000,100000000,100.0,7\n";
  trace::TxnLogger l2;
  std::istringstream is2(v2);
  l2.load_csv(is2);
  ASSERT_EQ(l2.size(), 1u);
  EXPECT_EQ(l2.records()[0].status, trace::TxnStatus::Ok);
  EXPECT_EQ(l2.records()[0].retries, 0u);
}

TEST(FaultCsv, StatusNamesRoundTrip) {
  using trace::TxnStatus;
  for (auto s : {TxnStatus::Ok, TxnStatus::Error, TxnStatus::Timeout,
                 TxnStatus::Aborted}) {
    TxnStatus out;
    ASSERT_TRUE(trace::txn_status_from_name(trace::txn_status_name(s), out));
    EXPECT_EQ(out, s);
  }
  trace::TxnStatus out;
  EXPECT_FALSE(trace::txn_status_from_name("bogus", out));
}

TEST(FaultCsv, FaultedCaptureReplaysWithinTolerance) {
  // SHIP-level rows (send/request/reply) only exist in CCATB-level
  // captures — the CAM mapping refines channels into bus wrappers, so a
  // CAM log carries bus rows only. Capture the workload at CCATB, port
  // it through CSV, regenerate it with replay_factory, then run the
  // regenerated traffic twice on the faulted CAM platform. The faulted
  // replay's capture must validate against its same-seed re-run: the
  // injector draws the same fault sequence for identical traffic, so
  // the two distributions agree to within rounding.
  trace::TxnLogger ship_capture;
  {
    std::vector<std::unique_ptr<core::ProcessingElement>> owned;
    core::SystemGraph graph;
    faulted_factory()(graph, owned);
    graph.discover_roles();
    Simulator sim;
    auto ms = core::Mapper::map(sim, graph, core::Platform{},
                                core::AbstractionLevel::Ccatb);
    ASSERT_TRUE(ms->run_until_done(200_ms));
    std::ostringstream os;
    ms->txn_log().dump_csv(os);
    std::istringstream is(os.str());
    ship_capture.load_csv(is);
  }
  ASSERT_GT(ship_capture.size(), 0u);

  const auto p = faulted_platform("plb-replay");
  auto replay_csv = [&]() -> std::string {
    std::vector<std::unique_ptr<core::ProcessingElement>> owned;
    core::SystemGraph graph;
    workload::replay_factory(ship_capture)(graph, owned);
    graph.discover_roles();
    Simulator sim;
    auto ms = core::Mapper::map(sim, graph, p, core::AbstractionLevel::Cam);
    EXPECT_TRUE(ms->run_until_done(500_ms));
    EXPECT_GT(ms->failure_totals().injected_errors, 0u)
        << "faulted replay never drew an error — the check is vacuous";
    std::ostringstream os;
    ms->txn_log().dump_csv(os);
    return os.str();
  };
  trace::TxnLogger first, second;
  {
    std::istringstream is(replay_csv());
    first.load_csv(is);
  }
  {
    std::istringstream is(replay_csv());
    second.load_csv(is);
  }
  workload::ValidateConfig cfg;
  cfg.ship_rows_only = false;  // CAM captures carry bus rows only
  cfg.rel_tolerance = 0.01;
  cfg.abs_floor_ns = 1.0;
  const auto v = workload::validate_replay(first, second, cfg);
  EXPECT_TRUE(v.ok) << v.report();
}
