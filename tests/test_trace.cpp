// Tests for the tracing/statistics module: VCD output, counters, latency
// distributions, and the transaction logger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "explore/explorer.hpp"
#include "kernel/kernel.hpp"
#include "trace/channel_stats.hpp"
#include "trace/stats.hpp"
#include "trace/txn_log.hpp"
#include "trace/vcd.hpp"
#include "workload/rng.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct TempVcd {
  std::string path;
  explicit TempVcd(const char* name)
      : path(std::string("/tmp/stlm_test_") + name + ".vcd") {}
  ~TempVcd() { std::remove(path.c_str()); }
};

}  // namespace

TEST(Stats, StatSetReportRestoresStreamFormatting) {
  trace::StatSet s;
  s.counter_slot("transactions") = 7;
  std::ostringstream os;
  const auto flags = os.flags();
  const auto precision = os.precision();
  s.report(os, "fmt");
  // report() uses std::left/std::setw; the caller's stream state must
  // come back untouched.
  EXPECT_EQ(os.flags(), flags);
  EXPECT_EQ(os.precision(), precision);
}

TEST(Stats, StatSetCountersAndReport) {
  trace::StatSet s;
  std::uint64_t& txns = s.counter_slot("transactions");
  ++txns;
  ++s.counter_slot("transactions");  // the same slot
  s.counter_slot("bytes") += 128;
  EXPECT_EQ(s.counter("transactions"), 2u);
  EXPECT_EQ(s.counter("bytes"), 128u);
  EXPECT_EQ(s.counter("missing"), 0u);
  std::ostringstream os;
  s.report(os, "test");
  EXPECT_NE(os.str().find("transactions"), std::string::npos);
}

TEST(TxnLog, SummaryAndCsv) {
  trace::TxnLogger log;
  log.record("ch0", trace::TxnKind::Send, 64, 0_ns, 100_ns);
  log.record("ch1", trace::TxnKind::Read, 32, 50_ns, 250_ns);
  const auto s = trace::latency_dist(log.records());
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.bytes, 96u);
  EXPECT_DOUBLE_EQ(s.mean_ns, 150.0);
  EXPECT_DOUBLE_EQ(s.max_ns, 200.0);
  // Phase-less rows: grant == start, so the whole latency is service.
  EXPECT_DOUBLE_EQ(s.mean_queue_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_service_ns, 150.0);
  std::ostringstream os;
  log.dump_csv(os);
  EXPECT_NE(os.str().find("ch0,send,64"), std::string::npos);
  EXPECT_NE(os.str().find("ch1,read,32"), std::string::npos);
}

// The queue/service split decomposes end-to-end latency per record:
// latency = queue (issue->grant) + service (grant->completion). A row
// that waited 70 ns for arbitration is not a slow bus — its service
// span says how long the interconnect itself took.
TEST(TxnLog, SummarySplitsQueueingFromService) {
  trace::TxnLogger log;
  // issue at 0, granted at 70, data at 80, complete at 100.
  log.record("bus", trace::TxnKind::Write, 64, 0_ns, 100_ns, 70_ns, 80_ns);
  // issue at 200, granted immediately, complete at 230.
  log.record("bus", trace::TxnKind::Read, 4, 200_ns, 230_ns, 200_ns, 210_ns);
  const auto s = trace::latency_dist(log.records());
  EXPECT_DOUBLE_EQ(s.mean_ns, 65.0);           // (100 + 30) / 2
  EXPECT_DOUBLE_EQ(s.mean_queue_ns, 35.0);     // (70 + 0) / 2
  EXPECT_DOUBLE_EQ(s.max_queue_ns, 70.0);
  EXPECT_DOUBLE_EQ(s.mean_service_ns, 30.0);   // (30 + 30) / 2
  EXPECT_DOUBLE_EQ(s.max_service_ns, 30.0);
  // Per record the split is exact: queue + service == latency.
  for (const auto& r : log.records()) {
    EXPECT_DOUBLE_EQ(r.queue_ns() + r.service_ns(), r.latency_ns());
  }
}

TEST(TxnLog, CsvRoundTripIsBitIdentical) {
  trace::TxnLogger log;
  // Channel names with CSV metacharacters, zero-length payloads,
  // femtosecond-granularity timestamps, and phase-accurate rows all have
  // to survive the trip.
  log.record("plain", trace::TxnKind::Send, 64, 0_ns, 100_ns);
  log.record("with,comma", trace::TxnKind::Request, 32, 1_fs, 3_fs);
  log.record("with\"quote", trace::TxnKind::Reply, 0, 50_ns, 250_ns);
  log.record("both\",\"evil", trace::TxnKind::Write, 7, 10_us, 11_us);
  log.record("multi\nline\r\nname", trace::TxnKind::Send, 9, 1_ns, 2_ns);
  log.record(log.intern("plain"), trace::TxnKind::Read, /*txn_id=*/12345,
             256, 5_ns, 6_ns);
  // Split-bus rows: grant and data-phase stamps diverge from start.
  log.record("plb", trace::TxnKind::Write, 64, 10_ns, 200_ns, 40_ns, 150_ns);
  log.record(log.intern("plb"), trace::TxnKind::Read, /*txn_id=*/777, 16,
             0_ns, 90_ns, 20_ns, 70_ns);

  std::ostringstream os;
  log.dump_csv(os);

  trace::TxnLogger back;
  std::istringstream is(os.str());
  back.load_csv(is);

  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& a = log.records()[i];
    const auto& b = back.records()[i];
    EXPECT_EQ(log.channel_name(a.channel), back.channel_name(b.channel)) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.txn, b.txn) << i;
    EXPECT_EQ(a.bytes, b.bytes) << i;
    EXPECT_EQ(a.start, b.start) << i;
    EXPECT_EQ(a.grant, b.grant) << i;
    EXPECT_EQ(a.data, b.data) << i;
    EXPECT_EQ(a.end, b.end) << i;
  }

  // And the round trip is a fixed point: dumping again is byte-identical.
  std::ostringstream os2;
  back.dump_csv(os2);
  EXPECT_EQ(os.str(), os2.str());
}

// Format back-compat: pre-phase (v1, 7-column) CSVs stay loadable, with
// the missing phase columns defaulted to grant = data = start.
TEST(TxnLog, LoadCsvAcceptsV1HeaderWithDefaultedPhases) {
  const std::string v1 =
      "channel,kind,bytes,start_fs,end_fs,latency_ns,txn\n"
      "ch0,send,64,1000000,2000000,1,9\n"
      "ch1,read,32,0,500000,0.5,0\n";
  trace::TxnLogger log;
  std::istringstream is(v1);
  log.load_csv(is);
  ASSERT_EQ(log.size(), 2u);
  const auto& r = log.records()[0];
  EXPECT_EQ(r.start, 1_ns);
  EXPECT_EQ(r.end, 2_ns);
  EXPECT_EQ(r.grant, r.start);
  EXPECT_EQ(r.data, r.start);
  EXPECT_EQ(r.txn, 9u);
  EXPECT_DOUBLE_EQ(r.queue_ns(), 0.0);

  // A v1 trace re-dumps in the current schema (the loader upgraded the
  // records).
  std::ostringstream os;
  log.dump_csv(os);
  EXPECT_NE(os.str().find("grant_fs,data_fs"), std::string::npos);
  EXPECT_NE(os.str().find("ch0,send,64,1000000,1000000,1000000,2000000"),
            std::string::npos);
}

TEST(TxnLog, LoadCsvRejectsMalformedInput) {
  const std::string header =
      "channel,kind,bytes,start_fs,end_fs,latency_ns,txn\n";  // v1
  const std::string header2 =
      "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn\n";
  auto load = [](const std::string& text) {
    trace::TxnLogger log;
    std::istringstream is(text);
    log.load_csv(is);
    return log;
  };
  // Good baselines parse (both schema versions).
  EXPECT_EQ(load(header + "ch,send,4,0,1000000,0.001,7\n").size(), 1u);
  EXPECT_EQ(load(header2 + "ch,send,4,0,10,20,1000000,0.001,7\n").size(), 1u);
  // Empty input / wrong header.
  EXPECT_THROW(load(""), SimulationError);
  EXPECT_THROW(load("channel,kind\nch,send\n"), SimulationError);
  // Wrong field count for either version.
  EXPECT_THROW(load(header + "ch,send,4,0,1\n"), SimulationError);
  EXPECT_THROW(load(header2 + "ch,send,4,0,1,0.0,0\n"), SimulationError);
  // Unknown kind.
  EXPECT_THROW(load(header + "ch,sned,4,0,1,0.0,0\n"), SimulationError);
  // Non-numeric / negative numerics.
  EXPECT_THROW(load(header + "ch,send,x,0,1,0.0,0\n"), SimulationError);
  EXPECT_THROW(load(header + "ch,send,4,-1,1,0.0,0\n"), SimulationError);
  EXPECT_THROW(load(header + "ch,send,4,0,1,zz,0\n"), SimulationError);
  EXPECT_THROW(load(header2 + "ch,send,4,0,x,0,1,0.0,0\n"), SimulationError);
  EXPECT_THROW(load(header2 + "ch,send,4,0,0,y,1,0.0,0\n"), SimulationError);
  // end before start.
  EXPECT_THROW(load(header + "ch,send,4,100,50,0.0,0\n"), SimulationError);
  // Phase order: need start <= grant <= data <= end.
  EXPECT_THROW(load(header2 + "ch,send,4,100,50,100,200,0.0,0\n"),
               SimulationError);
  EXPECT_THROW(load(header2 + "ch,send,4,0,80,40,200,0.0,0\n"),
               SimulationError);
  EXPECT_THROW(load(header2 + "ch,send,4,0,10,300,200,0.0,0\n"),
               SimulationError);
  // Broken quoting.
  EXPECT_THROW(load(header + "\"ch,send,4,0,1,0.0,0\n"), SimulationError);
  EXPECT_THROW(load(header + "\"ch\"x,send,4,0,1,0.0,0\n"), SimulationError);
  // A failed load leaves the logger empty, not half-filled.
  trace::TxnLogger log;
  std::istringstream is(header + "ch,send,4,0,1,0.0,0\nch,BAD,4,0,1,0.0,0\n");
  EXPECT_THROW(log.load_csv(is), SimulationError);
  EXPECT_EQ(log.size(), 0u);
}

// The v4 schema tags bus rows with their issuing master; a dump -> load ->
// dump trip is a byte-for-byte fixed point, master column included.
TEST(TxnLog, CsvV4RoundTripKeepsMasterByteIdentical) {
  trace::TxnLogger log;
  const auto bus = log.intern("plb");
  const auto a = log.intern("plb.a");
  const auto odd = log.intern("plb.b,\"odd\"");  // needs RFC4180 quoting
  log.record(bus, trace::TxnKind::Write, 1, 64, 0_ns, 100_ns, 10_ns, 20_ns,
             trace::TxnStatus::Ok, 0, a);
  log.record(bus, trace::TxnKind::Read, 2, 32, 5_ns, 150_ns, 100_ns, 120_ns,
             trace::TxnStatus::Error, 2, odd);
  log.record("ship", trace::TxnKind::Send, 8, 0_ns, 10_ns);  // no master

  std::ostringstream os;
  log.dump_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,"
            "txn,status,retries,master");
  EXPECT_NE(csv.find(",ok,0,plb.a\n"), std::string::npos);
  EXPECT_NE(csv.find(",error,2,\"plb.b,\"\"odd\"\"\"\n"), std::string::npos);
  EXPECT_NE(csv.find("ship,send,8,0,0,0,10000000,10,0,ok,0,\n"),
            std::string::npos);

  trace::TxnLogger back;
  std::istringstream is(csv);
  back.load_csv(is);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.channel_name(back.records()[0].master), "plb.a");
  EXPECT_EQ(back.channel_name(back.records()[1].master), "plb.b,\"odd\"");
  EXPECT_EQ(back.records()[1].retries, 2u);
  EXPECT_EQ(back.records()[2].master, trace::kNoMaster);

  std::ostringstream os2;
  back.dump_csv(os2);
  EXPECT_EQ(os2.str(), csv);
}

// Traces captured before v4 logged each bus row twice, once on the bus
// channel and once on "<bus>.<master>". They still load (master = none),
// and expl::is_master_channel recognises the duplicate rows.
TEST(TxnLog, LoadCsvAcceptsV3TraceWithPerMasterDuplicateRows) {
  const std::string v3 =
      "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn,"
      "status,retries\n"
      "plb,write,64,0,0,0,100000000,100,1,ok,0\n"
      "plb.a,write,64,0,0,0,100000000,100,1,ok,0\n"
      "plb,read,32,0,100000000,100000000,180000000,180,2,ok,1\n"
      "plb.b,read,32,0,100000000,100000000,180000000,180,2,ok,1\n";
  trace::TxnLogger log;
  std::istringstream is(v3);
  log.load_csv(is);
  ASSERT_EQ(log.size(), 4u);
  const std::vector<std::string> labels{"a", "b"};
  std::uint64_t bus_rows = 0, duplicates = 0;
  for (const auto& r : log.records()) {
    EXPECT_EQ(r.master, trace::kNoMaster);
    if (expl::is_master_channel(log.channel_name(r.channel), "plb", labels)) {
      ++duplicates;
    } else {
      ++bus_rows;
    }
  }
  EXPECT_EQ(bus_rows, 2u);
  EXPECT_EQ(duplicates, 2u);
  EXPECT_EQ(log.records()[2].retries, 1u);
}

// retries is a 32-bit record field: a value that does not fit is a load
// error naming the line and field, not a silent truncation.
TEST(TxnLog, LoadCsvRejectsOutOfRangeRetries) {
  const std::string v3 =
      "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn,"
      "status,retries\n";
  const std::string v4 =
      "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn,"
      "status,retries,master\n";
  auto load_error = [](const std::string& text) -> std::string {
    trace::TxnLogger log;
    std::istringstream is(text);
    try {
      log.load_csv(is);
    } catch (const SimulationError& e) {
      EXPECT_EQ(log.size(), 0u);
      return e.what();
    }
    return "";
  };
  const std::string max_row = "bus,write,4,0,0,0,10,0,1,ok,4294967295";
  const std::string over_row = "bus,write,4,0,0,0,10,0,1,ok,4294967297";
  EXPECT_EQ(load_error(v3 + max_row + "\n"), "");
  EXPECT_EQ(load_error(v4 + max_row + ",bus.a\n"), "");
  for (const std::string& text :
       {v3 + over_row + "\n", v4 + over_row + ",bus.a\n"}) {
    const std::string err = load_error(text);
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("retries"), std::string::npos) << err;
  }
}

// ------------------------------------------------- latency distributions --

namespace {
void record_rows(trace::TxnLogger& log, int n) {
  for (int i = 0; i < n; ++i) {
    log.record(0, trace::TxnKind::Write, 1, 4, Time::zero(), Time::ns(1));
  }
}
}  // namespace

// Each case runs on a thread of its own, whose spare slot starts empty.
namespace {

// One mutation of `text`, drawn from `rng`: a bit flip, a deletion, or an
// inserted quote, comma, line break or number too large for its field.
void mutate(std::string& text, workload::SplitMix64& rng) {
  static const char* const kInserts[] = {
      "\"", ",", "\n", "\r\n", "\"\"",
      "18446744073709551616",           // 2^64: overflows every u64 field
      "99999999999999999999999999999",  // overflows double precision too
      "1e999", "4294967296"};          // inf latency; retries > 32 bits
  const std::size_t at = rng.uniform(0, text.size());
  switch (rng.uniform(0, 2)) {
    case 0:
      if (!text.empty()) {
        const std::size_t i = std::min(at, text.size() - 1);
        text[i] = static_cast<char>(text[i] ^ (1u << rng.uniform(0, 7)));
      }
      break;
    case 1:
      text.erase(at, rng.uniform(1, 8));
      break;
    default:
      text.insert(at, kInserts[rng.uniform(0, std::size(kInserts) - 1)]);
      break;
  }
}

}  // namespace

// Hostile traces: seeded mutations of a golden v4 dump and of v1-v3
// documents. Every input either loads or throws SimulationError (leaving
// the logger empty), and whatever loads re-dumps to a fixed point.
TEST(TxnLog, MutatedCsvLoadsOrThrowsSimulationError) {
  trace::TxnLogger golden;
  const auto bus = golden.intern("plb");
  const auto odd = golden.intern("plb.b,\"odd\"\nname");
  golden.record(bus, trace::TxnKind::Write, 1, 64, 0_ns, 100_ns, 10_ns,
                20_ns, trace::TxnStatus::Ok, 0, golden.intern("plb.a"));
  golden.record(bus, trace::TxnKind::Read, 2, 32, 5_ns, 150_ns, 100_ns,
                120_ns, trace::TxnStatus::Timeout, 3, odd);
  golden.record("ship", trace::TxnKind::Request, 8, 0_ns, 10_ns);
  golden.record("ship", trace::TxnKind::Reply, 4, 1_fs, 3_fs);
  std::ostringstream v4;
  golden.dump_csv(v4);
  const std::vector<std::string> corpus{
      v4.str(),
      "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn,"
      "status,retries\n"
      "plb,write,64,0,0,0,100000000,100,1,ok,0\n"
      "\"p,b\",read,32,0,1,2,180000000,180,2,aborted,1\n",
      "channel,kind,bytes,start_fs,grant_fs,data_fs,end_fs,latency_ns,txn\n"
      "ch,send,4,0,10,20,1000000,0.001,7\n"
      "ch,reply,0,5,5,5,5,0,0\n",
      "channel,kind,bytes,start_fs,end_fs,latency_ns,txn\n"
      "ch0,send,64,1000000,2000000,1,9\n"
      "ch1,read,32,0,500000,0.5,0\n"};
  workload::SplitMix64 rng(0x5eed);
  std::size_t loaded = 0, refused = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = corpus[i % corpus.size()];
    for (std::uint64_t m = rng.uniform(1, 4); m > 0; --m) mutate(text, rng);
    trace::TxnLogger log;
    std::istringstream is(text);
    try {
      log.load_csv(is);
    } catch (const SimulationError&) {
      EXPECT_EQ(log.size(), 0u) << "input #" << i;
      ++refused;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input #" << i << " threw an untyped error: "
                    << e.what() << "\n" << text;
      continue;
    }
    ++loaded;
    std::ostringstream once, twice;
    log.dump_csv(once);
    trace::TxnLogger back;
    std::istringstream again(once.str());
    back.load_csv(again);
    back.dump_csv(twice);
    EXPECT_EQ(twice.str(), once.str()) << "input #" << i;
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(loaded, 100u);
  EXPECT_GT(refused, 1000u);
}

TEST(TxnLog, NextLoggerOnAThreadStartsWithTheLargestReleasedRows) {
  std::size_t inherited = 0;
  std::thread([&] {
    {
      trace::TxnLogger big;
      trace::TxnLogger small;
      record_rows(big, 1000);
      record_rows(small, 10);
      // Destroyed small first, then big: the larger buffer wins the slot.
    }
    {
      trace::TxnLogger tiny;
      record_rows(tiny, 3);
      // Destroyed holding less than the spare: it is freed, not kept.
    }
    trace::TxnLogger next;
    record_rows(next, 1);
    inherited = next.records().capacity();
    EXPECT_EQ(next.size(), 1u);
  }).join();
  EXPECT_GE(inherited, 1000u);
}

TEST(TxnLog, LoggerDestroyedAfterItsThreadsSpareSlotIsSafe) {
  // A thread_local constructed before the spare slot is destroyed after
  // it: its logger's release must find the slot gone and free the rows.
  struct Holder {
    std::optional<trace::TxnLogger> log;
  };
  std::thread([] {
    thread_local Holder h;
    h.log.emplace();
    record_rows(*h.log, 100);  // first growth creates the spare slot
  }).join();
  SUCCEED();
}

TEST(ChannelStats, PercentileIsNearestRank) {
  std::vector<double> s{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(trace::percentile(s, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(trace::percentile(s, 95.0), 100.0);
  EXPECT_DOUBLE_EQ(trace::percentile(s, 99.0), 100.0);
  EXPECT_DOUBLE_EQ(trace::percentile(s, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(trace::percentile(s, 100.0), 100.0);
  std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(trace::percentile(one, 50.0), 42.0);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(trace::percentile(none, 50.0), 0.0);
}

// tail_percentiles selects p95 only above the p50 pick and p99 only
// above p95; every pick must equal the nearest-rank value of a fully
// sorted copy. Seeded values drawn from a narrow range force ties.
TEST(ChannelStats, TailPercentilesMatchSortedNearestRank) {
  std::mt19937_64 rng(20261017);
  for (std::size_t n = 1; n <= 1000; ++n) {
    std::vector<double> s(n);
    for (double& v : s) v = static_cast<double>(rng() % (n / 4 + 2)) * 0.5;
    std::vector<double> sorted = s;
    std::sort(sorted.begin(), sorted.end());
    const auto nearest_rank = [&](double pct) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(pct / 100.0 * static_cast<double>(n)));
      return sorted[std::max<std::size_t>(rank, 1) - 1];
    };
    const trace::TailPercentiles t = trace::tail_percentiles(s);
    ASSERT_EQ(t.p50, nearest_rank(50.0)) << "n=" << n;
    ASSERT_EQ(t.p95, nearest_rank(95.0)) << "n=" << n;
    ASSERT_EQ(t.p99, nearest_rank(99.0)) << "n=" << n;
  }
  std::vector<double> none;
  const trace::TailPercentiles t = trace::tail_percentiles(none);
  EXPECT_EQ(t.p50, 0.0);
  EXPECT_EQ(t.p95, 0.0);
  EXPECT_EQ(t.p99, 0.0);
}

TEST(ChannelStats, LatencyDistDerivesPercentilesAndQueueing) {
  trace::TxnLogger log;
  // 20 rows, latencies 10..200 ns; every row queued 1/4 of its latency.
  for (int i = 1; i <= 20; ++i) {
    const Time start = Time::us(static_cast<std::uint64_t>(i));
    const Time grant = start + Time::ns(static_cast<std::uint64_t>(i * 10) / 4);
    const Time end = start + Time::ns(static_cast<std::uint64_t>(i * 10));
    log.record("bus", trace::TxnKind::Write, 64, start, end, grant, grant);
  }
  const auto d = trace::latency_dist(log.records());
  EXPECT_EQ(d.count, 20u);
  EXPECT_DOUBLE_EQ(d.p50_ns, 100.0);
  EXPECT_DOUBLE_EQ(d.p95_ns, 190.0);
  EXPECT_DOUBLE_EQ(d.p99_ns, 200.0);
  EXPECT_DOUBLE_EQ(d.max_ns, 200.0);
  EXPECT_DOUBLE_EQ(d.mean_ns, 105.0);
  EXPECT_NEAR(d.mean_queue_ns, 105.0 / 4, 0.5);  // integer division rounding
}

TEST(ChannelStats, PerChannelStatsGroupAndPrint) {
  trace::TxnLogger log;
  log.record("fast", trace::TxnKind::Send, 8, 0_ns, 10_ns);
  log.record("fast", trace::TxnKind::Send, 8, 20_ns, 40_ns);
  log.record("slow", trace::TxnKind::Write, 64, 0_ns, 400_ns, 300_ns, 350_ns);
  const auto rows = trace::per_channel_stats(log);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].channel, "fast");
  EXPECT_EQ(rows[0].dist.count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].dist.p50_ns, 10.0);
  EXPECT_EQ(rows[1].channel, "slow");
  EXPECT_DOUBLE_EQ(rows[1].dist.mean_queue_ns, 300.0);
  EXPECT_DOUBLE_EQ(rows[1].dist.mean_service_ns, 100.0);

  std::ostringstream os;
  const auto flags = os.flags();
  trace::print_channel_table(os, rows);
  EXPECT_NE(os.str().find("p95_ns"), std::string::npos);
  EXPECT_NE(os.str().find("fast"), std::string::npos);
  EXPECT_NE(os.str().find("slow"), std::string::npos);
  EXPECT_EQ(os.flags(), flags);  // formatting restored
}

TEST(TxnLog, InternIsStableAndDeduplicates) {
  trace::TxnLogger log;
  const auto a = log.intern("alpha");
  const auto b = log.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(log.intern("alpha"), a);
  EXPECT_EQ(log.intern("beta"), b);
  EXPECT_EQ(log.channel_name(a), "alpha");
  EXPECT_EQ(log.channel_name(b), "beta");
  // Many channels stay consistent (exercises the hash index rather than
  // the old linear scan).
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 500; ++i) ids.push_back(log.intern("ch" + std::to_string(i)));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(log.intern("ch" + std::to_string(i)), ids[static_cast<std::size_t>(i)]);
  }
}

TEST(Vcd, EmitsHeaderAndChanges) {
  TempVcd tmp("header");
  Simulator sim;
  Signal<bool> flag(sim, "flag", false);
  Signal<std::uint8_t> bus(sim, "bus", 0);
  {
    trace::VcdWriter vcd(sim, tmp.path);
    vcd.add(flag, "flag");
    vcd.add(bus, "bus");
    EXPECT_EQ(vcd.signal_count(), 2u);
    sim.spawn_thread("driver", [&] {
      wait(10_ns);
      flag.write(true);
      bus.write(0xa5);
      wait(10_ns);
      flag.write(false);
    });
    sim.run();
  }
  const std::string text = read_file(tmp.path);
  EXPECT_NE(text.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 ! flag $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 8 \" bus $end"), std::string::npos);
  EXPECT_NE(text.find("#10000"), std::string::npos);  // 10 ns in ps
  EXPECT_NE(text.find("b10100101 \""), std::string::npos);
  EXPECT_NE(text.find("1!"), std::string::npos);
  EXPECT_NE(text.find("0!"), std::string::npos);
}

TEST(Vcd, ClockWaveHasAllEdges) {
  TempVcd tmp("clock");
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);
  trace::VcdWriter vcd(sim, tmp.path);
  vcd.add(clk.signal(), "clk");
  sim.run_for(45_ns);
  vcd.flush();
  const std::string text = read_file(tmp.path);
  // Rising edges at 0, 10000, 20000, 30000, 40000 ps.
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("#40000"), std::string::npos);
  // Count value changes of signal '!': the initial-value dump plus
  // 9 edges (5 rising + 4 falling within 45 ns).
  int changes = 0;
  for (std::size_t pos = 0; (pos = text.find("!\n", pos)) != std::string::npos;
       ++pos) {
    ++changes;
  }
  EXPECT_EQ(changes, 10);
}

TEST(Vcd, SampledValueCallback) {
  TempVcd tmp("sampled");
  Simulator sim;
  int fsm_state = 0;
  trace::VcdWriter vcd(sim, tmp.path);
  vcd.add_sampled("fsm", 4, [&] { return static_cast<std::uint64_t>(fsm_state); });
  sim.spawn_thread("fsm", [&] {
    for (int i = 1; i <= 3; ++i) {
      wait(5_ns);
      fsm_state = i;
    }
  });
  sim.run();
  vcd.flush();
  const std::string text = read_file(tmp.path);
  EXPECT_NE(text.find("b11 !"), std::string::npos);  // state 3
}

TEST(Vcd, UnwritableFileThrows) {
  Simulator sim;
  EXPECT_THROW(trace::VcdWriter(sim, "/nonexistent_dir/x.vcd"),
               SimulationError);
}

TEST(Vcd, AddAfterRunThrows) {
  TempVcd tmp("late");
  Simulator sim;
  Signal<bool> s(sim, "s", false);
  trace::VcdWriter vcd(sim, tmp.path);
  vcd.add(s, "s");
  sim.spawn_thread("t", [&] { wait(1_ns); });
  sim.run();
  Signal<bool> s2(sim, "s2", false);
  EXPECT_THROW(vcd.add(s2, "s2"), SimulationError);
}
