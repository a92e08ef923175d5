// Tests for the kernel determinism auditor (kernel/audit.hpp): a
// deliberately racy fixture is flagged, causally ordered fixtures are
// not, the canonical exploration grid is conflict-free, and auditing a
// run never perturbs its simulated results (checked at the fast-path
// occupancy boundary, the spot a scheduler-order bug would surface
// first).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cam/cam.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "ocp/banked_memory.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::core;
using namespace stlm::expl;
using namespace stlm::time_literals;

namespace {

// Restores the process-wide audit default on scope exit so grid tests
// can't leak auditing into unrelated tests.
struct AuditDefaultGuard {
  AuditDefaultGuard() : prev_(audit::default_enabled()) {}
  ~AuditDefaultGuard() { audit::set_default_enabled(prev_); }
  bool prev_;
};

}  // namespace

TEST(Audit, DisabledSimulatorReportsNothing) {
  Simulator sim;
  EXPECT_FALSE(sim.audit_enabled());
  const auto r = sim.audit_report();
  EXPECT_FALSE(r.enabled);
  EXPECT_EQ(r.conflicts.size(), 0u);
  EXPECT_TRUE(r.table().empty());
}

// Two processes, both runnable from time zero, both pushing into one
// FIFO in the same delta cycle: the runnable queue's FIFO policy — not
// simulated causality — decides whose value lands first. That is the
// exact hazard the auditor exists to flag.
TEST(Audit, CoRunnableWritersAreFlagged) {
  Simulator sim;
  sim.set_audit_enabled(true);
  Fifo<int> f(sim, "f", 4);
  sim.spawn_thread("w1", [&] { f.nb_write(1); });
  sim.spawn_thread("w2", [&] { f.nb_write(2); });
  sim.run();
  const auto r = sim.audit_report();
  EXPECT_TRUE(r.enabled);
  ASSERT_EQ(r.conflicts.size(), 1u) << r.table();
  const auto& c = r.conflicts.front();
  EXPECT_EQ(c.object, "fifo.tail:f");
  EXPECT_EQ(c.first, "w1");
  EXPECT_EQ(c.second, "w2");
  EXPECT_EQ(c.first_mode, audit::Mode::Write);
  EXPECT_EQ(c.second_mode, audit::Mode::Write);
  const std::string table = r.table();
  EXPECT_NE(table.find("fifo.tail:f"), std::string::npos) << table;
  EXPECT_NE(table.find("w1"), std::string::npos) << table;
  EXPECT_NE(table.find("w2"), std::string::npos) << table;
}

// The same shape repeated in a loop must report one conflict pair with a
// multiplicity, not one row per occurrence.
TEST(Audit, RepeatedConflictAggregatesCount) {
  Simulator sim;
  sim.set_audit_enabled(true);
  Fifo<int> f(sim, "f", 64);
  sim.spawn_thread("w1", [&] {
    for (int i = 0; i < 3; ++i) {
      f.nb_write(i);
      wait(10_ns);
    }
  });
  sim.spawn_thread("w2", [&] {
    for (int i = 0; i < 3; ++i) {
      f.nb_write(-i);
      wait(10_ns);
    }
  });
  sim.run();
  const auto r = sim.audit_report();
  ASSERT_EQ(r.conflicts.size(), 1u) << r.table();
  EXPECT_GE(r.conflicts.front().count, 3u);
  EXPECT_EQ(r.conflict_events, r.conflicts.front().count);
}

// Blocking producer/consumer through one FIFO: the pop side only runs
// because the push side woke it (and the sides audit as separate keys),
// so a clean handshake must stay quiet.
TEST(Audit, CausalProducerConsumerIsClean) {
  Simulator sim;
  sim.set_audit_enabled(true);
  Fifo<int> f(sim, "f", 2);
  int sum = 0;
  sim.spawn_thread("producer", [&] {
    for (int i = 1; i <= 16; ++i) f.write(i);
  });
  sim.spawn_thread("consumer", [&] {
    for (int i = 0; i < 16; ++i) sum += f.read();
  });
  sim.run();
  EXPECT_EQ(sum, 136);
  const auto r = sim.audit_report();
  EXPECT_GT(r.accesses, 0u);
  EXPECT_EQ(r.conflicts.size(), 0u) << r.table();
}

// One process touching an object repeatedly within a dispatch is not a
// race with itself.
TEST(Audit, SingleProcessIsClean) {
  Simulator sim;
  sim.set_audit_enabled(true);
  Fifo<int> f(sim, "f", 8);
  sim.spawn_thread("solo", [&] {
    for (int i = 0; i < 8; ++i) f.nb_write(i);
    int v = 0;
    while (f.nb_read(v)) {
    }
  });
  sim.run();
  const auto r = sim.audit_report();
  EXPECT_EQ(r.conflicts.size(), 0u) << r.table();
}

// The tentpole acceptance claim: the canonical 108-platform x 5-workload
// grid — every bus protocol, split engines, fast targets, TDMA, NoC-ish
// crossbars — runs with zero determinism conflicts. A regression here
// means somebody introduced scheduler-order-dependent state.
TEST(Audit, CanonicalGridIsConflictFree) {
  AuditDefaultGuard guard;
  audit::set_default_enabled(true);  // sampled by the sweep's simulators

  const auto plats = grid_candidates();
  const auto loads = workload_candidates();
  ASSERT_EQ(plats.size(), 108u);
  ASSERT_EQ(loads.size(), 5u);
  Explorer ex;
  std::uint64_t audited_cells = 0;
  for (const auto& p : plats) {
    for (const auto& w : loads) {
      const auto row = ex.evaluate(p, w, 200_ms);
      EXPECT_TRUE(row.completed) << p.name << "/" << w.name;
      EXPECT_EQ(row.audit_conflicts, 0u) << p.name << "/" << w.name;
      ++audited_cells;
    }
  }
  EXPECT_EQ(audited_cells, 540u);
}

// PR 6 carry-over, now under the auditor: at the occupancy-end boundary
// instant the fast path must fall back to the engine, stay bit-identical
// to a pure-engine run — and enabling the auditor must neither perturb
// those results nor report a conflict.
TEST(Audit, FastPathBoundaryBitIdenticalUnderAuditor) {
  struct Result {
    double end_ns = 0, latency_sum = 0, service_sum = 0;
    std::uint64_t transactions = 0, bytes = 0, fast_hits = 0,
                  conflicts = 0;
  };
  auto run = [](bool fast, bool auditing) {
    Simulator sim;
    if (auditing) sim.set_audit_enabled(true);
    trace::TxnLogger log;
    PlbCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{}, fast);
    bus.set_txn_logger(&log);
    ocp::BankedMemorySlave mem("dram", 0, 1 << 18);
    bus.attach_slave(mem, {0, 1 << 18}, "dram");
    const std::size_t m0 = bus.add_master("a");
    const std::size_t m1 = bus.add_master("b");
    // PLB @10ns, 8-byte width, 64-byte payload: a non-back-to-back write
    // occupies 100 ns; b's pre-registered wake lands exactly at an
    // occupancy end, forcing the boundary-instant engine fallback.
    sim.spawn_thread("b", [&] {
      wait(100_ns);
      std::vector<std::uint8_t> p(64, 2);
      Txn t;
      for (int i = 0; i < 6; ++i) {
        t.begin_write(0x8000 + static_cast<std::uint64_t>(i) * 64, p.data(),
                      p.size());
        bus.master_port(m1).transport(t);
      }
    });
    sim.spawn_thread("a", [&] {
      std::vector<std::uint8_t> p(64, 1);
      Txn t;
      for (int i = 0; i < 6; ++i) {
        t.begin_write(static_cast<std::uint64_t>(i) * 256, p.data(),
                      p.size());
        bus.master_port(m0).transport(t);
        wait(40_ns);
      }
    });
    sim.run();
    Result r;
    r.end_ns = sim.now().to_ns();
    for (const auto& row : log.records()) {
      r.latency_sum += row.latency_ns();
      r.service_sum += row.service_ns();
    }
    const trace::StatSet& st = bus.stats();
    r.transactions = st.counter("transactions");
    r.bytes = st.counter("bytes");
    r.fast_hits = bus.fast_path_hits();
    r.conflicts = sim.audit_report().conflicts.size();
    return r;
  };
  const Result engine = run(false, true);
  const Result fast = run(true, true);
  const Result fast_unaudited = run(true, false);

  // Bit-identity across the fast-path boundary (doubles compared exactly
  // on purpose — "close" would hide order bugs).
  EXPECT_EQ(fast.end_ns, engine.end_ns);
  EXPECT_EQ(fast.latency_sum, engine.latency_sum);
  EXPECT_EQ(fast.service_sum, engine.service_sum);
  EXPECT_EQ(fast.transactions, engine.transactions);
  EXPECT_EQ(fast.bytes, engine.bytes);
  EXPECT_GT(fast.fast_hits, 0u);
  EXPECT_LT(fast.fast_hits, fast.transactions)
      << "the boundary-instant issue must fall back to the engine";

  // The auditor observes; it must not perturb.
  EXPECT_EQ(fast.end_ns, fast_unaudited.end_ns);
  EXPECT_EQ(fast.latency_sum, fast_unaudited.latency_sum);
  EXPECT_EQ(fast.transactions, fast_unaudited.transactions);

  EXPECT_EQ(engine.conflicts, 0u);
  EXPECT_EQ(fast.conflicts, 0u);
}

// Crossbar counters: the two lanes complete concurrently and bump the
// same integer counters, which commute, so the auditor reports nothing
// and the counters match the row groups of the bus and each master.
TEST(Audit, CrossbarCountersMatchRowGroups) {
  Simulator sim;
  sim.set_audit_enabled(true);
  trace::TxnLogger log;
  CrossbarCam xbar(sim, "xbar", 10_ns, 8);
  xbar.set_txn_logger(&log);
  ocp::BankedMemorySlave mem0("m0", 0, 1 << 12);
  ocp::BankedMemorySlave mem1("m1", 0, 1 << 12);
  xbar.attach_slave(mem0, {0, 1 << 12}, "m0");
  xbar.attach_slave(mem1, {1 << 12, 2 << 12}, "m1");
  const std::size_t a = xbar.add_master("a");
  const std::size_t b = xbar.add_master("b");
  sim.spawn_thread("a", [&] {
    std::vector<std::uint8_t> p(32, 1);
    Txn t;
    for (int i = 0; i < 5; ++i) {
      t.begin_write(static_cast<std::uint64_t>(i) * 64, p.data(), p.size());
      xbar.master_port(a).transport(t);
    }
  });
  sim.spawn_thread("b", [&] {
    std::vector<std::uint8_t> p(32, 2);
    Txn t;
    for (int i = 0; i < 5; ++i) {
      t.begin_write((1 << 12) + static_cast<std::uint64_t>(i) * 64, p.data(),
                    p.size());
      xbar.master_port(b).transport(t);
    }
  });
  sim.run();
  const trace::StatSet& st = xbar.stats();
  EXPECT_EQ(st.counter("transactions"), 10u);
  EXPECT_EQ(st.counter("bytes"), 320u);
  std::map<std::string, std::uint64_t> count_of;
  std::map<std::string, std::uint64_t> bytes_of;
  for (const auto& c : trace::per_channel_stats(log)) {
    count_of[c.channel] = c.dist.count;
    bytes_of[c.channel] = c.dist.bytes;
  }
  EXPECT_EQ(count_of["xbar"], st.counter("transactions"));
  EXPECT_EQ(bytes_of["xbar"], st.counter("bytes"));
  EXPECT_EQ(count_of["xbar.a"], 5u);
  EXPECT_EQ(count_of["xbar.b"], 5u);
  EXPECT_EQ(sim.audit_report().conflicts.size(), 0u)
      << sim.audit_report().table();
}
