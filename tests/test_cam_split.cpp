// Tests for split/out-of-order CAM transactions: the GrantEngine's
// bookkeeping, the split engines' pipelining and fairness, per-port OoO
// completion on the crossbar, wrapper burst coalescing — and the
// bit-identical regression guard that pins max_outstanding == 1 to the
// seed's atomic timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "cam/cam.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "ocp/memory.hpp"
#include "ship/ship.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::time_literals;

// Rows a CAM records under its own channel: one per transaction, each
// tagged with its issuing master's "<bus>.<master>" name (master_rows).
static std::vector<trace::TxnRecord> channel_rows(const trace::TxnLogger& log,
                                                  const std::string& channel) {
  std::vector<trace::TxnRecord> out;
  for (const auto& r : log.records()) {
    if (log.channel_name(r.channel) == channel) out.push_back(r);
  }
  return out;
}

// Rows whose issuing master is `master` ("<bus>.<master>").
static std::vector<trace::TxnRecord> master_rows(const trace::TxnLogger& log,
                                                 const std::string& master) {
  std::vector<trace::TxnRecord> out;
  for (const auto& r : log.records()) {
    if (r.master != trace::kNoMaster && log.channel_name(r.master) == master) {
      out.push_back(r);
    }
  }
  return out;
}

// ------------------------------------------------------- GrantEngine ----

TEST(GrantEngine, TracksPendingAndInflightPerMaster) {
  Simulator sim;  // Txn ids only; no processes run
  GrantEngine ge(std::make_unique<PriorityArbiter>(), /*max_outstanding=*/2);
  const std::size_t m0 = ge.add_master();
  const std::size_t m1 = ge.add_master();

  // The engine reads each request's master from the descriptor, as a
  // bus access point armed it.
  Txn a, b, c;
  a.begin_read(0x0, 4);
  b.begin_read(0x4, 4);
  c.begin_read(0x8, 4);
  a.master_id = b.master_id = static_cast<std::uint32_t>(m0);
  c.master_id = static_cast<std::uint32_t>(m1);
  ge.enqueue(a);
  ge.enqueue(b);
  ge.enqueue(c);
  EXPECT_TRUE(ge.any_pending());
  EXPECT_EQ(ge.pending_count(m0), 2u);
  EXPECT_EQ(ge.inflight_count(m0), 0u);

  Txn* t = ge.grant(0);
  ASSERT_EQ(t, &a);  // priority: master 0 first, FIFO within the master
  EXPECT_EQ(ge.inflight_count(m0), 1u);
  EXPECT_TRUE(ge.any_inflight());

  t = ge.grant(0);
  ASSERT_EQ(t, &b);  // m0 still under its cap of 2
  EXPECT_EQ(ge.inflight_count(m0), 2u);

  // m0 is now at its cap: the next grant must go to m1.
  t = ge.grant(0);
  ASSERT_EQ(t, &c);
  EXPECT_EQ(ge.inflight_count(m1), 1u);

  // Everything in flight, nothing pending: no grant.
  EXPECT_EQ(ge.grant(0), nullptr);
  EXPECT_FALSE(ge.any_pending());

  // Retiring counts the descriptor's own master down, out of order.
  ge.retire(b);
  EXPECT_EQ(ge.inflight_count(m0), 1u);
  ge.retire(c);
  EXPECT_EQ(ge.inflight_count(m1), 0u);
  ge.retire(a);
  EXPECT_EQ(ge.inflight_count(m0), 0u);
  EXPECT_FALSE(ge.any_inflight());
  // A retire that matches no grant is a bookkeeping bug, not a no-op.
  EXPECT_THROW(ge.retire(a), SimulationError);
}

TEST(GrantEngine, CapGatesEligibilityNotQueueing) {
  Simulator sim;
  GrantEngine ge(std::make_unique<RoundRobinArbiter>(), 1);
  const std::size_t m = ge.add_master();
  Txn a, b;
  a.begin_read(0, 4);
  b.begin_read(4, 4);
  a.master_id = b.master_id = static_cast<std::uint32_t>(m);
  ge.enqueue(a);
  ge.enqueue(b);  // queueing beyond the cap is fine
  ASSERT_EQ(ge.grant(0), &a);
  EXPECT_EQ(ge.grant(0), nullptr);  // at cap, b must wait
  ge.retire(a);
  EXPECT_EQ(ge.grant(0), &b);
}

// The row-sharing certificate: a grant counts as a contended pick only
// when two or more masters are eligible at once.
TEST(GrantEngine, CountsOnlyPicksAmongTwoOrMoreEligibleMasters) {
  Simulator sim;
  GrantEngine ge(std::make_unique<PriorityArbiter>(), /*max_outstanding=*/1);
  const std::size_t m0 = ge.add_master();
  const std::size_t m1 = ge.add_master();
  Txn a, b, c;
  a.begin_read(0x0, 4);
  b.begin_read(0x4, 4);
  c.begin_read(0x8, 4);
  a.master_id = b.master_id = static_cast<std::uint32_t>(m0);
  c.master_id = static_cast<std::uint32_t>(m1);

  // One eligible master: the arbiter has no choice.
  ge.enqueue(a);
  ASSERT_EQ(ge.grant(0), &a);
  EXPECT_EQ(ge.contended_picks(), 0u);
  EXPECT_EQ(ge.grant(0), nullptr);  // nothing eligible: no pick at all
  EXPECT_EQ(ge.contended_picks(), 0u);

  // m0 is at its cap with b queued behind a: b is not eligible, so c
  // is granted alone.
  ge.enqueue(b);
  ge.enqueue(c);
  ASSERT_EQ(ge.grant(0), &c);
  EXPECT_EQ(ge.contended_picks(), 0u);

  // Two eligible masters: a contended pick.
  ge.retire(a);
  ge.retire(c);
  Txn d;
  d.begin_read(0xc, 4);
  d.master_id = static_cast<std::uint32_t>(m1);
  ge.enqueue(d);
  ASSERT_EQ(ge.grant(0), &b);  // priority: master 0 wins
  EXPECT_EQ(ge.contended_picks(), 1u);

  // A fast-path grant has one candidate by contract and never counts.
  ge.note_fast_grant(m1, 1);
  ge.note_fast_grant(m0, 2);
  EXPECT_EQ(ge.contended_picks(), 1u);
}

// --------------------------------------- bit-identical atomic timing ----

namespace {

// The bench_cam contention scenario (8 masters x 200 64-byte writes on a
// priority PLB @ 10 ns): drives either the blocking transport() path or
// the post()+wait window path with `window` outstanding descriptors.
Time run_plb_contention(SplitConfig split, std::size_t masters,
                        int txns_per_master, std::size_t window,
                        Time slave_latency = Time::zero()) {
  Simulator sim;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>(), 0, split);
  ocp::MemorySlave mem("mem", 0, 1 << 20, slave_latency);
  bus.attach_slave(mem, {0, 1 << 20}, "mem");
  for (std::size_t m = 0; m < masters; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(m));
      std::vector<Txn> txns(window);
      for (int i = 0; i < txns_per_master; ++i) {
        Txn& t = txns[static_cast<std::size_t>(i) % window];
        if (static_cast<std::size_t>(i) >= window) t.done.wait(sim);
        const std::uint64_t addr =
            (m << 12) + static_cast<std::uint64_t>(i % 32) * 64;
        t.begin_write(addr, payload.data(), payload.size());
        bus.post(idx, t);
      }
      for (auto& t : txns) t.done.wait(sim);
    });
  }
  sim.run();
  return sim.now();
}

}  // namespace

// Split mode off (max_outstanding == 1) must reproduce the seed's atomic
// timing bit-identically — the absolute number is the bench_cam anchor
// from the verify recipe (sim_us = 128.02 for 8/priority/200x64B).
TEST(CamSplit, MaxOutstandingOneIsBitIdenticalToSeedTiming) {
  const Time seed = run_plb_contention({}, 8, 200, 1);
  EXPECT_EQ(seed, Time::ns(128020));  // 10cy + 1599 * 8cy back-to-back

  // split_txns without depth, and depth without split_txns, both stay on
  // the atomic engine and must not move a single picosecond.
  EXPECT_EQ(run_plb_contention({true, 1}, 8, 200, 1), seed);
  EXPECT_EQ(run_plb_contention({false, 8}, 8, 200, 1), seed);
}

TEST(CamSplit, BlockingTransportAndPostAgreeOnAtomicTiming) {
  // post() + immediate wait is the same protocol as transport() for the
  // atomic engine: identical completion time.
  Simulator sim;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x1000);
  bus.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = bus.add_master("pe");
  Time done_at;
  sim.spawn_thread("pe", [&] {
    Txn t;
    t.begin_write(0, std::vector<std::uint8_t>(64, 1).data(), 64);
    bus.post(m, t);
    t.done.wait(sim);
    done_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(done_at, 100_ns);  // (2 setup + 8 beats) * 10 ns
}

// ----------------------------------------------- split-mode pipelining ----

TEST(CamSplit, SplitModeOverlapsServiceWithBusPhases) {
  // With a 200 ns slave, the atomic bus serializes occupancy + service;
  // the split bus keeps up to 4 requests in service while address and
  // data phases of other transactions use the bus. The pipeline must be
  // at least 2x faster (analytically ~3x: 280 ns/txn -> ~80 ns/txn).
  const Time atomic = run_plb_contention({}, 2, 100, 1, 200_ns);
  const Time split = run_plb_contention({true, 4}, 2, 100, 4, 200_ns);
  EXPECT_LT(split * 2, atomic);
}

TEST(CamSplit, DeeperOutstandingWindowHidesMoreServiceLatency) {
  const Time d1 = run_plb_contention({}, 1, 50, 1, 400_ns);
  const Time d2 = run_plb_contention({true, 2}, 1, 50, 2, 400_ns);
  const Time d4 = run_plb_contention({true, 4}, 1, 50, 4, 400_ns);
  EXPECT_LT(d2, d1);
  EXPECT_LT(d4, d2);
}

namespace {

struct SplitRigRun {
  Time sim_time;
  std::uint64_t ctx_switches = 0;
};

// A smaller twin of bench_cam's BM_SplitOutstanding rig: round-robin
// PLB, 4 masters x 64 posted 32-byte writes with a window of
// `outstanding` descriptors, one 200 ns memory.
constexpr std::size_t kRigMasters = 4;
constexpr int kRigTxnsPerMaster = 64;

SplitRigRun run_split_rig(std::size_t outstanding) {
  Simulator sim;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<RoundRobinArbiter>(), 0,
             SplitConfig{true, outstanding});
  ocp::MemorySlave mem("mem", 0, 1 << 20, 200_ns);
  bus.attach_slave(mem, {0, 1 << 20}, "mem");
  for (std::size_t m = 0; m < kRigMasters; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::vector<std::uint8_t> payload(32, static_cast<std::uint8_t>(m));
      std::vector<Txn> txns(outstanding);
      for (int i = 0; i < kRigTxnsPerMaster; ++i) {
        Txn& t = txns[static_cast<std::size_t>(i) % outstanding];
        if (static_cast<std::size_t>(i) >= outstanding) t.done.wait(sim);
        const std::uint64_t addr =
            (m << 12) + static_cast<std::uint64_t>(i % 32) * 32;
        t.begin_write(addr, payload.data(), payload.size());
        bus.post(idx, t);
      }
      for (auto& t : txns) t.done.wait(sim);
    });
  }
  sim.run();
  return {sim.now(), sim.ctx_switches()};
}

}  // namespace

// A granted split transaction wakes one parked service worker, not all
// of them: resumes per transaction stay flat as the worker pool deepens
// (a shared wake event gave 16.8 at depth 4 and 32.2 at depth 8), and
// simulated time does not move.
TEST(CamSplit, GrantWakesOneServiceWorkerPerTransaction) {
  const SplitRigRun d4 = run_split_rig(4);
  const SplitRigRun d8 = run_split_rig(8);
  EXPECT_EQ(d4.sim_time, 10460_ns);
  EXPECT_EQ(d8.sim_time, 10460_ns);

  const double txns = kRigMasters * kRigTxnsPerMaster;
  EXPECT_LE(static_cast<double>(d4.ctx_switches) / txns, 7.0)
      << d4.ctx_switches << " resumes at max_outstanding 4";
  EXPECT_LE(static_cast<double>(d8.ctx_switches) / txns, 7.0)
      << d8.ctx_switches << " resumes at max_outstanding 8";
  EXPECT_LE(d8.ctx_switches, d4.ctx_switches);
}

TEST(CamSplit, SharedBusSupportsSplitAndOpbIgnoresIt) {
  {
    Simulator sim;
    SharedBusCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(),
                     0, SplitConfig{true, 4});
    EXPECT_TRUE(bus.split_active());
    EXPECT_EQ(bus.max_outstanding(), 4u);
  }
  {
    Simulator sim;
    OpbCam bus(sim, "opb", 20_ns, std::make_unique<PriorityArbiter>(), 0,
               SplitConfig{true, 4});
    EXPECT_FALSE(bus.split_active());  // no address pipelining on OPB
    EXPECT_EQ(bus.max_outstanding(), 1u);
  }
}

TEST(CamSplit, SplitTimingIsDeterministicAcrossRuns) {
  const Time a = run_plb_contention({true, 4}, 4, 60, 4, 100_ns);
  const Time b = run_plb_contention({true, 4}, 4, 60, 4, 100_ns);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, Time::zero());
}

// --------------------------------------------------- split fairness ----

namespace {

// `arb_kind`: 0 = round-robin, 2 = TDMA (mirrors bench_cam).
std::vector<int> run_saturated_split(int arb_kind, std::size_t masters,
                                     Time run_time) {
  Simulator sim;
  std::unique_ptr<Arbiter> arb;
  if (arb_kind == 0) {
    arb = std::make_unique<RoundRobinArbiter>();
  } else {
    std::vector<std::size_t> table(masters);
    for (std::size_t i = 0; i < masters; ++i) table[i] = i;
    arb = std::make_unique<TdmaArbiter>(table, 16);
  }
  PlbCam bus(sim, "plb", 10_ns, std::move(arb), 0, SplitConfig{true, 4});
  ocp::MemorySlave mem("mem", 0, 1 << 20, 50_ns);
  bus.attach_slave(mem, {0, 1 << 20}, "mem");
  std::vector<int> done(masters, 0);
  for (std::size_t m = 0; m < masters; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::vector<std::uint8_t> payload(64, 1);
      Txn t;
      // Saturate until the run_for() horizon cuts the simulation off.
      for (;;) {
        t.begin_write((m << 12), payload.data(), payload.size());
        bus.master_port(idx).transport(t);
        ++done[m];
      }
    });
  }
  sim.run_for(run_time);
  return done;
}

}  // namespace

TEST(CamSplit, RoundRobinStaysFairUnderSplitSaturation) {
  const auto counts = run_saturated_split(0, 3, 200'000_ns);
  ASSERT_EQ(counts.size(), 3u);
  for (int c : counts) EXPECT_GT(c, 0);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*hi - *lo, 2) << "round-robin split grants drifted apart";
}

TEST(CamSplit, TdmaBoundsShareSkewUnderSplitSaturation) {
  const auto counts = run_saturated_split(2, 3, 200'000_ns);
  ASSERT_EQ(counts.size(), 3u);
  for (int c : counts) EXPECT_GT(c, 0);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  // TDMA slots rotate; with equal demand the shares stay within a slot
  // of each other.
  EXPECT_LE(*hi - *lo, 4) << "TDMA split shares drifted apart";
}

// ------------------------------------------------- crossbar OoO mode ----

TEST(CamSplit, CrossbarCompletesOutOfOrderAcrossLanes) {
  Simulator sim;
  CrossbarCam xbar(sim, "xbar", 10_ns, 8, SplitConfig{true, 2});
  ocp::MemorySlave slow("slow", 0x0000, 0x1000), fast("fast", 0x1000, 0x1000);
  xbar.attach_slave(slow, {0x0000, 0x1000}, "slow");
  xbar.attach_slave(fast, {0x1000, 0x1000}, "fast");
  const std::size_t m = xbar.add_master("pe");
  Time t_big, t_small;
  sim.spawn_thread("pe", [&] {
    std::vector<std::uint8_t> big(512, 1), small(4, 2);
    Txn a, b;
    a.begin_write(0x0000, big.data(), big.size());    // lane 0: 65 cycles
    b.begin_write(0x1000, small.data(), small.size());  // lane 1: 2 cycles
    xbar.post(m, a);
    xbar.post(m, b);
    b.done.wait(sim);
    t_small = sim.now();
    EXPECT_FALSE(a.done.completed())
        << "big write completed before the small one - no OoO happened";
    a.done.wait(sim);
    t_big = sim.now();
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
  });
  sim.run();
  // Second-issued transaction finishes first: per-port OoO completion.
  EXPECT_EQ(t_small, 20_ns);   // (1 + 1 beat) * 10 ns
  EXPECT_EQ(t_big, 650_ns);    // (1 + 64 beats) * 10 ns
  EXPECT_EQ(slow.writes(), 1u);
  EXPECT_EQ(fast.writes(), 1u);
}

TEST(CamSplit, CrossbarEnforcesOutstandingCapAtPost) {
  Simulator sim;
  CrossbarCam xbar(sim, "xbar", 10_ns, 8, SplitConfig{true, 2});
  ocp::MemorySlave mem("mem", 0, 0x1000);
  xbar.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = xbar.add_master("pe");
  Time third_post_at;
  sim.spawn_thread("pe", [&] {
    std::vector<std::uint8_t> p(64, 1);
    Txn a, b, c;
    a.begin_write(0, p.data(), p.size());
    b.begin_write(0x100, p.data(), p.size());
    c.begin_write(0x200, p.data(), p.size());
    xbar.post(m, a);
    xbar.post(m, b);  // cap of 2 reached
    xbar.post(m, c);  // must block until a slot frees (a completes)
    third_post_at = sim.now();
    a.done.wait(sim);
    b.done.wait(sim);
    c.done.wait(sim);
  });
  sim.run();
  // One 64-byte write on one lane is (1 + 8) * 10 ns = 90 ns; the third
  // post cannot issue before the first completion.
  EXPECT_EQ(third_post_at, 90_ns);
  EXPECT_EQ(mem.writes(), 3u);
}

TEST(CamSplit, PostOnAtomicCrossbarRunsToCompletion) {
  // CamIf::post contract: a bus without split support may complete the
  // transaction before returning, so post()-based initiators work on
  // every grid platform, including the atomic crossbar.
  Simulator sim;
  CrossbarCam xbar(sim, "xbar", 10_ns);  // split off
  EXPECT_FALSE(xbar.split_active());
  EXPECT_EQ(xbar.max_outstanding(), 1u);  // knob clamps when inactive
  ocp::MemorySlave mem("mem", 0, 0x1000);
  xbar.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = xbar.add_master("pe");
  Time done_at;
  sim.spawn_thread("pe", [&] {
    std::vector<std::uint8_t> p(64, 1);
    Txn t;
    t.begin_write(0, p.data(), p.size());
    xbar.post(m, t);
    EXPECT_TRUE(t.done.completed());
    t.done.wait(sim);  // returns immediately
    done_at = sim.now();
    EXPECT_TRUE(t.ok());
  });
  sim.run();
  EXPECT_EQ(done_at, 90_ns);  // same (1 + 8 beats) timing as transport()
  EXPECT_EQ(mem.writes(), 1u);
}

TEST(CamSplit, CrossbarSplitKeepsSameLaneFifo) {
  Simulator sim;
  CrossbarCam xbar(sim, "xbar", 10_ns, 8, SplitConfig{true, 4});
  ocp::MemorySlave mem("mem", 0, 0x1000);
  xbar.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = xbar.add_master("pe");
  std::vector<int> order;
  sim.spawn_thread("pe", [&] {
    std::vector<std::uint8_t> p(8, 1);
    Txn a, b;
    a.begin_write(0x00, p.data(), p.size());
    b.begin_write(0x40, p.data(), p.size());
    xbar.post(m, a);
    xbar.post(m, b);
    a.done.wait(sim);
    order.push_back(0);
    b.done.wait(sim);
    order.push_back(1);
    EXPECT_EQ(sim.now(), 40_ns);  // two serialized (1+1)-cycle writes
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// ------------------------------------------- phase-accurate stamping ----

// Atomic engine: address and data phases are fused into one occupancy
// wait, so rows carry grant == data; a second contending master's row
// shows its arbitration wait as queueing delay.
TEST(CamSplit, AtomicEngineStampsFusedPhasesAndQueueing) {
  Simulator sim;
  trace::TxnLogger log;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  bus.set_txn_logger(&log);
  ocp::MemorySlave mem("mem", 0, 0x1000);
  bus.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m0 = bus.add_master("a");
  const std::size_t m1 = bus.add_master("b");
  std::vector<std::uint8_t> p(64, 1);
  sim.spawn_thread("a", [&] {
    Txn t;
    t.begin_write(0, p.data(), p.size());
    bus.master_port(m0).transport(t);
  });
  sim.spawn_thread("b", [&] {
    Txn t;
    t.begin_write(0x100, p.data(), p.size());
    bus.master_port(m1).transport(t);
  });
  sim.run();

  // One row per transaction under the bus channel, tagged with the
  // issuing master.
  const auto rows = channel_rows(log, "plb");
  ASSERT_EQ(log.size(), 2u);
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(master_rows(log, "plb.a").size(), 1u);
  ASSERT_EQ(master_rows(log, "plb.b").size(), 1u);
  for (const auto& r : rows) {
    EXPECT_EQ(r.grant, r.data);               // fused phases
    EXPECT_LE(r.start, r.grant);
    EXPECT_LE(r.data, r.end);
    EXPECT_DOUBLE_EQ(r.queue_ns() + r.service_ns(), r.latency_ns());
  }
  // Priority master a granted at 0; b queued behind a's whole occupancy
  // (100 ns) and shows exactly that as queueing delay. b's own service
  // is the back-to-back 8-beat transfer (80 ns): its 180 ns end-to-end
  // latency is mostly queueing, which is precisely what the split
  // metrics exist to say.
  EXPECT_DOUBLE_EQ(rows[0].queue_ns(), 0.0);
  EXPECT_DOUBLE_EQ(rows[1].queue_ns(), 100.0);
  EXPECT_DOUBLE_EQ(rows[1].service_ns(), 80.0);
  // The row distribution separates service from end-to-end latency.
  const trace::LatencyDist d = trace::latency_dist(log.records());
  EXPECT_DOUBLE_EQ(d.mean_service_ns, 90.0);
  EXPECT_DOUBLE_EQ(d.mean_ns, 140.0);
}

// Split engine: the data-phase stamp diverges from the grant stamp, and
// with a slow target the completion order differs from the grant order
// (the OoO signature the one-row-per-transaction logger missed).
TEST(CamSplit, SplitEngineRowsDivergeGrantFromCompletion) {
  Simulator sim;
  trace::TxnLogger log;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>(), 0,
             SplitConfig{true, 4});
  bus.set_txn_logger(&log);
  // Two targets with very different service times on one split bus.
  ocp::MemorySlave slow("slow", 0x0000, 0x1000, 500_ns);
  ocp::MemorySlave fast("fast", 0x1000, 0x1000);
  bus.attach_slave(slow, {0x0000, 0x1000}, "slow");
  bus.attach_slave(fast, {0x1000, 0x1000}, "fast");
  const std::size_t m = bus.add_master("pe");
  std::vector<std::uint8_t> p(64, 1);
  sim.spawn_thread("pe", [&] {
    Txn a, b;
    a.begin_write(0x0000, p.data(), p.size());  // slow target, issued first
    b.begin_write(0x1000, p.data(), p.size());  // fast target, issued second
    bus.post(m, a);
    bus.post(m, b);
    a.done.wait(sim);
    b.done.wait(sim);
  });
  sim.run();

  const auto rows = channel_rows(log, "plb");
  ASSERT_EQ(rows.size(), 2u);
  // Completion order in the log: the fast write's row lands first even
  // though its grant came second.
  const auto& first_done = rows[0];
  const auto& second_done = rows[1];
  EXPECT_GT(first_done.grant, second_done.grant)
      << "completions did not reorder against grants - no OoO captured";
  for (const auto& r : rows) {
    EXPECT_LE(r.start, r.grant);
    EXPECT_LE(r.grant, r.data);  // data phase strictly after the address phase
    EXPECT_LE(r.data, r.end);
  }
  // The rows survive the CSV round trip with their phases and master
  // intact.
  std::ostringstream os;
  log.dump_csv(os);
  trace::TxnLogger back;
  std::istringstream is(os.str());
  back.load_csv(is);
  ASSERT_EQ(back.size(), log.size());
  const auto back_rows = channel_rows(back, "plb");
  ASSERT_EQ(back_rows.size(), 2u);
  EXPECT_EQ(back_rows[0].grant, first_done.grant);
  EXPECT_EQ(back_rows[1].data, second_done.data);
  EXPECT_EQ(master_rows(back, "plb.pe").size(), 2u);
}

// Every row any engine writes respects the phase order invariant — the
// same validation load_csv enforces, checked at the source across a
// saturated multi-master split run with posted windows.
TEST(CamSplit, SplitRunRowsRespectPhaseOrderInvariant) {
  Simulator sim;
  trace::TxnLogger log;
  PlbCam bus(sim, "plb", 10_ns, std::make_unique<RoundRobinArbiter>(), 0,
             SplitConfig{true, 4});
  bus.set_txn_logger(&log);
  ocp::MemorySlave mem("mem", 0, 1 << 20, 100_ns);
  bus.attach_slave(mem, {0, 1 << 20}, "mem");
  for (std::size_t m = 0; m < 3; ++m) {
    const std::size_t idx = bus.add_master("m" + std::to_string(m));
    sim.spawn_thread("pe" + std::to_string(m), [&, m, idx] {
      std::vector<std::uint8_t> payload(48, static_cast<std::uint8_t>(m));
      std::vector<Txn> window(4);
      for (int i = 0; i < 40; ++i) {
        Txn& t = window[static_cast<std::size_t>(i) % 4];
        if (i >= 4) t.done.wait(sim);
        t.begin_write((m << 12) + static_cast<std::uint64_t>(i % 8) * 64,
                      payload.data(), payload.size());
        bus.post(idx, t);
      }
      for (auto& t : window) t.done.wait(sim);
    });
  }
  sim.run();
  // 120 bus-channel rows, 40 per master.
  ASSERT_EQ(log.size(), 120u);
  const auto rows = channel_rows(log, "plb");
  ASSERT_EQ(rows.size(), 120u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(master_rows(log, "plb.m" + std::to_string(m)).size(), 40u);
  }
  std::size_t queued = 0;
  for (const auto& r : rows) {
    ASSERT_LE(r.start, r.grant);
    ASSERT_LE(r.grant, r.data);
    ASSERT_LE(r.data, r.end);
    if (r.queue_ns() > 0.0) ++queued;
  }
  EXPECT_GT(queued, 0u) << "a saturated split bus must show queueing";
}

// ---------------------------------------------- wrapper coalescing ----

TEST(CamSplit, CoalescedWrapperHalvesMailboxWritesAndStaysLossless) {
  auto run = [](bool coalesce) {
    Simulator sim;
    PlbCam bus(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
    MailboxLayout layout{0x4000, 256};
    ShipSlaveWrapper slave(sim, "ch.slave", layout);
    bus.attach_slave(slave, layout.range(), "ch");
    ShipMasterWrapper master(sim, "ch.master", bus, bus.add_master("pe"),
                             layout, 100_ns, coalesce);
    std::vector<std::uint8_t> payload(600);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 7);
    }
    std::vector<std::uint8_t> got;
    sim.spawn_thread("p", [&] {
      ship::VectorMsg<> m(payload);
      master.send(m);
    });
    sim.spawn_thread("c", [&] {
      ship::VectorMsg<> m;
      slave.recv(m);
      got = m.data;
    });
    sim.run();
    EXPECT_EQ(got, payload) << (coalesce ? "coalesced" : "plain");
    return std::make_pair(master.bus_transactions(), sim.now());
  };

  const auto [plain_txns, plain_time] = run(false);
  const auto [co_txns, co_time] = run(true);
  // Each chunk's DATA_IN + CTRL pair merges into one burst.
  EXPECT_EQ(co_txns * 2, plain_txns);
  // One bus setup instead of two per chunk: strictly faster.
  EXPECT_LT(co_time, plain_time);
}

// ------------------------------------------- platform-level plumbing ----

TEST(CamSplit, MapperPlumbsSplitKnobsAndSplitPlatformFinishesSooner) {
  using namespace stlm::core;
  using namespace stlm::expl;
  // A 4-stream producer/sink workload on PLB: the split platform
  // pipelines the wrappers' mailbox bursts against each other.
  auto factory = [](SystemGraph& g,
                    std::vector<std::unique_ptr<ProcessingElement>>& o) {
    for (int s = 0; s < 2; ++s) {
      auto p = std::make_unique<workload::ProducerPe>(
          "p" + std::to_string(s), 12, 256, 10);
      auto k = std::make_unique<workload::SinkPe>("s" + std::to_string(s), 12);
      g.add_pe(*p);
      g.add_pe(*k);
      g.connect("ch" + std::to_string(s), *p, "out", *k, "in", 2);
      o.push_back(std::move(p));
      o.push_back(std::move(k));
    }
  };
  const WorkloadCase wl{"", factory};
  Explorer ex;

  Platform atomic;
  atomic.name = "plb-atomic";
  Platform split = atomic;
  split.name = "plb-split4";
  split.split_txns = true;
  split.max_outstanding = 4;
  split.coalesce_bursts = true;

  const auto r_atomic = ex.evaluate(atomic, wl, 100_ms);
  const auto r_split = ex.evaluate(split, wl, 100_ms);
  ASSERT_TRUE(r_atomic.completed);
  ASSERT_TRUE(r_split.completed);
  EXPECT_LT(r_split.sim_time_us, r_atomic.sim_time_us);

  // And the guard the other way: split knobs at depth 1 are a no-op.
  Platform off = atomic;
  off.name = "plb-split-off";
  off.split_txns = true;
  off.max_outstanding = 1;
  const auto r_off = ex.evaluate(off, wl, 100_ms);
  EXPECT_EQ(r_off.sim_time_us, r_atomic.sim_time_us);
  EXPECT_EQ(r_off.transactions, r_atomic.transactions);
  EXPECT_EQ(r_off.bytes, r_atomic.bytes);
  EXPECT_EQ(r_off.mean_latency_ns, r_atomic.mean_latency_ns);
}
