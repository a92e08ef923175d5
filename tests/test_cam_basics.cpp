// Tests for address map, arbiters, and CAM decode/stat behaviour.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cam/cam.hpp"
#include "kernel/kernel.hpp"
#include "ocp/banked_memory.hpp"
#include "ocp/memory.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::cam;
using namespace stlm::time_literals;

TEST(AddressMap, DecodeAndOverlapRejection) {
  AddressMap m;
  EXPECT_EQ(m.add({0x1000, 0x100}, "a"), 0u);
  EXPECT_EQ(m.add({0x2000, 0x100}, "b"), 1u);
  EXPECT_EQ(m.decode(0x1000), std::optional<std::size_t>(0));
  EXPECT_EQ(m.decode(0x10ff), std::optional<std::size_t>(0));
  EXPECT_EQ(m.decode(0x2080, 0x80), std::optional<std::size_t>(1));
  EXPECT_EQ(m.decode(0x1100), std::nullopt);
  EXPECT_EQ(m.decode(0x10f0, 0x20), std::nullopt);  // straddles the end
  EXPECT_THROW(m.add({0x10f0, 0x20}, "c"), ElaborationError);
  EXPECT_THROW(m.add({0x1000, 0}, "d"), SimulationError);
}

TEST(AddressMap, FindFreeRespectsAlignmentAndGaps) {
  AddressMap m;
  m.add({0x0, 0x100}, "a");
  m.add({0x200, 0x100}, "b");
  EXPECT_EQ(m.find_free(0x80, 0x100), 0x100u);   // gap between a and b
  EXPECT_EQ(m.find_free(0x180, 0x100), 0x300u);  // too big for the gap
  EXPECT_EQ(m.find_free(0x10, 0x10, 0x250), 0x300u);
}

TEST(Arbiter, PriorityPrefersLowestIndex) {
  PriorityArbiter a;
  EXPECT_EQ(a.pick({false, true, true}, 0), 1);
  EXPECT_EQ(a.pick({true, true, true}, 5), 0);
  EXPECT_EQ(a.pick({false, false, false}, 0), -1);
}

TEST(Arbiter, RoundRobinRotates) {
  RoundRobinArbiter a;
  std::vector<bool> all{true, true, true};
  EXPECT_EQ(a.pick(all, 0), 1);  // starts after index 0
  EXPECT_EQ(a.pick(all, 0), 2);
  EXPECT_EQ(a.pick(all, 0), 0);
  EXPECT_EQ(a.pick(all, 0), 1);
  EXPECT_EQ(a.pick({true, false, false}, 0), 0);
  EXPECT_EQ(a.pick({false, false, false}, 0), -1);
}

TEST(Arbiter, TdmaOwnsSlotsWithReclamation) {
  TdmaArbiter a({0, 1}, /*slot_cycles=*/10);
  // Cycle 0-9: slot of master 0.
  EXPECT_EQ(a.pick({true, true}, 0), 0);
  // Cycle 10-19: slot of master 1.
  EXPECT_EQ(a.pick({true, true}, 10), 1);
  // Owner idle: reclaimed by the other master.
  EXPECT_EQ(a.pick({true, false}, 10), 0);
  EXPECT_THROW(TdmaArbiter({}, 10), SimulationError);
  EXPECT_THROW(TdmaArbiter({0}, 0), SimulationError);
}

TEST(Cam, DecodeErrorReturnsErrResponse) {
  Simulator sim;
  SharedBusCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0x1000, 0x100);
  bus.attach_slave(mem, {0x1000, 0x100}, "mem");
  const std::size_t m = bus.add_master("pe");
  ocp::RespCode got = ocp::RespCode::Null;
  sim.spawn_thread("pe", [&] {
    got = bus.master_port(m).transport(ocp::Request::read(0x9000, 4)).resp;
  });
  sim.run();
  EXPECT_EQ(got, ocp::RespCode::Err);
  EXPECT_EQ(bus.stats().counter("decode_errors"), 1u);
}

// Every bus answers an unmapped access through the core's completion
// point: one error row, counted as a transaction and a decode error, in
// atomic (blocking transport) and split (posted) mode alike. The
// crossbar holds no lane for it, so its row completes at issue time.
TEST(CamIf, DecodeErrorLogsOneErrorRowOnEveryBus) {
  struct Case {
    const char* name;
    bool crossbar;
    bool posted;
  };
  for (const Case c : {Case{"shared-atomic", false, false},
                       Case{"plb-split2-posted", false, true},
                       Case{"xbar-atomic", true, false},
                       Case{"xbar-split2-posted", true, true}}) {
    SCOPED_TRACE(c.name);
    Simulator sim;
    const SplitConfig split{c.posted, c.posted ? 2u : 1u};
    std::unique_ptr<CamIf> bus;
    if (c.crossbar) {
      bus = std::make_unique<CrossbarCam>(sim, "bus", 10_ns, 8, split);
    } else if (c.posted) {
      bus = std::make_unique<PlbCam>(
          sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0, split);
    } else {
      bus = std::make_unique<SharedBusCam>(
          sim, "bus", 10_ns, std::make_unique<PriorityArbiter>());
    }
    trace::TxnLogger log;
    bus->set_txn_logger(&log);
    ocp::MemorySlave mem("mem", 0x1000, 0x100);
    bus->attach_slave(mem, {0x1000, 0x100}, "mem");
    const std::size_t m = bus->add_master("pe");
    Txn txn;
    sim.spawn_thread("pe", [&] {
      wait(30_ns);  // issue off time zero, so a zero stamp would show
      txn.begin_read(0x9000, 4);
      if (c.posted) {
        bus->post(m, txn);
        txn.done.wait(sim);
      } else {
        bus->master_port(m).transport(txn);
      }
    });
    sim.run();
    EXPECT_EQ(txn.status, Txn::Status::Error);
    EXPECT_EQ(bus->stats().counter("transactions"), 1u);
    EXPECT_EQ(bus->stats().counter("decode_errors"), 1u);
    EXPECT_EQ(log.size(), 1u);
    if (log.size() != 1u) continue;
    const trace::TxnRecord& row = log.records()[0];
    EXPECT_EQ(row.status, trace::TxnStatus::Error);
    EXPECT_EQ(log.channel_name(row.master), "bus.pe");
    EXPECT_EQ(row.start, 30_ns);
    EXPECT_LE(row.start, row.grant);
    EXPECT_LE(row.grant, row.data);
    EXPECT_LE(row.data, row.end);
    if (c.crossbar) {
      EXPECT_EQ(row.end, row.start);
    }
  }
}

TEST(Cam, SharedBusTimingIsCycleAccurateAtBoundary) {
  Simulator sim;
  SharedBusCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x1000);
  bus.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = bus.add_master("pe");
  Time done;
  sim.spawn_thread("pe", [&] {
    // 8 bytes = 2 beats (32-bit): 2 + 2 + 1 = 5 cycles = 50 ns.
    bus.master_port(m).transport(ocp::Request::read(0, 8));
    done = sim.now();
  });
  sim.run();
  EXPECT_EQ(done, 50_ns);
}

TEST(Cam, PlbWiderBusNeedsFewerBeats) {
  Simulator sim;
  PlbCam plb(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x1000);
  plb.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = plb.add_master("pe");
  Time done;
  sim.spawn_thread("pe", [&] {
    // 64 bytes on a 64-bit bus = 8 beats; +2 setup = 10 cycles = 100 ns.
    plb.master_port(m).transport(
        ocp::Request::write(0, std::vector<std::uint8_t>(64, 1)));
    done = sim.now();
  });
  sim.run();
  EXPECT_EQ(done, 100_ns);
}

TEST(Cam, PlbPipeliningHidesSetupWhenBackToBack) {
  Simulator sim;
  PlbCam plb(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x1000);
  plb.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m0 = plb.add_master("pe0");
  const std::size_t m1 = plb.add_master("pe1");
  std::vector<Time> done(2);
  // Both issue at t=0; the second grant is back-to-back and loses the
  // 2-cycle setup: total = (2+1) + 1 = 4 cycles, not 6.
  sim.spawn_thread("pe0", [&] {
    plb.master_port(m0).transport(ocp::Request::write(0, {1, 2, 3, 4}));
    done[0] = sim.now();
  });
  sim.spawn_thread("pe1", [&] {
    plb.master_port(m1).transport(ocp::Request::write(8, {1, 2, 3, 4}));
    done[1] = sim.now();
  });
  sim.run();
  EXPECT_EQ(done[0], 30_ns);
  EXPECT_EQ(done[1], 40_ns);
}

TEST(Cam, OpbSlowerThanPlbForSamePayload) {
  Simulator sim;
  PlbCam plb(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  OpbCam opb(sim, "opb", 20_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem_a("a", 0, 0x1000), mem_b("b", 0, 0x1000);
  plb.attach_slave(mem_a, {0, 0x1000}, "a");
  opb.attach_slave(mem_b, {0, 0x1000}, "b");
  const std::size_t mp = plb.add_master("pe");
  const std::size_t mo = opb.add_master("pe");
  Time t_plb, t_opb;
  sim.spawn_thread("pe", [&] {
    Time s = sim.now();
    plb.master_port(mp).transport(
        ocp::Request::write(0, std::vector<std::uint8_t>(32, 1)));
    t_plb = sim.now() - s;
    s = sim.now();
    opb.master_port(mo).transport(
        ocp::Request::write(0, std::vector<std::uint8_t>(32, 1)));
    t_opb = sim.now() - s;
  });
  sim.run();
  EXPECT_LT(t_plb, t_opb);
  // PLB: (2+4)*10 = 60 ns; OPB: (2+2*8)*20 = 360 ns.
  EXPECT_EQ(t_plb, 60_ns);
  EXPECT_EQ(t_opb, 360_ns);
}

TEST(Cam, PriorityArbitrationStarvesLowPriorityUnderLoad) {
  Simulator sim;
  SharedBusCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x10000);
  bus.attach_slave(mem, {0, 0x10000}, "mem");
  const std::size_t hi = bus.add_master("hi");
  const std::size_t lo = bus.add_master("lo");
  int hi_done = 0, lo_done = 0;
  sim.spawn_thread("hi", [&] {
    for (int i = 0; i < 50; ++i) {
      bus.master_port(hi).transport(ocp::Request::write(0, {1, 2, 3, 4}));
      ++hi_done;
    }
  });
  sim.spawn_thread("lo", [&] {
    for (int i = 0; i < 50; ++i) {
      bus.master_port(lo).transport(ocp::Request::write(64, {1, 2, 3, 4}));
      ++lo_done;
    }
  });
  sim.run_for(25 * 40_ns + 5_ns);  // enough for ~25 single-beat txns
  EXPECT_GT(hi_done, lo_done);    // priority master dominates
}

TEST(Cam, RoundRobinIsFair) {
  Simulator sim;
  SharedBusCam bus(sim, "bus", 10_ns, std::make_unique<RoundRobinArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x10000);
  bus.attach_slave(mem, {0, 0x10000}, "mem");
  const std::size_t a = bus.add_master("a");
  const std::size_t b = bus.add_master("b");
  int a_done = 0, b_done = 0;
  sim.spawn_thread("a", [&] {
    for (int i = 0; i < 100; ++i) {
      bus.master_port(a).transport(ocp::Request::write(0, {1, 2, 3, 4}));
      ++a_done;
    }
  });
  sim.spawn_thread("b", [&] {
    for (int i = 0; i < 100; ++i) {
      bus.master_port(b).transport(ocp::Request::write(64, {1, 2, 3, 4}));
      ++b_done;
    }
  });
  sim.run_for(20 * 40_ns);
  EXPECT_NEAR(a_done, b_done, 1);
}

TEST(Cam, CrossbarParallelLanesOutperformSharedBus) {
  // Two masters hitting two different slaves: crossbar should overlap.
  Simulator sim;
  CrossbarCam xbar(sim, "xbar", 10_ns);
  ocp::MemorySlave mem0("m0", 0x0000, 0x1000), mem1("m1", 0x1000, 0x1000);
  xbar.attach_slave(mem0, {0x0000, 0x1000}, "m0");
  xbar.attach_slave(mem1, {0x1000, 0x1000}, "m1");
  const std::size_t a = xbar.add_master("a");
  const std::size_t b = xbar.add_master("b");
  std::vector<Time> done(2);
  sim.spawn_thread("a", [&] {
    xbar.master_port(a).transport(
        ocp::Request::write(0x0000, std::vector<std::uint8_t>(64, 1)));
    done[0] = sim.now();
  });
  sim.spawn_thread("b", [&] {
    xbar.master_port(b).transport(
        ocp::Request::write(0x1000, std::vector<std::uint8_t>(64, 1)));
    done[1] = sim.now();
  });
  sim.run();
  // Both complete at the same time: (1 + 8 beats) * 10 ns = 90 ns.
  EXPECT_EQ(done[0], 90_ns);
  EXPECT_EQ(done[1], 90_ns);
}

// Crossbar counters: the two lanes complete concurrently and bump the
// same integer counters, which commute, so under either dispatch order
// the counters match the row groups of the bus and of each master.
TEST(Cam, CrossbarCountersMatchRowGroups) {
  for (const DispatchOrder order :
       {DispatchOrder::Fifo, DispatchOrder::Reverse}) {
    Simulator sim;
    sim.set_dispatch_order(order);
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
        t.begin_write((1 << 12) + static_cast<std::uint64_t>(i) * 64,
                      p.data(), p.size());
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
  }
}

TEST(Cam, CrossbarSameLaneSerializes) {
  Simulator sim;
  CrossbarCam xbar(sim, "xbar", 10_ns);
  ocp::MemorySlave mem0("m0", 0x0000, 0x1000);
  xbar.attach_slave(mem0, {0x0000, 0x1000}, "m0");
  const std::size_t a = xbar.add_master("a");
  const std::size_t b = xbar.add_master("b");
  std::vector<Time> done(2);
  sim.spawn_thread("a", [&] {
    xbar.master_port(a).transport(
        ocp::Request::write(0x0000, std::vector<std::uint8_t>(64, 1)));
    done[0] = sim.now();
  });
  sim.spawn_thread("b", [&] {
    xbar.master_port(b).transport(
        ocp::Request::write(0x0100, std::vector<std::uint8_t>(64, 1)));
    done[1] = sim.now();
  });
  sim.run();
  EXPECT_EQ(done[0], 90_ns);
  EXPECT_EQ(done[1], 180_ns);
}

TEST(Cam, BridgeForwardsToDownstreamBus) {
  Simulator sim;
  PlbCam plb(sim, "plb", 10_ns, std::make_unique<PriorityArbiter>());
  OpbCam opb(sim, "opb", 20_ns, std::make_unique<PriorityArbiter>());
  trace::TxnLogger log;
  plb.set_txn_logger(&log);
  opb.set_txn_logger(&log);
  ocp::MemorySlave fast("fast", 0x0000, 0x1000);
  ocp::MemorySlave slow("slow", 0x8000, 0x1000);
  plb.attach_slave(fast, {0x0000, 0x1000}, "fast");
  opb.attach_slave(slow, {0x8000, 0x1000}, "slow");
  BusBridge bridge(sim, "bridge", opb, /*crossing_cycles=*/2);
  plb.attach_slave(bridge, {0x8000, 0x1000}, "bridge");
  const std::size_t m = plb.add_master("cpu");
  bool ok = false;
  sim.spawn_thread("cpu", [&] {
    plb.master_port(m).transport(
        ocp::Request::write(0x8010, {0xaa, 0xbb, 0xcc, 0xdd}));
    auto rd = plb.master_port(m).transport(ocp::Request::read(0x8010, 4));
    ok = rd.good() && rd.data == std::vector<std::uint8_t>{0xaa, 0xbb, 0xcc, 0xdd};
  });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(bridge.forwarded(), 2u);
  EXPECT_EQ(slow.writes(), 1u);

  // Both hops of one bridged access log under the same transaction id,
  // and the OPB hop lies inside the PLB row that waits on it.
  std::vector<trace::TxnRecord> plb_rows;
  std::vector<trace::TxnRecord> opb_rows;
  for (const auto& r : log.records()) {
    (log.channel_name(r.channel) == "plb" ? plb_rows : opb_rows).push_back(r);
  }
  ASSERT_EQ(plb_rows.size(), 2u);
  ASSERT_EQ(opb_rows.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(log.channel_name(opb_rows[i].channel), "opb");
    EXPECT_EQ(opb_rows[i].txn, plb_rows[i].txn);
    EXPECT_GE(opb_rows[i].start, plb_rows[i].start);
    EXPECT_LE(opb_rows[i].end, plb_rows[i].end);
    EXPECT_LT(opb_rows[i].start, opb_rows[i].end);
  }
}

TEST(Cam, SplitPlbPostsThroughTheBridgeConcurrently) {
  // Two masters keep four writes (then four reads) each in flight on a
  // split PLB, all into OPB space, so several service workers forward
  // through the bridge at once — each on a pooled descriptor of its own.
  Simulator sim;
  PlbCam plb(sim, "plb", 10_ns, std::make_unique<RoundRobinArbiter>(), 0,
             SplitConfig{true, 4});
  OpbCam opb(sim, "opb", 20_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave slow("slow", 0x8000, 0x1000);
  opb.attach_slave(slow, {0x8000, 0x1000}, "slow");
  BusBridge bridge(sim, "bridge", opb, 2);
  plb.attach_slave(bridge, {0x8000, 0x1000}, "bridge");
  constexpr std::size_t kWindow = 4;
  constexpr int kRounds = 6;
  std::uint64_t created_warm = 0;
  int mismatches = 0;
  int errors = 0;
  for (std::size_t pe = 0; pe < 2; ++pe) {
    const std::size_t m = plb.add_master("pe" + std::to_string(pe));
    sim.spawn_thread("pe" + std::to_string(pe), [&, m, pe] {
      Txn txns[kWindow];
      for (int round = 0; round < kRounds; ++round) {
        auto addr = [&](std::size_t k) {
          return 0x8000 + 0x100 * pe + 0x10 * k;
        };
        auto pattern = [&](std::size_t k) {
          return std::vector<std::uint8_t>(
              8, static_cast<std::uint8_t>(round * 16 + pe * 8 + k));
        };
        for (std::size_t k = 0; k < kWindow; ++k) {
          const auto bytes = pattern(k);
          txns[k].begin_write(addr(k), bytes.data(), bytes.size());
          plb.post(m, txns[k]);
        }
        for (Txn& t : txns) {
          t.done.wait(sim);
          if (!t.ok()) ++errors;
        }
        for (std::size_t k = 0; k < kWindow; ++k) {
          txns[k].begin_read(addr(k), 8);
          plb.post(m, txns[k]);
        }
        for (std::size_t k = 0; k < kWindow; ++k) {
          txns[k].done.wait(sim);
          if (!txns[k].ok()) ++errors;
          if (txns[k].resp_data != pattern(k)) ++mismatches;
        }
        if (pe == 0 && round == 0) created_warm = sim.txn_pool().created();
      }
    });
  }
  sim.run();
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(bridge.forwarded(), 2u * kRounds * 2 * kWindow);
  EXPECT_EQ(opb.stats().counter("transactions"), bridge.forwarded());
  // Warm after the first round: forwarding recycles descriptors, at most
  // one per PLB service worker.
  EXPECT_GT(created_warm, 0u);
  EXPECT_LE(created_warm, 2 * kWindow);
  EXPECT_EQ(sim.txn_pool().created(), created_warm);
  EXPECT_EQ(sim.txn_pool().outstanding(), 0u);
}

// ------------------------------------------------------- access point ----

namespace {

enum class BusKind { Shared, Plb, PlbFast, Opb, Xbar, PlbSplit4, XbarSplit4 };

struct BusCase {
  const char* name;
  BusKind kind;
};

constexpr BusCase kBusCases[] = {
    {"shared", BusKind::Shared},         {"plb", BusKind::Plb},
    {"plb-fast", BusKind::PlbFast},      {"opb", BusKind::Opb},
    {"crossbar", BusKind::Xbar},         {"plb-split4", BusKind::PlbSplit4},
    {"crossbar-split4", BusKind::XbarSplit4}};

std::unique_ptr<CamIf> make_bus(Simulator& sim, BusKind kind) {
  const SplitConfig split4{true, 4};
  switch (kind) {
    case BusKind::Shared:
      return std::make_unique<SharedBusCam>(
          sim, "bus", 10_ns, std::make_unique<PriorityArbiter>());
    case BusKind::Plb:
      return std::make_unique<PlbCam>(sim, "bus", 10_ns,
                                      std::make_unique<PriorityArbiter>());
    case BusKind::PlbFast:
      return std::make_unique<PlbCam>(sim, "bus", 10_ns,
                                      std::make_unique<PriorityArbiter>(), 0,
                                      SplitConfig{}, /*fast_targets=*/true);
    case BusKind::Opb:
      return std::make_unique<OpbCam>(sim, "bus", 10_ns,
                                      std::make_unique<PriorityArbiter>());
    case BusKind::Xbar:
      return std::make_unique<CrossbarCam>(sim, "bus", 10_ns);
    case BusKind::PlbSplit4:
      return std::make_unique<PlbCam>(
          sim, "bus", 10_ns, std::make_unique<PriorityArbiter>(), 0, split4);
    case BusKind::XbarSplit4:
      return std::make_unique<CrossbarCam>(sim, "bus", 10_ns, 8, split4);
  }
  return nullptr;
}

}  // namespace

TEST(CamIf, BlockingInitiatorReadsTheStampsOfItsRow) {
  for (const BusCase& c : kBusCases) {
    SCOPED_TRACE(c.name);
    Simulator sim;
    std::unique_ptr<CamIf> bus = make_bus(sim, c.kind);
    trace::TxnLogger log;
    bus->set_txn_logger(&log);
    ocp::MemorySlave mem("mem", 0x1000, 0x100);
    bus->attach_slave(mem, {0x1000, 0x100}, "mem");
    const std::size_t m = bus->add_master("pe");
    struct Stamps {
      Time enqueued, grant, data, complete;
      bool completed;
    };
    std::vector<Stamps> seen;
    sim.spawn_thread("pe", [&] {
      wait(30_ns);  // issue off time zero, so a zero stamp would show
      Txn txn;
      const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      txn.begin_write(0x1000, bytes, sizeof bytes);
      bus->master_port(m).transport(txn);
      seen.push_back({txn.enqueued, txn.t_grant, txn.t_data, txn.t_complete,
                      txn.done.completed()});
      wait(20_ns);
      txn.begin_read(0x1000, 8);
      bus->master_port(m).transport(txn);
      seen.push_back({txn.enqueued, txn.t_grant, txn.t_data, txn.t_complete,
                      txn.done.completed()});
    });
    sim.run();
    ASSERT_EQ(log.size(), 2u);
    ASSERT_EQ(seen.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      SCOPED_TRACE(i);
      const trace::TxnRecord& row = log.records()[i];
      EXPECT_EQ(seen[i].enqueued, row.start);
      EXPECT_EQ(seen[i].grant, row.grant);
      EXPECT_EQ(seen[i].data, row.data);
      EXPECT_EQ(seen[i].complete, row.end);
      EXPECT_TRUE(seen[i].completed);
      EXPECT_LT(row.start, row.end);
    }
    EXPECT_EQ(log.records()[0].start, 30_ns);
  }
}

TEST(CamIf, AccessPointReArmsACompletedDescriptor) {
  // Re-issuing a completed descriptor without begin_*() waits for the
  // new completion, through transport() and through post() + wait.
  for (const BusCase& c : kBusCases) {
    SCOPED_TRACE(c.name);
    Simulator sim;
    std::unique_ptr<CamIf> bus = make_bus(sim, c.kind);
    trace::TxnLogger log;
    bus->set_txn_logger(&log);
    ocp::MemorySlave mem("mem", 0x1000, 0x100);
    bus->attach_slave(mem, {0x1000, 0x100}, "mem");
    const std::size_t m = bus->add_master("pe");
    Time reissue_start, reissue_end, post_start, post_end;
    sim.spawn_thread("pe", [&] {
      Txn txn;
      const std::uint8_t bytes[4] = {9, 8, 7, 6};
      txn.begin_write(0x1000, bytes, sizeof bytes);
      bus->master_port(m).transport(txn);
      reissue_start = sim.now();
      bus->master_port(m).transport(txn);
      reissue_end = sim.now();
      wait(50_ns);
      post_start = sim.now();
      bus->post(m, txn);
      txn.done.wait(sim);
      post_end = sim.now();
    });
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    const trace::TxnRecord& reissue = log.records()[1];
    const trace::TxnRecord& posted = log.records()[2];
    EXPECT_EQ(reissue.start, reissue_start);
    EXPECT_EQ(reissue.end, reissue_end);
    EXPECT_LT(reissue_start, reissue_end);
    EXPECT_EQ(posted.start, post_start);
    EXPECT_EQ(posted.end, post_end);
    EXPECT_LT(post_start, post_end);
    // Back to back on the PLB the setup cycles hide: one 8-byte beat.
    if (c.kind == BusKind::Plb) {
      EXPECT_EQ(reissue_end - reissue_start, 10_ns);
    }
  }
}

TEST(Cam, UtilizationAccountsBusyCycles) {
  Simulator sim;
  SharedBusCam bus(sim, "bus", 10_ns, std::make_unique<PriorityArbiter>());
  ocp::MemorySlave mem("mem", 0, 0x1000);
  bus.attach_slave(mem, {0, 0x1000}, "mem");
  const std::size_t m = bus.add_master("pe");
  sim.spawn_thread("pe", [&] {
    bus.master_port(m).transport(ocp::Request::write(0, {1, 2, 3, 4}));  // 40 ns
    wait(60_ns);  // idle
  });
  sim.run();
  EXPECT_NEAR(bus.utilization(), 0.4, 1e-9);
}
