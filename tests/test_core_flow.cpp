// Tests for the design flow: system graph, role discovery, and the
// automatic mapper at all three abstraction levels. The central property
// is the paper's promise — identical PE code and identical results at
// every level, with timing refined underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>

#include "core/core.hpp"
#include "kernel/kernel.hpp"
#include "trace/channel_stats.hpp"
#include "workload/generators.hpp"
#include "workload/memory_traffic.hpp"

using namespace stlm;
using namespace stlm::core;
using namespace stlm::time_literals;

namespace {

// Producer -> consumer graph with a request/reply service on the side.
struct TestSystem {
  std::vector<std::unique_ptr<ProcessingElement>> owned;
  SystemGraph graph;
  workload::SinkPe* sink = nullptr;

  explicit TestSystem(std::uint64_t messages = 16,
                      std::size_t payload = 64) {
    auto prod = std::make_unique<workload::ProducerPe>(
        "prod", messages, payload, /*compute=*/10);
    auto snk = std::make_unique<workload::SinkPe>("sink", messages);
    sink = snk.get();
    graph.add_pe(*prod);
    graph.add_pe(*snk);
    graph.connect("stream", *prod, "out", *snk, "in", /*depth=*/2);
    owned.push_back(std::move(prod));
    owned.push_back(std::move(snk));
  }
};

// Two independent producer -> sink streams: at CAM level each producer
// drives the bus through its own master.
struct TwoStreams {
  std::vector<std::unique_ptr<ProcessingElement>> owned;
  SystemGraph graph;

  TwoStreams() {
    for (const char* id : {"0", "1"}) {
      auto prod = std::make_unique<workload::ProducerPe>(
          std::string("prod") + id, 12, 48, /*compute=*/10);
      auto snk =
          std::make_unique<workload::SinkPe>(std::string("sink") + id, 12);
      graph.add_pe(*prod);
      graph.add_pe(*snk);
      graph.connect(std::string("stream") + id, *prod, "out", *snk, "in", 2);
      owned.push_back(std::move(prod));
      owned.push_back(std::move(snk));
    }
    graph.discover_roles();
  }
};

// Atomic PLB, split PLB (4 outstanding) and crossbar platforms.
std::vector<Platform> bus_platforms() {
  Platform plb;
  Platform split = plb;
  split.name = "plb-split4";
  split.split_txns = true;
  split.max_outstanding = 4;
  Platform xbar;
  xbar.name = "crossbar";
  xbar.bus = BusKind::Crossbar;
  return {plb, split, xbar};
}

}  // namespace

TEST(SystemGraph, RegistrationAndPartitioning) {
  LambdaPe a("a", [](ExecContext&) {});
  LambdaPe b("b", [](ExecContext&) {});
  SystemGraph g;
  g.add_pe(a);
  g.add_pe(b, Partition::Software);
  EXPECT_EQ(g.partition(a), Partition::Hardware);
  EXPECT_EQ(g.partition(b), Partition::Software);
  g.set_partition(a, Partition::Software);
  EXPECT_EQ(g.partition(a), Partition::Software);
  g.connect("c", a, b);
  EXPECT_EQ(g.channels().size(), 1u);
  EXPECT_THROW(g.connect("c", a, b), SimulationError);  // duplicate name
  EXPECT_THROW(g.connect("d", a, a), SimulationError);  // self loop
}

TEST(SystemGraph, RoleDiscoveryFindsMasterSlave) {
  TestSystem sys;
  EXPECT_FALSE(sys.graph.roles_known());
  sys.graph.discover_roles();
  EXPECT_TRUE(sys.graph.roles_known());
  // Producer (terminal a) sends: it is the master.
  EXPECT_EQ(sys.graph.channels()[0].role_a, ship::Role::Master);
}

TEST(SystemGraph, DiscoveryFailsForSilentChannel) {
  LambdaPe a("a", [](ExecContext&) {});
  LambdaPe b("b", [](ExecContext&) {});
  SystemGraph g;
  g.add_pe(a);
  g.add_pe(b);
  g.connect("silent", a, b);
  EXPECT_THROW(g.discover_roles(1_us), ElaborationError);
}

TEST(SystemGraph, DiscoveryRejectsTwoMastersOrTwoSlaves) {
  // Both terminals latching one role is no channel any CAM can carry:
  // discovery must say so, naming the channel, instead of mapping it.
  const std::function<void(ExecContext&)> sender = [](ExecContext& ctx) {
    const ship::PodMsg<int> m(1);
    for (int i = 0; i < 2; ++i) ctx.channel("p").send(m);
  };
  const std::function<void(ExecContext&)> receiver = [](ExecContext& ctx) {
    ship::PodMsg<int> m;
    ctx.channel("p").recv(m);
  };
  for (const auto* body : {&sender, &receiver}) {
    LambdaPe a("a", *body);
    LambdaPe b("b", *body);
    SystemGraph g;
    g.add_pe(a);
    g.add_pe(b);
    g.connect("twin", a, "p", b, "p");
    try {
      g.discover_roles();
      ADD_FAILURE() << "discovery accepted role_a="
                    << ship::role_name(g.channels()[0].role_a);
    } catch (const ElaborationError& e) {
      EXPECT_NE(std::string(e.what()).find("'twin'"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Mapper, SwSwChannelKeepsAQueueDepthBeyondInt) {
  // A SW/SW channel runs on an RTOS queue; its depth must reach the
  // queue unnarrowed. Any depth of at least the message count runs as
  // unbounded.
  auto finish = [](std::size_t depth) {
    workload::ProducerPe prod("prod", 3, 16);
    workload::SinkPe sink("sink", 3);
    SystemGraph g;
    g.add_pe(prod, Partition::Software);
    g.add_pe(sink, Partition::Software);
    g.connect("ch", prod, "out", sink, "in", depth, ship::Role::Master);
    Simulator sim;
    auto ms = Mapper::map(sim, g, Platform{}, AbstractionLevel::Cam);
    EXPECT_TRUE(ms->run_until_done(1_ms)) << "depth " << depth;
    EXPECT_EQ(sink.received(), 3u) << "depth " << depth;
    return sim.now();
  };
  const Time unbounded = finish(3);
  EXPECT_EQ(finish(std::size_t{1} << 32), unbounded);
  EXPECT_EQ(finish((std::size_t{1} << 32) + 1), unbounded);
}

TEST(Mapper, ComponentAssemblyRunsUntimed) {
  TestSystem sys;
  Simulator sim;
  auto ms = Mapper::map(sim, sys.graph, Platform{},
                        AbstractionLevel::ComponentAssembly);
  EXPECT_TRUE(ms->run_until_done(1_ms));
  EXPECT_EQ(sys.sink->received(), 16u);
  // Untimed communication, but PE compute still advances time.
  EXPECT_GT(sim.now(), 0_ns);
}

TEST(Mapper, CcatbChargesCommunicationTime) {
  TestSystem ca_sys, ccatb_sys;
  Simulator sim_ca, sim_ccatb;
  auto ca = Mapper::map(sim_ca, ca_sys.graph, Platform{},
                        AbstractionLevel::ComponentAssembly);
  auto cc = Mapper::map(sim_ccatb, ccatb_sys.graph, Platform{},
                        AbstractionLevel::Ccatb);
  ASSERT_TRUE(ca->run_until_done(10_ms));
  ASSERT_TRUE(cc->run_until_done(10_ms));
  EXPECT_EQ(ca_sys.sink->received(), 16u);
  EXPECT_EQ(ccatb_sys.sink->received(), 16u);
  // Same results, more simulated time at the lower level.
  EXPECT_GT(sim_ccatb.now(), sim_ca.now());
}

TEST(Mapper, CamLevelRequiresRoles) {
  TestSystem sys;
  Simulator sim;
  EXPECT_THROW(Mapper::map(sim, sys.graph, Platform{}, AbstractionLevel::Cam),
               ElaborationError);
}

TEST(Mapper, CamLevelHwHwViaWrappers) {
  TestSystem sys;
  sys.graph.discover_roles();
  Simulator sim;
  auto ms = Mapper::map(sim, sys.graph, Platform{}, AbstractionLevel::Cam);
  ASSERT_TRUE(ms->run_until_done(10_ms));
  EXPECT_EQ(sys.sink->received(), 16u);
  ASSERT_NE(ms->bus(), nullptr);
  EXPECT_GT(ms->bus()->stats().counter("transactions"), 0u);
  // CAM level must be slower than CCATB for the same workload.
  TestSystem ref;
  Simulator sim_ref;
  auto cc = Mapper::map(sim_ref, ref.graph, Platform{}, AbstractionLevel::Ccatb);
  ASSERT_TRUE(cc->run_until_done(10_ms));
  EXPECT_GT(sim.now(), sim_ref.now());
}

TEST(Mapper, CamLevelHwSwViaAdapterAndDriver) {
  TestSystem sys(8, 32);
  sys.graph.set_partition(*sys.graph.pes()[0], Partition::Software);  // prod
  sys.graph.discover_roles();
  Simulator sim;
  auto ms = Mapper::map(sim, sys.graph, Platform{}, AbstractionLevel::Cam);
  ASSERT_TRUE(ms->run_until_done(50_ms));
  EXPECT_EQ(sys.sink->received(), 8u);
  ASSERT_NE(ms->cpu_model(), nullptr);
  ASSERT_NE(ms->os(), nullptr);
  EXPECT_GT(ms->cpu_model()->bus_transactions(), 0u);
}

// A HW/SW cell schedules nothing once its workload is done: the run
// stops at the last PE's return, and what that stop left queued (the
// RTOS scheduler's delta wake-up after a task returned) drains without
// moving simulated time. Rows report the true sim_time_us.
TEST(Mapper, HwSwCellGoesIdleWhenItsWorkloadCompletes) {
  for (std::size_t sw_pe : {0u, 1u}) {  // software producer, then sink
    TestSystem sys(8, 32);
    sys.graph.set_partition(*sys.graph.pes()[sw_pe], Partition::Software);
    sys.graph.discover_roles();
    Simulator sim;
    auto ms = Mapper::map(sim, sys.graph, Platform{}, AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(50_ms)) << "software pe " << sw_pe;
    EXPECT_EQ(sys.sink->received(), 8u);
    const Time done_at = sim.now();
    sim.run();
    EXPECT_EQ(sim.now(), done_at) << "software pe " << sw_pe;
    EXPECT_TRUE(sim.idle()) << "software pe " << sw_pe;
  }
}

// A zero-byte mailbox window cannot carry a chunk: the driver's push
// would commit empty chunks forever. Mapping rejects it up front.
TEST(Mapper, HwSwRejectsAMailboxWindowBelowOneWord) {
  TestSystem sys(8, 32);
  sys.graph.set_partition(*sys.graph.pes()[0], Partition::Software);
  sys.graph.discover_roles();
  Platform p;
  p.mailbox_window = 0;
  Simulator sim;
  EXPECT_THROW(Mapper::map(sim, sys.graph, p, AbstractionLevel::Cam),
               SimulationError);
}

TEST(Mapper, CamLevelSwSwViaRtosQueues) {
  TestSystem sys(8, 32);
  sys.graph.set_partition(*sys.graph.pes()[0], Partition::Software);
  sys.graph.set_partition(*sys.graph.pes()[1], Partition::Software);
  sys.graph.discover_roles();
  Simulator sim;
  auto ms = Mapper::map(sim, sys.graph, Platform{}, AbstractionLevel::Cam);
  ASSERT_TRUE(ms->run_until_done(50_ms));
  EXPECT_EQ(sys.sink->received(), 8u);
  // SW-local channel: the bus must carry no mailbox traffic.
  EXPECT_EQ(ms->bus()->stats().counter("transactions"), 0u);
}

TEST(Mapper, RequestReplyWorksAtEveryLevel) {
  for (auto level : {AbstractionLevel::ComponentAssembly,
                     AbstractionLevel::Ccatb, AbstractionLevel::Cam}) {
    std::vector<std::unique_ptr<ProcessingElement>> owned;
    SystemGraph g;
    auto req = std::make_unique<workload::RequesterPe>("req", 6, 16);
    auto srv = std::make_unique<workload::EchoServerPe>("srv", 6, 5);
    g.add_pe(*req);
    g.add_pe(*srv);
    g.connect("rpc", *req, "out", *srv, "in");
    owned.push_back(std::move(req));
    owned.push_back(std::move(srv));
    g.discover_roles();
    Simulator sim;
    auto ms = Mapper::map(sim, g, Platform{}, level);
    EXPECT_TRUE(ms->run_until_done(50_ms)) << level_name(level);
  }
}

TEST(Mapper, ReportMentionsMappingDecisions) {
  TestSystem sys;
  sys.graph.set_partition(*sys.graph.pes()[0], Partition::Software);
  sys.graph.discover_roles();
  Simulator sim;
  auto ms = Mapper::map(sim, sys.graph, Platform{}, AbstractionLevel::Cam);
  ms->run_until_done(50_ms);
  std::ostringstream os;
  ms->report(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("HW/SW interface"), std::string::npos);
  EXPECT_NE(text.find("eSW task"), std::string::npos);
}

// Property: the pipeline result is identical at all three levels for
// several payload sizes (refinement preserves function).
class LevelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LevelEquivalence, SinkReceivesAllMessages) {
  for (auto level : {AbstractionLevel::ComponentAssembly,
                     AbstractionLevel::Ccatb, AbstractionLevel::Cam}) {
    TestSystem sys(12, GetParam());
    sys.graph.discover_roles();
    Simulator sim;
    auto ms = Mapper::map(sim, sys.graph, Platform{}, level);
    ASSERT_TRUE(ms->run_until_done(100_ms))
        << level_name(level) << " payload " << GetParam();
    EXPECT_EQ(sys.sink->received(), 12u);
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, LevelEquivalence,
                         ::testing::Values(4u, 64u, 300u, 1024u));

// The log holds one row per bus transaction: its summary agrees with the
// bus's own transaction, read, write and byte counters.
TEST(Mapper, LogSummaryCountsEachBusTransactionOnce) {
  for (const Platform& p : bus_platforms()) {
    TwoStreams sys;
    Simulator sim;
    auto ms = Mapper::map(sim, sys.graph, p, AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(50_ms)) << p.name;
    const auto s = trace::latency_dist(ms->txn_log().records());
    const trace::StatSet& st = ms->bus()->stats();
    EXPECT_GT(s.count, 0u) << p.name;
    EXPECT_EQ(s.count, st.counter("transactions")) << p.name;
    EXPECT_EQ(s.bytes, st.counter("bytes")) << p.name;
    std::uint64_t read_rows = 0;
    for (const auto& r : ms->txn_log().records()) {
      if (r.kind == trace::TxnKind::Read) ++read_rows;
    }
    EXPECT_EQ(st.counter("reads") + st.counter("writes"),
              st.counter("transactions"))
        << p.name;
    EXPECT_EQ(st.counter("reads"), read_rows) << p.name;
  }
}

// Per-master rows are a group-by on TxnRecord::master: the groups
// partition the bus channel exactly, in count and in bytes.
TEST(Mapper, PerMasterGroupsSumToTheBusChannel) {
  for (const Platform& p : bus_platforms()) {
    TwoStreams sys;
    Simulator sim;
    auto ms = Mapper::map(sim, sys.graph, p, AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(50_ms)) << p.name;
    const cam::CamIf& bus = *ms->bus();
    std::vector<std::string> masters;
    for (std::size_t i = 0; i < bus.master_count(); ++i) {
      masters.push_back(bus.name() + "." + bus.master_label(i));
    }
    ASSERT_EQ(masters.size(), 2u) << p.name;
    std::uint64_t bus_count = 0, bus_bytes = 0;
    std::uint64_t master_count = 0, master_bytes = 0, master_groups = 0;
    for (const auto& c : trace::per_channel_stats(ms->txn_log())) {
      if (c.channel == bus.name()) {
        bus_count = c.dist.count;
        bus_bytes = c.dist.bytes;
      } else if (std::find(masters.begin(), masters.end(), c.channel) !=
                 masters.end()) {
        master_count += c.dist.count;
        master_bytes += c.dist.bytes;
        ++master_groups;
      }
    }
    EXPECT_EQ(master_groups, 2u) << p.name;
    EXPECT_GT(bus_count, 0u) << p.name;
    EXPECT_EQ(master_count, bus_count) << p.name;
    EXPECT_EQ(master_bytes, bus_bytes) << p.name;
  }
}

namespace {

// What one variant of the shape test's base graph changes: one field of
// what Mapper::map reads from a graph.
struct ShapeKnobs {
  bool extra_pe = false;
  std::string sink_name = "sink";
  bool sink_is_lambda = false;  // another dynamic type, same name
  Partition sink_part = Partition::Hardware;
  std::string channel = "stream";
  bool to_dma = false;  // the channel's b endpoint is the DMA PE
  std::string port_a = "out";
  std::string port_b = "in";
  std::size_t depth = 2;
  ship::Role role_a = ship::Role::Master;
  std::string mem_name = "mem";
  std::uint64_t mem_base = 0x80000000;
  std::size_t mem_size = 1 << 14;
  std::size_t banks = 4;
  bool prod_is_client = false;  // the producer instead of the DMA PE
};

// Producer -> sink over one channel with declared roles, plus a DMA PE
// on a banked memory.
struct ShapedSystem {
  std::vector<std::unique_ptr<ProcessingElement>> owned;
  SystemGraph graph;

  explicit ShapedSystem(const ShapeKnobs& k) {
    auto prod = std::make_unique<workload::ProducerPe>("prod", 8, 32, 10);
    std::unique_ptr<ProcessingElement> sink;
    if (k.sink_is_lambda) {
      sink = std::make_unique<LambdaPe>(k.sink_name, [](ExecContext&) {});
    } else {
      sink = std::make_unique<workload::SinkPe>(k.sink_name, 8);
    }
    workload::MemoryTrafficConfig cfg;
    cfg.accesses = 6;
    cfg.span = 1 << 12;
    auto dma = std::make_unique<workload::MemoryTrafficPe>("dma", cfg);
    graph.add_pe(*prod);
    graph.add_pe(*sink, k.sink_part);
    graph.add_pe(*dma);
    if (k.extra_pe) {
      auto spare = std::make_unique<workload::SinkPe>("spare", 0);
      graph.add_pe(*spare);
      owned.push_back(std::move(spare));
    }
    graph.connect(k.channel, *prod, k.port_a, k.to_dma ? *dma : *sink,
                  k.port_b, k.depth, k.role_a);
    MemorySpec mem;
    mem.name = k.mem_name;
    mem.base = k.mem_base;
    mem.size = k.mem_size;
    mem.cfg.banks = k.banks;
    mem.clients = {k.prod_is_client
                       ? static_cast<ProcessingElement*>(prod.get())
                       : dma.get()};
    graph.add_memory(std::move(mem));
    owned.push_back(std::move(prod));
    owned.push_back(std::move(sink));
    owned.push_back(std::move(dma));
  }
};

std::string report_of(const MappedSystem& ms) {
  std::ostringstream os;
  ms.report(os);
  return os.str();
}

}  // namespace

// MappedSystem::reset binds a system only to a graph of the shape it is
// bound to. Each variant changes one field Mapper::map reads: the shape
// check rejects it, reset() throws and leaves the system as it was, and
// the system still runs the base graph to the fresh map's result.
TEST(Mapper, ResetRejectsAGraphOfAnotherShape) {
  struct Variant {
    const char* name;
    std::function<void(ShapeKnobs&)> change;
  };
  const std::vector<Variant> variants{
      {"pe count", [](ShapeKnobs& k) { k.extra_pe = true; }},
      {"pe name", [](ShapeKnobs& k) { k.sink_name = "drain"; }},
      {"pe type", [](ShapeKnobs& k) { k.sink_is_lambda = true; }},
      {"pe partition",
       [](ShapeKnobs& k) { k.sink_part = Partition::Software; }},
      {"channel name", [](ShapeKnobs& k) { k.channel = "stream2"; }},
      {"channel endpoint", [](ShapeKnobs& k) { k.to_dma = true; }},
      {"channel port a", [](ShapeKnobs& k) { k.port_a = "out2"; }},
      {"channel port b", [](ShapeKnobs& k) { k.port_b = "in2"; }},
      {"channel depth", [](ShapeKnobs& k) { k.depth = 3; }},
      {"channel role", [](ShapeKnobs& k) { k.role_a = ship::Role::Slave; }},
      {"memory name", [](ShapeKnobs& k) { k.mem_name = "sram"; }},
      {"memory base", [](ShapeKnobs& k) { k.mem_base = 0x90000000; }},
      {"memory size", [](ShapeKnobs& k) { k.mem_size = 1 << 13; }},
      {"memory config", [](ShapeKnobs& k) { k.banks = 2; }},
      {"memory clients", [](ShapeKnobs& k) { k.prod_is_client = true; }},
  };
  for (const Platform& p : bus_platforms()) {
    SCOPED_TRACE(p.name);
    std::string fresh;
    {
      ShapedSystem sys{ShapeKnobs{}};
      Simulator sim;
      auto ms = Mapper::map(sim, sys.graph, p, AbstractionLevel::Cam);
      ASSERT_TRUE(ms->run_until_done(10_ms));
      fresh = report_of(*ms);
    }
    auto bound = std::make_unique<ShapedSystem>(ShapeKnobs{});
    Simulator sim;
    auto ms = Mapper::map(sim, bound->graph, p, AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(10_ms));
    EXPECT_EQ(report_of(*ms), fresh);
    for (const Variant& v : variants) {
      SCOPED_TRACE(v.name);
      ShapeKnobs knobs;
      v.change(knobs);
      ShapedSystem other(knobs);
      EXPECT_FALSE(ms->same_shape(other.graph));
      EXPECT_THROW(ms->reset(other.graph), ElaborationError);

      auto next = std::make_unique<ShapedSystem>(ShapeKnobs{});
      EXPECT_TRUE(ms->same_shape(next->graph));
      ms->reset(next->graph);
      bound = std::move(next);
      ASSERT_TRUE(ms->run_until_done(10_ms));
      EXPECT_EQ(report_of(*ms), fresh);
    }
  }
}

// A reset system reports what a fresh map of its graph reports, even
// after a run that counted a decode error: every bus counts decode
// errors through one stat slot made at construction, so none appears
// during a run and stays listed after the reset.
TEST(Mapper, ResetReportEqualsAFreshMapsAfterADecodeError) {
  // One DMA access below the memory's range: no slave decodes it.
  auto stray = [](std::vector<std::unique_ptr<ProcessingElement>>& owned,
                  SystemGraph& graph) {
    workload::MemoryTrafficConfig cfg;
    cfg.accesses = 1;
    cfg.base = 0x70000000;
    cfg.span = 64;
    auto dma = std::make_unique<workload::MemoryTrafficPe>("dma", cfg);
    graph.add_pe(*dma);
    MemorySpec mem;
    mem.clients = {dma.get()};
    graph.add_memory(std::move(mem));
    owned.push_back(std::move(dma));
  };
  for (const Platform& p : bus_platforms()) {
    SCOPED_TRACE(p.name);
    std::vector<std::unique_ptr<ProcessingElement>> owned_a, owned_b, owned_c;
    SystemGraph first, second, third;
    stray(owned_a, first);
    stray(owned_b, second);
    stray(owned_c, third);
    Simulator sim;
    auto ms = Mapper::map(sim, first, p, AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(1_ms));
    ASSERT_EQ(ms->bus()->stats().counter("decode_errors"), 1u);
    ms->reset(second);

    Simulator fresh_sim;
    auto fresh = Mapper::map(fresh_sim, third, p, AbstractionLevel::Cam);
    EXPECT_EQ(report_of(*ms), report_of(*fresh));
    ASSERT_TRUE(ms->run_until_done(1_ms));
    ASSERT_TRUE(fresh->run_until_done(1_ms));
    EXPECT_EQ(report_of(*ms), report_of(*fresh));
  }
}
