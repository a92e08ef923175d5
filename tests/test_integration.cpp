// Cross-module integration tests: whole-system scenarios that combine
// the mapper, CAM library, wrappers, HW/SW interface, RTOS, and
// exploration engine — the flows a user of the library actually runs.
#include <gtest/gtest.h>

#include <array>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::core;
using namespace stlm::time_literals;

namespace {

// Three-stage pipeline with a checksum so corruption anywhere shows up.
struct Pipeline {
  std::vector<std::unique_ptr<ProcessingElement>> owned;
  SystemGraph graph;
  long* checksum;

  explicit Pipeline(long* sum, int blocks = 10) : checksum(sum) {
    auto src = std::make_unique<LambdaPe>("src", [blocks](ExecContext& ctx) {
      ship::ship_if& out = ctx.channel("out");
      for (int b = 0; b < blocks; ++b) {
        ship::VectorMsg<std::uint32_t> m;
        m.data.resize(16);
        for (int i = 0; i < 16; ++i) {
          m.data[static_cast<std::size_t>(i)] =
              static_cast<std::uint32_t>(b * 100 + i);
        }
        ctx.consume(50);
        out.send(m);
      }
    });
    auto mid = std::make_unique<LambdaPe>("mid", [blocks](ExecContext& ctx) {
      ship::ship_if& in = ctx.channel("in");
      ship::ship_if& out = ctx.channel("out");
      for (int b = 0; b < blocks; ++b) {
        ship::VectorMsg<std::uint32_t> m;
        in.recv(m);
        for (auto& v : m.data) v = v * 2 + 1;
        ctx.consume(100);
        out.send(m);
      }
    });
    auto dst = std::make_unique<LambdaPe>("dst", [blocks, sum](ExecContext& ctx) {
      ship::ship_if& in = ctx.channel("in");
      for (int b = 0; b < blocks; ++b) {
        ship::VectorMsg<std::uint32_t> m;
        in.recv(m);
        for (auto v : m.data) *sum += v;
      }
    });
    graph.add_pe(*src);
    graph.add_pe(*mid);
    graph.add_pe(*dst);
    graph.connect("s2m", *src, "out", *mid, "in", 2);
    graph.connect("m2d", *mid, "out", *dst, "in", 2);
    owned.push_back(std::move(src));
    owned.push_back(std::move(mid));
    owned.push_back(std::move(dst));
  }
};

long expected_checksum(int blocks = 10) {
  long sum = 0;
  for (int b = 0; b < blocks; ++b) {
    for (int i = 0; i < 16; ++i) sum += (b * 100 + i) * 2 + 1;
  }
  return sum;
}

}  // namespace

TEST(Integration, PipelineChecksumIdenticalAcrossLevels) {
  for (auto level : {AbstractionLevel::ComponentAssembly,
                     AbstractionLevel::Ccatb, AbstractionLevel::Cam}) {
    long sum = 0;
    Pipeline pl(&sum);
    pl.graph.discover_roles();
    sum = 0;  // discovery probe counted too
    Simulator sim;
    auto ms = Mapper::map(sim, pl.graph, Platform{}, level);
    ASSERT_TRUE(ms->run_until_done(100_ms)) << level_name(level);
    EXPECT_EQ(sum, expected_checksum()) << level_name(level);
  }
}

TEST(Integration, PipelineChecksumWithMiddleStageInSoftware) {
  long sum = 0;
  Pipeline pl(&sum);
  pl.graph.set_partition(*pl.graph.pes()[1], Partition::Software);
  pl.graph.discover_roles();
  sum = 0;
  Simulator sim;
  auto ms = Mapper::map(sim, pl.graph, Platform{}, AbstractionLevel::Cam);
  ASSERT_TRUE(ms->run_until_done(200_ms));
  EXPECT_EQ(sum, expected_checksum());
  // The SW stage's traffic crossed the HW/SW interface: two adapters on
  // the bus, both interrupt-driven.
  EXPECT_GT(ms->cpu_model()->bus_transactions(), 0u);
}

TEST(Integration, PipelineFullySoftware) {
  long sum = 0;
  Pipeline pl(&sum);
  for (auto* pe : pl.graph.pes()) {
    pl.graph.set_partition(*pe, Partition::Software);
  }
  pl.graph.discover_roles();
  sum = 0;
  Simulator sim;
  auto ms = Mapper::map(sim, pl.graph, Platform{}, AbstractionLevel::Cam);
  ASSERT_TRUE(ms->run_until_done(200_ms));
  EXPECT_EQ(sum, expected_checksum());
  // Everything is RTOS-local: no bus transactions at all.
  EXPECT_EQ(ms->bus()->stats().counter("transactions"), 0u);
  EXPECT_GE(ms->os()->context_switches(), 3u);
}

TEST(Integration, PlatformSweepPreservesFunction) {
  for (const auto& p : expl::default_candidates()) {
    long sum = 0;
    Pipeline pl(&sum);
    pl.graph.discover_roles();
    sum = 0;
    Simulator sim;
    auto ms = Mapper::map(sim, pl.graph, p, AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(200_ms)) << p.name;
    EXPECT_EQ(sum, expected_checksum()) << p.name;
  }
}

TEST(Integration, MixedRpcAndStreamOnOneBus) {
  // A streaming pair and an RPC pair share one PLB; both finish and both
  // are functionally intact.
  std::vector<std::unique_ptr<ProcessingElement>> owned;
  SystemGraph g;
  int rpc_sum = 0;
  auto prod = std::make_unique<workload::ProducerPe>("prod", 20, 128, 10);
  auto sink = std::make_unique<workload::SinkPe>("sink", 20);
  auto client = std::make_unique<LambdaPe>("client", [&](ExecContext& ctx) {
    ship::ship_if& out = ctx.channel("out");
    for (int i = 0; i < 10; ++i) {
      ship::PodMsg<int> req(i), resp;
      out.request(req, resp);
      rpc_sum += resp.value;
    }
  });
  auto server = std::make_unique<LambdaPe>("server", [](ExecContext& ctx) {
    ship::ship_if& in = ctx.channel("in");
    for (int i = 0; i < 10; ++i) {
      ship::PodMsg<int> req;
      in.recv(req);
      ship::PodMsg<int> resp(req.value * req.value);
      ctx.consume(30);
      in.reply(resp);
    }
  });
  workload::SinkPe* sink_ptr = sink.get();
  g.add_pe(*prod);
  g.add_pe(*sink);
  g.add_pe(*client);
  g.add_pe(*server);
  g.connect("stream", *prod, "out", *sink, "in", 2);
  g.connect("rpc", *client, "out", *server, "in");
  owned.push_back(std::move(prod));
  owned.push_back(std::move(sink));
  owned.push_back(std::move(client));
  owned.push_back(std::move(server));

  g.discover_roles();
  rpc_sum = 0;
  Simulator sim;
  auto ms = Mapper::map(sim, g, Platform{}, AbstractionLevel::Cam);
  ASSERT_TRUE(ms->run_until_done(200_ms));
  EXPECT_EQ(sink_ptr->received(), 20u);
  EXPECT_EQ(rpc_sum, 0 + 1 + 4 + 9 + 16 + 25 + 36 + 49 + 64 + 81);
}

TEST(Integration, TimingRefinesMonotonically) {
  // Simulated completion time must not decrease as the model refines.
  std::array<Time, 3> times{};
  int idx = 0;
  for (auto level : {AbstractionLevel::ComponentAssembly,
                     AbstractionLevel::Ccatb, AbstractionLevel::Cam}) {
    long sum = 0;
    Pipeline pl(&sum, 20);
    pl.graph.discover_roles();
    Simulator sim;
    auto ms = Mapper::map(sim, pl.graph, Platform{}, level);
    ASSERT_TRUE(ms->run_until_done(200_ms));
    times[static_cast<std::size_t>(idx++)] = sim.now();
  }
  EXPECT_LE(times[0], times[1]);
  EXPECT_LE(times[1], times[2]);
}

TEST(Integration, ExplorerAgreesWithDirectMapping) {
  // The explorer's reported sim time matches a hand-built run.
  const workload::WorkloadCase wl{
      "", [](SystemGraph& g,
             std::vector<std::unique_ptr<ProcessingElement>>& o) {
        auto prod = std::make_unique<workload::ProducerPe>("p", 8, 64, 10);
        auto sink = std::make_unique<workload::SinkPe>("s", 8);
        g.add_pe(*prod);
        g.add_pe(*sink);
        g.connect("ch", *prod, "out", *sink, "in", 2);
        o.push_back(std::move(prod));
        o.push_back(std::move(sink));
      }};
  expl::Explorer ex;
  Platform p;
  const auto row = ex.evaluate(p, wl, 50_ms);
  ASSERT_TRUE(row.completed);

  long dummy = 0;
  (void)dummy;
  std::vector<std::unique_ptr<ProcessingElement>> owned;
  SystemGraph g;
  auto prod = std::make_unique<workload::ProducerPe>("p", 8, 64, 10);
  auto sink = std::make_unique<workload::SinkPe>("s", 8);
  g.add_pe(*prod);
  g.add_pe(*sink);
  g.connect("ch", *prod, "out", *sink, "in", 2);
  owned.push_back(std::move(prod));
  owned.push_back(std::move(sink));
  g.discover_roles();
  Simulator sim;
  auto ms = Mapper::map(sim, g, p, AbstractionLevel::Cam);
  ASSERT_TRUE(ms->run_until_done(50_ms));
  EXPECT_NEAR(row.sim_time_us, sim.now().to_seconds() * 1e6, 1e-6);
}
