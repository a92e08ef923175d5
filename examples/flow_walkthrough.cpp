// The complete Figure-1 design flow, top to bottom, in one program.
//
//   1. specification      : PEs written against ExecContext + SHIP
//   2. component-assembly : untimed functional model, role discovery
//   3. CCATB              : timing annotation from the platform
//   4. CAM                : bus model + wrappers, architecture selection
//   5. HW/SW partitioning : controller PE becomes eSW on the RTOS
//
// At every step the same PE source runs; the program prints what changed
// (simulated time, traffic, mapping decisions) — the "systematic"
// part of the paper's title made executable.
//
// Build & run:  ./example_flow_walkthrough

#include <cstdio>
#include <iostream>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "ship/ship.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr int kSamples = 32;

// A small sensor-fusion system: two sensors stream samples to a fusion
// PE; a controller requests fused values over an RPC-style channel.
struct FusionSystem {
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  // Shared so PE lambdas stay valid even if this struct is moved from
  // (the explorer factory moves PEs out).
  std::shared_ptr<int> checksum = std::make_shared<int>(0);
  std::shared_ptr<int> actions = std::make_shared<int>(0);

  int fused_checksum() const { return *checksum; }

  FusionSystem() {
    auto sensor = [](int seed) {
      return [seed](core::ExecContext& ctx) {
        ship::ship_if& out = ctx.channel("out");
        for (int i = 0; i < kSamples; ++i) {
          ship::PodMsg<std::int32_t> m(seed * 1000 + i * 3);
          ctx.consume(40);  // ADC conversion
          out.send(m);
        }
      };
    };
    auto s0 = std::make_unique<core::LambdaPe>("sensor0", sensor(1));
    auto s1 = std::make_unique<core::LambdaPe>("sensor1", sensor(2));

    auto fusion = std::make_unique<core::LambdaPe>(
        "fusion", [sum = checksum](core::ExecContext& ctx) {
          ship::ship_if& a = ctx.channel("a");
          ship::ship_if& b = ctx.channel("b");
          ship::ship_if& svc = ctx.channel("svc");
          std::int32_t last = 0;
          for (int i = 0; i < kSamples; ++i) {
            ship::PodMsg<std::int32_t> va, vb;
            a.recv(va);
            b.recv(vb);
            ctx.consume(120);  // filter update
            last = (va.value + vb.value) / 2;
            *sum += last;
            // Serve one control request per fused sample.
            ship::PodMsg<std::int32_t> req;
            svc.recv(req);
            ship::PodMsg<std::int32_t> resp(last + req.value);
            svc.reply(resp);
          }
        });

    auto controller = std::make_unique<core::LambdaPe>(
        "controller", [acts = actions](core::ExecContext& ctx) {
          ship::ship_if& svc = ctx.channel("svc");
          for (int i = 0; i < kSamples; ++i) {
            ship::PodMsg<std::int32_t> req(i), resp;
            ctx.consume(300);  // control law
            svc.request(req, resp);
            if (resp.value % 2 == 0) ++*acts;
          }
        });

    graph.add_pe(*s0);
    graph.add_pe(*s1);
    graph.add_pe(*fusion);
    graph.add_pe(*controller);
    graph.connect("s0f", *s0, "out", *fusion, "a", 2);
    graph.connect("s1f", *s1, "out", *fusion, "b", 2);
    graph.connect("ctl", *controller, "svc", *fusion, "svc");
    owned.push_back(std::move(s0));
    owned.push_back(std::move(s1));
    owned.push_back(std::move(fusion));
    owned.push_back(std::move(controller));
  }
};

void run_level(const char* label, core::AbstractionLevel level,
               const core::Platform& plat, bool controller_in_sw) {
  FusionSystem sys;
  if (controller_in_sw) {
    sys.graph.set_partition(*sys.graph.pes()[3], core::Partition::Software);
  }
  sys.graph.discover_roles();
  *sys.checksum = 0;  // discovery probe counted too
  *sys.actions = 0;

  Simulator sim;
  auto ms = core::Mapper::map(sim, sys.graph, plat, level);
  const bool done = ms->run_until_done(500_ms);
  const auto traffic = trace::latency_dist(ms->txn_log().records());
  std::printf("  %-28s done=%-3s sim=%-11s checksum=%-8d txns=%-5llu",
              label, done ? "yes" : "NO", sim.now().to_string().c_str(),
              sys.fused_checksum(),
              static_cast<unsigned long long>(traffic.count));
  if (ms->bus()) std::printf(" bus_util=%.3f", ms->bus()->utilization());
  if (ms->os()) {
    std::printf(" ctx_sw=%llu",
                static_cast<unsigned long long>(ms->os()->context_switches()));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== step 1/2: component-assembly model (untimed) ==\n");
  run_level("component-assembly", core::AbstractionLevel::ComponentAssembly,
            core::Platform{}, false);

  std::printf("\n== step 3: CCATB annotation ==\n");
  run_level("ccatb (plb timing)", core::AbstractionLevel::Ccatb,
            core::Platform{}, false);

  std::printf("\n== step 4: communication architecture selection ==\n");
  {
    const workload::WorkloadCase fusion{
        "", [](core::SystemGraph& g,
               std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
          // Rebuild the same abstract system for each candidate; the PE
          // lambdas keep their state alive via shared_ptr captures.
          FusionSystem sys;
          for (auto& pe : sys.owned) o.push_back(std::move(pe));
          g = std::move(sys.graph);
        }};
    expl::Explorer ex;
    const auto rows =
        ex.sweep_parallel(expl::default_candidates(), {fusion}, 500_ms, 1);
    expl::Explorer::print_table(std::cout, rows);
  }

  std::printf("\n== step 4b: mapped onto the selected CAM ==\n");
  run_level("cam (plb, wrappers)", core::AbstractionLevel::Cam,
            core::Platform{}, false);

  std::printf("\n== step 5: controller partitioned to software ==\n");
  run_level("cam + eSW controller", core::AbstractionLevel::Cam,
            core::Platform{}, true);

  std::printf("\nsame PE source at every step; only the binding changed.\n");
  return 0;
}
