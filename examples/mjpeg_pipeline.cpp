// MJPEG-style encoder pipeline — the multimedia workload class the TLM
// literature of the era used to motivate communication exploration.
//
//   camera --> dct --> quant --> vlc(sink)
//
// Each stage does real work (8x8 integer DCT, quantization, run-length
// accounting) against ExecContext, so the identical PE code runs at
// every abstraction level. The example:
//   1. runs the pipeline at component-assembly, CCATB, and CAM levels and
//      prints the simulated completion time of each (the Figure-1 flow);
//   2. captures the CCATB run's transaction trace, dumps it to CSV
//      (mjpeg_trace.csv), reloads it, and replays it on the same
//      platform — the replay must reproduce the captured transaction
//      count and byte total exactly;
//   3. sweeps the CAM library to pick a communication architecture.
//
// Build & run:  ./example_mjpeg_pipeline

#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "workload/workload.hpp"

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "ship/ship.hpp"
#include "trace/channel_stats.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

constexpr int kBlocks = 24;        // 8x8 blocks per run
constexpr int kBlockPixels = 64;

// A block of pixels/coefficients on the wire.
using Block = ship::VectorMsg<std::int16_t>;

// Forward 8x8 DCT (separable, integer approximation) — real computation,
// so the "compute" side of the PEs is not a stub.
void dct8x8(std::array<std::int32_t, kBlockPixels>& b) {
  auto pass = [&](bool rows) {
    for (int i = 0; i < 8; ++i) {
      std::array<std::int32_t, 8> v{};
      for (int j = 0; j < 8; ++j) {
        std::int64_t acc = 0;
        for (int k = 0; k < 8; ++k) {
          // cos((2k+1) j pi / 16) in Q10 fixed point.
          static constexpr std::int32_t kCos[8][8] = {
              {1024, 1024, 1024, 1024, 1024, 1024, 1024, 1024},
              {1004, 851, 569, 200, -200, -569, -851, -1004},
              {946, 392, -392, -946, -946, -392, 392, 946},
              {851, -200, -1004, -569, 569, 1004, 200, -851},
              {724, -724, -724, 724, 724, -724, -724, 724},
              {569, -1004, 200, 851, -851, -200, 1004, -569},
              {392, -946, 946, -392, -392, 946, -946, 392},
              {200, -569, 851, -1004, 1004, -851, 569, -200}};
          const std::int32_t x =
              rows ? b[static_cast<std::size_t>(8 * i + k)]
                   : b[static_cast<std::size_t>(8 * k + i)];
          acc += static_cast<std::int64_t>(kCos[j][k]) * x;
        }
        v[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(acc >> 10);
      }
      for (int j = 0; j < 8; ++j) {
        b[static_cast<std::size_t>(rows ? 8 * i + j : 8 * j + i)] =
            v[static_cast<std::size_t>(j)] / 2;
      }
    }
  };
  pass(true);
  pass(false);
}

struct PipelineStats {
  long nonzero_coeffs = 0;
  int blocks_done = 0;
};

// Factory so the explorer can rebuild the system per candidate.
workload::GraphFactory make_factory(PipelineStats* stats) {
  return [stats](core::SystemGraph& g,
                 std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    auto camera = std::make_unique<core::LambdaPe>(
        "camera", [](core::ExecContext& ctx) {
          ship::ship_if& out = ctx.channel("out");
          for (int blk = 0; blk < kBlocks; ++blk) {
            Block b;
            b.data.resize(kBlockPixels);
            for (int i = 0; i < kBlockPixels; ++i) {
              b.data[static_cast<std::size_t>(i)] =
                  static_cast<std::int16_t>((blk * 37 + i * 11) % 251 - 125);
            }
            ctx.consume(64);  // sensor readout
            out.send(b);
          }
        });

    auto dct = std::make_unique<core::LambdaPe>(
        "dct", [](core::ExecContext& ctx) {
          ship::ship_if& in = ctx.channel("in");
          ship::ship_if& out = ctx.channel("out");
          for (int blk = 0; blk < kBlocks; ++blk) {
            Block b;
            in.recv(b);
            std::array<std::int32_t, kBlockPixels> work{};
            for (int i = 0; i < kBlockPixels; ++i) {
              work[static_cast<std::size_t>(i)] =
                  b.data[static_cast<std::size_t>(i)];
            }
            dct8x8(work);
            for (int i = 0; i < kBlockPixels; ++i) {
              b.data[static_cast<std::size_t>(i)] =
                  static_cast<std::int16_t>(work[static_cast<std::size_t>(i)]);
            }
            ctx.consume(900);  // ~DCT cost on a small HW block
            out.send(b);
          }
        });

    auto quant = std::make_unique<core::LambdaPe>(
        "quant", [](core::ExecContext& ctx) {
          ship::ship_if& in = ctx.channel("in");
          ship::ship_if& out = ctx.channel("out");
          for (int blk = 0; blk < kBlocks; ++blk) {
            Block b;
            in.recv(b);
            for (auto& c : b.data) c = static_cast<std::int16_t>(c / 16);
            ctx.consume(128);
            out.send(b);
          }
        });

    auto vlc = std::make_unique<core::LambdaPe>(
        "vlc", [stats](core::ExecContext& ctx) {
          ship::ship_if& in = ctx.channel("in");
          for (int blk = 0; blk < kBlocks; ++blk) {
            Block b;
            in.recv(b);
            for (auto c : b.data) {
              if (c != 0) ++stats->nonzero_coeffs;
            }
            ctx.consume(200);
            ++stats->blocks_done;
          }
        });

    g.add_pe(*camera);
    g.add_pe(*dct);
    g.add_pe(*quant);
    g.add_pe(*vlc);
    g.connect("cam2dct", *camera, "out", *dct, "in", 2);
    g.connect("dct2q", *dct, "out", *quant, "in", 2);
    g.connect("q2vlc", *quant, "out", *vlc, "in", 2);
    o.push_back(std::move(camera));
    o.push_back(std::move(dct));
    o.push_back(std::move(quant));
    o.push_back(std::move(vlc));
  };
}

}  // namespace

int main() {
  std::printf("== MJPEG pipeline across abstraction levels ==\n");
  PipelineStats stats;
  auto factory = make_factory(&stats);

  std::string captured_csv;
  trace::LatencyDist captured;
  for (auto level : {core::AbstractionLevel::ComponentAssembly,
                     core::AbstractionLevel::Ccatb,
                     core::AbstractionLevel::Cam}) {
    std::vector<std::unique_ptr<core::ProcessingElement>> owned;
    core::SystemGraph graph;
    factory(graph, owned);
    graph.discover_roles();
    stats = PipelineStats{};  // the discovery probe run also counted

    Simulator sim;
    auto ms = core::Mapper::map(sim, graph, core::Platform{}, level);
    const bool done = ms->run_until_done(100_ms);
    std::printf("  %-19s done=%s  sim_time=%-12s blocks=%d nonzero=%ld\n",
                core::level_name(level), done ? "yes" : "NO",
                sim.now().to_string().c_str(), stats.blocks_done,
                stats.nonzero_coeffs);

    if (level == core::AbstractionLevel::Ccatb) {
      // Capture the timed SHIP-level trace: this is the portable workload.
      std::ostringstream os;
      ms->txn_log().dump_csv(os);
      captured_csv = os.str();
      captured = trace::latency_dist(ms->txn_log().records());
    }
  }

  std::printf("\n== trace capture -> CSV -> replay (CCATB, same platform) ==\n");
  {
    const char* path = "mjpeg_trace.csv";
    std::ofstream(path) << captured_csv;
    std::ifstream in(path);
    trace::TxnLogger loaded;
    loaded.load_csv(in);
    std::printf("  captured %zu records (%llu bytes) -> %s\n", loaded.size(),
                static_cast<unsigned long long>(captured.bytes), path);

    std::vector<std::unique_ptr<core::ProcessingElement>> owned;
    core::SystemGraph graph;
    workload::replay_factory(loaded)(graph, owned);
    Simulator sim;
    auto ms = core::Mapper::map(sim, graph, core::Platform{},
                                core::AbstractionLevel::Ccatb);
    const bool done = ms->run_until_done(100_ms);
    const auto replayed = trace::latency_dist(ms->txn_log().records());
    const bool exact = replayed.count == captured.count &&
                       replayed.bytes == captured.bytes;
    std::printf("  replay: done=%s txns=%llu bytes=%llu  (capture: txns=%llu "
                "bytes=%llu) -> %s\n",
                done ? "yes" : "NO",
                static_cast<unsigned long long>(replayed.count),
                static_cast<unsigned long long>(replayed.bytes),
                static_cast<unsigned long long>(captured.count),
                static_cast<unsigned long long>(captured.bytes),
                exact ? "EXACT MATCH" : "MISMATCH");
    if (!exact) return 1;

    // Phase-accurate bar: beyond count/bytes, the replay must reproduce
    // each channel's latency *distribution* within tolerance.
    const auto validation = workload::validate_replay(loaded, ms->txn_log());
    std::printf("%s", validation.report().c_str());
    if (!validation.ok) return 1;
  }

  std::printf("\n== communication architecture exploration (CAM level) ==\n");
  // One thread: every cell's factory shares `stats`.
  expl::Explorer explorer;
  const auto rows = explorer.sweep_parallel(
      expl::default_candidates(), {{"", make_factory(&stats)}}, 200_ms, 1);
  expl::Explorer::print_table(std::cout, rows);

  // Pick the fastest completed candidate.
  const expl::ExplorationRow* best = nullptr;
  for (const auto& r : rows) {
    if (r.completed && (!best || r.sim_time_us < best->sim_time_us)) best = &r;
  }
  if (best) std::printf("selected architecture: %s\n", best->platform.c_str());
  return 0;
}
