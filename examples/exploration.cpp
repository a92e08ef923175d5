// Communication architecture exploration for a synthetic SoC (paper §3).
//
// Four traffic sources with different intensities share the interconnect
// with an RPC-style service. The same abstract system is mapped onto
// every architecture in the cross-product candidate grid (bus kind x
// arbiter x bus clock x data width); the printed table is the artifact a
// designer would use to pick the interconnect. The sweep is sharded
// across worker threads — one complete simulator per worker — and the
// N-thread run is checked (and reported) against the 1-thread one:
// identical simulated results, smaller wall clock.
//
// Build & run:  ./example_exploration

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

workload::GraphFactory soc_factory() {
  return [](core::SystemGraph& g,
            std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
    // Two bulk streams (DMA-like), one light stream, one RPC client.
    auto video = std::make_unique<workload::ProducerPe>("video", 24, 512, 50);
    auto audio = std::make_unique<workload::ProducerPe>("audio", 24, 64, 200);
    auto ctrl = std::make_unique<workload::ProducerPe>("ctrl", 12, 16, 400);
    auto v_sink = std::make_unique<workload::SinkPe>("v_sink", 24);
    auto a_sink = std::make_unique<workload::SinkPe>("a_sink", 24);
    auto c_sink = std::make_unique<workload::SinkPe>("c_sink", 12);
    auto client =
        std::make_unique<workload::RequesterPe>("client", 16, 32, 100);
    auto server = std::make_unique<workload::EchoServerPe>("server", 16, 50);

    g.add_pe(*video);
    g.add_pe(*audio);
    g.add_pe(*ctrl);
    g.add_pe(*v_sink);
    g.add_pe(*a_sink);
    g.add_pe(*c_sink);
    g.add_pe(*client);
    g.add_pe(*server);
    g.connect("video_ch", *video, "out", *v_sink, "in", 2);
    g.connect("audio_ch", *audio, "out", *a_sink, "in", 2);
    g.connect("ctrl_ch", *ctrl, "out", *c_sink, "in", 1);
    g.connect("rpc", *client, "out", *server, "in", 1);

    o.push_back(std::move(video));
    o.push_back(std::move(audio));
    o.push_back(std::move(ctrl));
    o.push_back(std::move(v_sink));
    o.push_back(std::move(a_sink));
    o.push_back(std::move(c_sink));
    o.push_back(std::move(client));
    o.push_back(std::move(server));
  };
}

}  // namespace

int main() {
  std::printf("== communication architecture exploration: synthetic SoC ==\n");
  std::printf("workload: 2 bulk streams + control stream + RPC service\n\n");

  expl::Explorer explorer;
  const std::vector<workload::WorkloadCase> soc{{"", soc_factory()}};
  auto candidates = expl::grid_candidates();

  // Also try a TDMA variant with longer slots.
  {
    core::Platform p;
    p.name = "plb-tdma-long";
    p.bus = core::BusKind::Plb;
    p.arb = core::ArbKind::Tdma;
    p.tdma_slot_cycles = 64;
    candidates.push_back(p);
  }

  const unsigned threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("sweeping %zu candidate architectures...\n\n",
              candidates.size());

  const auto seq_start = std::chrono::steady_clock::now();
  const auto seq_rows = explorer.sweep_parallel(candidates, soc, 500_ms, 1);
  const auto seq_end = std::chrono::steady_clock::now();
  const auto rows = explorer.sweep_parallel(candidates, soc, 500_ms, threads);
  const auto par_end = std::chrono::steady_clock::now();

  expl::Explorer::print_table(std::cout, rows);

  // N threads must reproduce the 1-thread results exactly — each worker
  // runs its own simulator from fresh state.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].sim_time_us != seq_rows[i].sim_time_us ||
        rows[i].transactions != seq_rows[i].transactions) {
      std::printf("MISMATCH between 1-thread and %u-thread sweep at %s\n",
                  threads, rows[i].platform.c_str());
      return 1;
    }
  }

  const double seq_ms =
      std::chrono::duration<double, std::milli>(seq_end - seq_start).count();
  const double par_ms =
      std::chrono::duration<double, std::milli>(par_end - seq_end).count();
  std::printf("\nsweep wall clock: 1 thread %.1f ms, %u threads %.1f ms "
              "(%.2fx), results identical\n",
              seq_ms, threads, par_ms, seq_ms / par_ms);

  const expl::ExplorationRow* best = nullptr;
  for (const auto& r : rows) {
    if (r.completed && (!best || r.sim_time_us < best->sim_time_us)) best = &r;
  }
  if (best) {
    std::printf("selected: %s (%.1f us simulated)\n", best->platform.c_str(),
                best->sim_time_us);
  }

  // ---- the second exploration axis: platform x workload ----------------
  // The same candidate platforms crossed with the canonical synthetic
  // workloads (seeded uniform / bursty / request-reply / pipeline): the
  // interconnect that wins under smooth streaming is not necessarily the
  // one that wins under bursts or RPC traffic.
  std::printf("\n== platform x workload grid ==\n");
  const auto loads = expl::workload_candidates();
  expl::Explorer gx;
  const auto cells = expl::default_candidates();
  const auto grid_rows = gx.sweep_parallel(cells, loads, 500_ms, threads);
  expl::Explorer::print_table(std::cout, grid_rows);

  // Per-workload winner: does the architecture choice depend on traffic?
  for (const auto& w : loads) {
    const expl::ExplorationRow* win = nullptr;
    for (const auto& r : grid_rows) {
      if (r.workload != w.name || !r.completed) continue;
      if (!win || r.sim_time_us < win->sim_time_us) win = &r;
    }
    if (win) {
      std::printf("best for %-9s: %s (%.1f us)\n", w.name.c_str(),
                  win->platform.c_str(), win->sim_time_us);
    }
  }
  return 0;
}
