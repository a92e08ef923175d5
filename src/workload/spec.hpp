#pragma once
// Declarative synthetic workload specs.
//
// A WorkloadSpec is a small value object describing a traffic pattern —
// shape, seed, stream count, message count, payload/gap distributions —
// and compiles into a GraphFactory: the same factory signature the
// exploration engine invokes once per candidate platform. Specs are the
// workload axis of the exploration grid (platform x workload); see
// workload_candidates() for the canonical set.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/system_graph.hpp"
#include "ocp/banked_memory.hpp"
#include "workload/generators.hpp"

namespace stlm::workload {

// Builds one fresh copy of a workload's system (Explorer::evaluate calls
// it once per cell): fill the graph, park PE ownership in `owned`.
using GraphFactory = std::function<void(
    core::SystemGraph& graph,
    std::vector<std::unique_ptr<core::ProcessingElement>>& owned)>;

enum class TrafficShape : std::uint8_t {
  Uniform,       // independent paced streams, randomized sizes/gaps
  Bursty,        // ON/OFF bursts against long idle gaps
  RequestReply,  // client/server round trips
  Pipeline,      // single chain: source -> N stages -> sink
  Banked,        // DMA masters posting OoO windows at a banked memory
};
const char* traffic_shape_name(TrafficShape s);

struct WorkloadSpec {
  std::string name = "uniform";
  TrafficShape shape = TrafficShape::Uniform;
  std::uint64_t seed = 0x5eed;
  // Stream pairs (producer/sink or client/server); for Pipeline: the
  // number of intermediate stages.
  std::size_t streams = 2;
  std::uint64_t messages = 8;  // per stream / through the pipeline
  ByteRange payload{64, 64};
  CycleRange gap{10, 100};       // uniform/reqreply inter-message compute
  CycleRange burst{2, 5};        // bursty: messages per burst
  CycleRange off_gap{200, 800};  // bursty: OFF compute between bursts
  std::uint64_t on_gap = 1;      // bursty: intra-burst compute
  std::uint64_t serve_cycles = 50;   // reqreply: server compute per request
  std::uint64_t stage_cycles = 100;  // pipeline: per-stage compute
  std::size_t queue_depth = 2;
  // Banked shape: posted-window depth per DMA master and write share.
  // On split platforms (`Platform::max_outstanding > 1`) the window is
  // what keeps several accesses in flight so the banked target's
  // service-time spread reorders completions; atomic platforms drain the
  // same posts serially (CamIf::post contract).
  std::size_t posted_window = 4;
  std::uint64_t write_pct = 60;
  ocp::BankedMemoryConfig mem_cfg{};

  // Compile into a self-contained factory (copies the spec). Channel
  // roles are declared at connect() time — generator graphs never need a
  // discovery probe run.
  GraphFactory factory() const;
};

// A named workload — one cell of the exploration grid's workload axis.
struct WorkloadCase {
  std::string name;
  GraphFactory factory;
};

WorkloadCase make_case(const WorkloadSpec& spec);

// Canonical workload axis: uniform, bursty, request/reply, pipeline,
// banked (DMA windows at a banked memory) — five deterministic seeded
// workloads sized so a full platform-grid x workload sweep stays cheap.
// All derive their per-stream seeds from `seed`, so two sweeps with the
// same seed are bit-identical.
std::vector<WorkloadCase> workload_candidates(std::uint64_t seed = 0x5eed);

}  // namespace stlm::workload
