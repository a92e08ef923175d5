#include "workload/spec.hpp"

#include "kernel/report.hpp"
#include "workload/memory_traffic.hpp"

namespace stlm::workload {

const char* traffic_shape_name(TrafficShape s) {
  switch (s) {
    case TrafficShape::Uniform: return "uniform";
    case TrafficShape::Bursty: return "bursty";
    case TrafficShape::RequestReply: return "reqreply";
    case TrafficShape::Pipeline: return "pipeline";
    case TrafficShape::Banked: return "banked";
  }
  return "?";
}

namespace {

using Owned = std::vector<std::unique_ptr<core::ProcessingElement>>;

void build_uniform(const WorkloadSpec& s, core::SystemGraph& g, Owned& o) {
  for (std::size_t i = 0; i < s.streams; ++i) {
    const std::string id = std::to_string(i);
    auto src = std::make_unique<UniformTrafficPe>(
        "uni" + id, SplitMix64::derive(s.seed, i), s.messages, s.payload,
        s.gap);
    auto sink = std::make_unique<SinkPe>("uni" + id + ".sink", s.messages);
    g.add_pe(*src);
    g.add_pe(*sink);
    g.connect("uni" + id, *src, "out", *sink, "in", s.queue_depth,
              ship::Role::Master);
    o.push_back(std::move(src));
    o.push_back(std::move(sink));
  }
}

void build_bursty(const WorkloadSpec& s, core::SystemGraph& g, Owned& o) {
  for (std::size_t i = 0; i < s.streams; ++i) {
    const std::string id = std::to_string(i);
    auto src = std::make_unique<BurstyTrafficPe>(
        "burst" + id, SplitMix64::derive(s.seed, i), s.messages, s.payload,
        s.burst, s.off_gap, s.on_gap);
    auto sink = std::make_unique<SinkPe>("burst" + id + ".sink", s.messages);
    g.add_pe(*src);
    g.add_pe(*sink);
    g.connect("burst" + id, *src, "out", *sink, "in", s.queue_depth,
              ship::Role::Master);
    o.push_back(std::move(src));
    o.push_back(std::move(sink));
  }
}

void build_reqreply(const WorkloadSpec& s, core::SystemGraph& g, Owned& o) {
  for (std::size_t i = 0; i < s.streams; ++i) {
    const std::string id = std::to_string(i);
    auto client = std::make_unique<SeededRequesterPe>(
        "client" + id, SplitMix64::derive(s.seed, i), s.messages, s.payload,
        s.gap);
    auto server = std::make_unique<EchoServerPe>("server" + id, s.messages,
                                                 s.serve_cycles);
    g.add_pe(*client);
    g.add_pe(*server);
    g.connect("rpc" + id, *client, "out", *server, "in", s.queue_depth,
              ship::Role::Master);
    o.push_back(std::move(client));
    o.push_back(std::move(server));
  }
}

void build_pipeline(const WorkloadSpec& s, core::SystemGraph& g, Owned& o) {
  auto src = std::make_unique<UniformTrafficPe>(
      "source", SplitMix64::derive(s.seed, 0), s.messages, s.payload, s.gap);
  auto sink = std::make_unique<SinkPe>("sink", s.messages);
  std::vector<std::unique_ptr<StagePe>> stages;
  for (std::size_t i = 0; i < s.streams; ++i) {
    stages.push_back(std::make_unique<StagePe>(
        "stage" + std::to_string(i), s.messages, s.stage_cycles));
  }

  g.add_pe(*src);
  for (auto& st : stages) g.add_pe(*st);
  g.add_pe(*sink);

  core::ProcessingElement* up = src.get();
  for (std::size_t i = 0; i < stages.size(); ++i) {
    g.connect("pipe" + std::to_string(i), *up, "out", *stages[i], "in",
              s.queue_depth, ship::Role::Master);
    up = stages[i].get();
  }
  g.connect("pipe" + std::to_string(stages.size()), *up, "out", *sink, "in",
            s.queue_depth, ship::Role::Master);

  o.push_back(std::move(src));
  for (auto& st : stages) o.push_back(std::move(st));
  o.push_back(std::move(sink));
}

void build_banked(const WorkloadSpec& s, core::SystemGraph& g, Owned& o) {
  // DMA masters hammering one banked memory through posted windows, plus
  // one SHIP stream for cross traffic so the bus carries wrapper bursts
  // next to the raw memory accesses.
  core::MemorySpec mem;
  mem.name = "dram";
  mem.cfg = s.mem_cfg;
  for (std::size_t i = 0; i < s.streams; ++i) {
    const std::string id = std::to_string(i);
    MemoryTrafficConfig cfg;
    cfg.seed = SplitMix64::derive(s.seed, i);
    cfg.accesses = s.messages;
    cfg.base = mem.base;
    cfg.span = mem.size;
    cfg.payload = s.payload;
    cfg.gap = s.gap;
    cfg.window = s.posted_window;
    cfg.write_pct = s.write_pct;
    auto dma = std::make_unique<MemoryTrafficPe>("dma" + id, cfg);
    g.add_pe(*dma);
    mem.clients.push_back(dma.get());
    o.push_back(std::move(dma));
  }
  g.add_memory(std::move(mem));

  auto src = std::make_unique<UniformTrafficPe>(
      "cross", SplitMix64::derive(s.seed, s.streams), s.messages, s.payload,
      s.gap);
  auto sink = std::make_unique<SinkPe>("cross.sink", s.messages);
  g.add_pe(*src);
  g.add_pe(*sink);
  g.connect("cross", *src, "out", *sink, "in", s.queue_depth,
            ship::Role::Master);
  o.push_back(std::move(src));
  o.push_back(std::move(sink));
}

}  // namespace

GraphFactory WorkloadSpec::factory() const {
  STLM_ASSERT(streams > 0, "workload spec needs at least one stream: " + name);
  STLM_ASSERT(messages > 0, "workload spec needs at least one message: " + name);
  return [spec = *this](core::SystemGraph& g, Owned& o) {
    // Every shape owns at most 2 PEs per stream plus 2.
    o.reserve(o.size() + 2 * spec.streams + 2);
    switch (spec.shape) {
      case TrafficShape::Uniform: build_uniform(spec, g, o); return;
      case TrafficShape::Bursty: build_bursty(spec, g, o); return;
      case TrafficShape::RequestReply: build_reqreply(spec, g, o); return;
      case TrafficShape::Pipeline: build_pipeline(spec, g, o); return;
      case TrafficShape::Banked: build_banked(spec, g, o); return;
    }
    throw ElaborationError("unknown traffic shape in workload " + spec.name);
  };
}

WorkloadCase make_case(const WorkloadSpec& spec) {
  return WorkloadCase{spec.name, spec.factory()};
}

std::vector<WorkloadCase> workload_candidates(std::uint64_t seed) {
  std::vector<WorkloadCase> cases;

  WorkloadSpec uniform;
  uniform.name = "uniform";
  uniform.shape = TrafficShape::Uniform;
  uniform.seed = SplitMix64::derive(seed, 1);
  uniform.streams = 2;
  uniform.messages = 8;
  uniform.payload = {32, 128};
  uniform.gap = {20, 200};
  cases.push_back(make_case(uniform));

  WorkloadSpec bursty;
  bursty.name = "bursty";
  bursty.shape = TrafficShape::Bursty;
  bursty.seed = SplitMix64::derive(seed, 2);
  bursty.streams = 2;
  bursty.messages = 8;
  bursty.payload = {64, 256};
  bursty.burst = {2, 4};
  bursty.off_gap = {400, 1200};
  cases.push_back(make_case(bursty));

  WorkloadSpec rpc;
  rpc.name = "reqreply";
  rpc.shape = TrafficShape::RequestReply;
  rpc.seed = SplitMix64::derive(seed, 3);
  rpc.streams = 2;
  rpc.messages = 6;
  rpc.payload = {16, 64};
  rpc.gap = {50, 150};
  rpc.serve_cycles = 50;
  cases.push_back(make_case(rpc));

  WorkloadSpec pipe;
  pipe.name = "pipeline";
  pipe.shape = TrafficShape::Pipeline;
  pipe.seed = SplitMix64::derive(seed, 4);
  pipe.streams = 3;  // stages
  pipe.messages = 8;
  pipe.payload = {64, 64};
  pipe.gap = {10, 50};
  pipe.stage_cycles = 150;
  cases.push_back(make_case(pipe));

  // The banked-memory case is what exercises OoO for real: two DMA
  // masters keep posted windows in flight against a banked target whose
  // row hits/misses and bank conflicts spread service times, so split
  // platforms ("-splitN" grid points, e.g. a split PLB) complete out of
  // issue order while atomic platforms drain the same posts serially.
  WorkloadSpec banked;
  banked.name = "banked";
  banked.shape = TrafficShape::Banked;
  banked.seed = SplitMix64::derive(seed, 5);
  banked.streams = 2;  // DMA masters
  banked.messages = 12;  // accesses per master
  banked.payload = {32, 96};
  banked.gap = {0, 30};
  banked.posted_window = 4;
  cases.push_back(make_case(banked));

  return cases;
}

}  // namespace stlm::workload
