#pragma once
// Workload and row comparison shared by the exploration and search
// tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "explore/explore.hpp"

namespace stlm::test {

// Two independent producer->sink streams. The empty case name keeps the
// rows (and print_table) workload-less.
inline workload::WorkloadCase two_streams(std::uint64_t msgs,
                                          std::size_t payload) {
  return {"", [msgs, payload](
                  core::SystemGraph& g,
                  std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
            auto p0 = std::make_unique<workload::ProducerPe>("p0", msgs,
                                                             payload, 20);
            auto p1 = std::make_unique<workload::ProducerPe>("p1", msgs,
                                                             payload, 20);
            auto s0 = std::make_unique<workload::SinkPe>("s0", msgs);
            auto s1 = std::make_unique<workload::SinkPe>("s1", msgs);
            g.add_pe(*p0);
            g.add_pe(*p1);
            g.add_pe(*s0);
            g.add_pe(*s1);
            g.connect("ch0", *p0, "out", *s0, "in", 2);
            g.connect("ch1", *p1, "out", *s1, "in", 2);
            o.push_back(std::move(p0));
            o.push_back(std::move(p1));
            o.push_back(std::move(s0));
            o.push_back(std::move(s1));
          }};
}

// A 4-message producer feeding a sink that waits for 8: on every
// platform the four arrive and then nothing is left to run, so the cell
// deadlocks. `sw_sink` puts the sink behind the HW/SW driver.
inline workload::WorkloadCase starved_sink(bool sw_sink = false) {
  return {sw_sink ? "starved-sw-sink" : "starved-sink",
          [sw_sink](core::SystemGraph& g,
                    std::vector<std::unique_ptr<core::ProcessingElement>>& o) {
            auto prod =
                std::make_unique<workload::ProducerPe>("prod", 4, 64, 20);
            auto sink = std::make_unique<workload::SinkPe>("sink", 8);
            g.add_pe(*prod);
            g.add_pe(*sink);
            g.connect("ch", *prod, "out", *sink, "in", 2);
            if (sw_sink) g.set_partition(*sink, core::Partition::Software);
            o.push_back(std::move(prod));
            o.push_back(std::move(sink));
          }};
}

// Every simulated column — everything except the host-side wall clock
// and the sweep's shared_from note.
inline void expect_sim_columns_equal(const expl::ExplorationRow& a,
                                     const expl::ExplorationRow& b) {
  const std::string cell = a.platform + "/" + a.workload;
  EXPECT_EQ(a.platform, b.platform);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.completed, b.completed) << cell;
  EXPECT_EQ(a.pruned, b.pruned) << cell;
  EXPECT_EQ(a.sim_time_us, b.sim_time_us) << cell;
  EXPECT_EQ(a.mean_latency_ns, b.mean_latency_ns) << cell;
  EXPECT_EQ(a.p50_latency_ns, b.p50_latency_ns) << cell;
  EXPECT_EQ(a.p95_latency_ns, b.p95_latency_ns) << cell;
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns) << cell;
  EXPECT_EQ(a.mean_queue_ns, b.mean_queue_ns) << cell;
  EXPECT_EQ(a.worst_master_p99_ns, b.worst_master_p99_ns) << cell;
  EXPECT_EQ(a.bus_utilization, b.bus_utilization) << cell;
  EXPECT_EQ(a.transactions, b.transactions) << cell;
  EXPECT_EQ(a.bytes, b.bytes) << cell;
  EXPECT_EQ(a.ctx_switches, b.ctx_switches) << cell;
  EXPECT_EQ(a.contended_picks, b.contended_picks) << cell;
  EXPECT_EQ(a.fast_hit_rate, b.fast_hit_rate) << cell;
  EXPECT_EQ(a.error_rate, b.error_rate) << cell;
  EXPECT_EQ(a.retries, b.retries) << cell;
  EXPECT_EQ(a.timeouts, b.timeouts) << cell;
  EXPECT_EQ(a.aborted, b.aborted) << cell;
  EXPECT_EQ(a.goodput_mbps, b.goodput_mbps) << cell;
  EXPECT_EQ(a.slo_miss_pct, b.slo_miss_pct) << cell;
  EXPECT_EQ(a.cost, b.cost) << cell;
}

// The invariants every finished row keeps on platform `p`: the cell
// completes with traffic, its latency columns are ordered, its ratios
// are ratios, goodput never exceeds raw throughput, and the fast-path
// and arbiter columns read 0 where the platform has neither.
inline void expect_row_invariants(const core::Platform& p,
                                  const expl::ExplorationRow& r) {
  SCOPED_TRACE(p.name + "/" + r.workload);
  const bool crossbar = p.bus == core::BusKind::Crossbar;
  EXPECT_EQ(r.platform, p.name);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.pruned);
  EXPECT_GT(r.transactions, 0u);
  EXPECT_GT(r.bytes, 0u);
  EXPECT_LE(r.p50_latency_ns, r.p95_latency_ns);
  EXPECT_LE(r.p95_latency_ns, r.p99_latency_ns);
  EXPECT_LE(r.mean_queue_ns, r.mean_latency_ns);
  EXPECT_GE(r.bus_utilization, 0.0);
  EXPECT_LE(r.bus_utilization, 1.0);
  EXPECT_GE(r.error_rate, 0.0);
  EXPECT_LE(r.error_rate, 1.0);
  EXPECT_LE(r.goodput_mbps, r.throughput_mbps());
  EXPECT_GE(r.fast_hit_rate, 0.0);
  EXPECT_LE(r.fast_hit_rate, 1.0);
  if (!p.fast_targets || crossbar) {
    EXPECT_EQ(r.fast_hit_rate, 0.0);
  }
  if (crossbar) {
    EXPECT_EQ(r.contended_picks, 0u);
  }
}

}  // namespace stlm::test
