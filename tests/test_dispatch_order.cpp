// The dispatch-order check (docs/ARCHITECTURE.md): IEEE 1666 leaves the
// order of co-runnable processes unspecified, so a simulated outcome that
// changes under DispatchOrder::Reverse comes from the kernel's queue, not
// from the modelled hardware. Racy fixtures must change an observable
// outcome under Reverse; causal and single-process fixtures must not.
// The default exploration grid's order-dependent cells are a pinned list
// that may only shrink.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::expl;
using namespace stlm::time_literals;

namespace {

// Two processes, both runnable from time zero, both appending to one
// shared vector in the same delta cycle: the run queue, not simulated
// causality, decides whose value lands first.
std::vector<int> co_runnable_writers(DispatchOrder order) {
  Simulator sim;
  sim.set_dispatch_order(order);
  std::vector<int> out;
  sim.spawn_thread("w1", [&] { out.push_back(1); });
  sim.spawn_thread("w2", [&] { out.push_back(2); });
  sim.run();
  return out;
}

// The same race repeated every 10 ns.
std::vector<int> repeated_writers(DispatchOrder order) {
  Simulator sim;
  sim.set_dispatch_order(order);
  std::vector<int> out;
  sim.spawn_thread("w1", [&] {
    for (int i = 1; i <= 3; ++i) {
      out.push_back(i);
      wait(10_ns);
    }
  });
  sim.spawn_thread("w2", [&] {
    for (int i = 1; i <= 3; ++i) {
      out.push_back(-i);
      wait(10_ns);
    }
  });
  sim.run();
  return out;
}

// A blocking producer/consumer pair through a two-slot buffer (a shared
// vector and a read index, with one event per direction): the consumer
// only runs because the producer woke it, and the producer only refills
// because the consumer woke it, so the order cannot matter.
struct CausalResult {
  std::vector<int> read;
  Time end;
  bool operator==(const CausalResult&) const = default;
};
CausalResult causal_producer_consumer(DispatchOrder order) {
  constexpr std::size_t kSlots = 2;
  Simulator sim;
  sim.set_dispatch_order(order);
  Event written(sim, "written");
  Event taken(sim, "taken");
  std::vector<int> buf;
  std::size_t head = 0;
  CausalResult r;
  sim.spawn_thread("producer", [&] {
    for (int i = 1; i <= 16; ++i) {
      while (buf.size() - head >= kSlots) wait(taken);
      buf.push_back(i);
      written.notify_delta();
      if (i % 4 == 0) wait(5_ns);
    }
  });
  sim.spawn_thread("consumer", [&] {
    for (int i = 0; i < 16; ++i) {
      while (head == buf.size()) wait(written);
      r.read.push_back(buf[head++]);
      taken.notify_delta();
    }
  });
  sim.run();
  r.end = sim.now();
  return r;
}

// One process appending repeatedly is not a race with itself.
std::vector<int> single_process(DispatchOrder order) {
  Simulator sim;
  sim.set_dispatch_order(order);
  std::vector<int> out;
  std::vector<int> seen;
  sim.spawn_thread("solo", [&] {
    for (int i = 0; i < 8; ++i) out.push_back(i);
    wait(10_ns);
    seen = out;
  });
  sim.run();
  return seen;
}

// Sets the process-wide default for a scope, so the simulators an
// Explorer builds internally run in that order, and restores it.
struct DefaultOrderScope {
  explicit DefaultOrderScope(DispatchOrder o)
      : prev_(Simulator::default_dispatch_order()) {
    Simulator::set_default_dispatch_order(o);
  }
  ~DefaultOrderScope() { Simulator::set_default_dispatch_order(prev_); }
  DefaultOrderScope(const DefaultOrderScope&) = delete;
  DefaultOrderScope& operator=(const DefaultOrderScope&) = delete;
  DispatchOrder prev_;
};

// The first simulated column in which two rows of one cell differ, as
// "column: a vs b", or "" when every one matches. wall_ms and
// ctx_switches are host-side and left out.
std::string first_difference(const ExplorationRow& a,
                             const ExplorationRow& b) {
  std::ostringstream os;
  os.precision(17);
  auto differs = [&os](const char* column, const auto& x, const auto& y) {
    if (x == y) return false;
    os << column << ": " << x << " vs " << y;
    return true;
  };
  (void)(differs("completed", a.completed, b.completed) ||
         differs("pruned", a.pruned, b.pruned) ||
         differs("sim_time_us", a.sim_time_us, b.sim_time_us) ||
         differs("mean_latency_ns", a.mean_latency_ns, b.mean_latency_ns) ||
         differs("p50_latency_ns", a.p50_latency_ns, b.p50_latency_ns) ||
         differs("p95_latency_ns", a.p95_latency_ns, b.p95_latency_ns) ||
         differs("p99_latency_ns", a.p99_latency_ns, b.p99_latency_ns) ||
         differs("mean_queue_ns", a.mean_queue_ns, b.mean_queue_ns) ||
         differs("worst_master_p99_ns", a.worst_master_p99_ns,
                 b.worst_master_p99_ns) ||
         differs("bus_utilization", a.bus_utilization, b.bus_utilization) ||
         differs("transactions", a.transactions, b.transactions) ||
         differs("bytes", a.bytes, b.bytes) ||
         differs("contended_picks", a.contended_picks, b.contended_picks) ||
         differs("fast_hit_rate", a.fast_hit_rate, b.fast_hit_rate) ||
         differs("error_rate", a.error_rate, b.error_rate) ||
         differs("retries", a.retries, b.retries) ||
         differs("timeouts", a.timeouts, b.timeouts) ||
         differs("aborted", a.aborted, b.aborted) ||
         differs("goodput_mbps", a.goodput_mbps, b.goodput_mbps) ||
         differs("slo_miss_pct", a.slo_miss_pct, b.slo_miss_pct) ||
         differs("cost", a.cost, b.cost) ||
         differs("shared_from", a.shared_from, b.shared_from));
  return os.str();
}

// The default-grid cells whose simulated columns differ between Fifo and
// Reverse today, sorted. Each is a model race still to fix; fixing one
// means deleting its line, and a cell that starts to differ fails.
const std::vector<std::string> kOrderDependentCells = {
    "crossbar-10ns-32b-fast/banked",
    "crossbar-10ns-32b/banked",
    "crossbar-10ns-64b-fast/banked",
    "crossbar-10ns-64b/banked",
    "opb-priority-10ns-32b-fast/pipeline",
    "opb-priority-10ns-32b-fast/reqreply",
    "opb-priority-10ns-64b-fast/pipeline",
    "opb-priority-10ns-64b-fast/reqreply",
    "opb-priority-10ns-64b/reqreply",
    "opb-priority-20ns-32b-fast/pipeline",
    "opb-priority-20ns-64b-fast/pipeline",
    "opb-priority-20ns-64b-fast/reqreply",
    "opb-round-robin-10ns-32b-fast/pipeline",
    "opb-round-robin-10ns-32b-fast/reqreply",
    "opb-round-robin-10ns-64b-fast/pipeline",
    "opb-round-robin-20ns-32b-fast/reqreply",
    "opb-round-robin-20ns-64b-fast/reqreply",
    "opb-tdma-10ns-32b-fast/pipeline",
    "opb-tdma-10ns-32b-fast/reqreply",
    "opb-tdma-10ns-32b/reqreply",
    "opb-tdma-10ns-64b-fast/pipeline",
    "opb-tdma-10ns-64b-fast/reqreply",
    "opb-tdma-20ns-32b-fast/pipeline",
    "opb-tdma-20ns-32b-fast/reqreply",
    "opb-tdma-20ns-64b-fast/pipeline",
    "opb-tdma-20ns-64b-fast/reqreply",
    "plb-priority-10ns-32b-fast/bursty",
    "plb-priority-10ns-32b-fast/reqreply",
    "plb-priority-10ns-32b-fast/uniform",
    "plb-priority-10ns-32b-split4/pipeline",
    "plb-priority-10ns-64b-fast/bursty",
    "plb-priority-10ns-64b-fast/pipeline",
    "plb-priority-10ns-64b-fast/reqreply",
    "plb-priority-10ns-64b-fast/uniform",
    "plb-priority-10ns-64b-split4/pipeline",
    "plb-priority-20ns-32b-fast/pipeline",
    "plb-priority-20ns-32b-fast/reqreply",
    "plb-priority-20ns-32b-split4/pipeline",
    "plb-priority-20ns-32b/reqreply",
    "plb-priority-20ns-64b-fast/reqreply",
    "plb-priority-20ns-64b-split4/pipeline",
    "plb-priority-20ns-64b/reqreply",
    "plb-round-robin-10ns-32b-fast/bursty",
    "plb-round-robin-10ns-32b-fast/reqreply",
    "plb-round-robin-10ns-32b-split4/pipeline",
    "plb-round-robin-10ns-64b-fast/bursty",
    "plb-round-robin-10ns-64b-fast/pipeline",
    "plb-round-robin-10ns-64b-fast/reqreply",
    "plb-round-robin-10ns-64b-split4/banked",
    "plb-round-robin-10ns-64b-split4/pipeline",
    "plb-round-robin-10ns-64b/reqreply",
    "plb-round-robin-20ns-32b-fast/pipeline",
    "plb-round-robin-20ns-32b-split4/pipeline",
    "plb-round-robin-20ns-64b-fast/pipeline",
    "plb-round-robin-20ns-64b-split4/pipeline",
    "plb-tdma-10ns-32b-fast/bursty",
    "plb-tdma-10ns-32b-fast/reqreply",
    "plb-tdma-10ns-32b-split4/pipeline",
    "plb-tdma-10ns-64b-fast/bursty",
    "plb-tdma-10ns-64b-fast/pipeline",
    "plb-tdma-10ns-64b-fast/reqreply",
    "plb-tdma-10ns-64b-split4/pipeline",
    "plb-tdma-20ns-32b-fast/pipeline",
    "plb-tdma-20ns-32b-split4/pipeline",
    "plb-tdma-20ns-64b-fast/pipeline",
    "plb-tdma-20ns-64b-split4/pipeline",
    "shared-bus-priority-10ns-32b-fast/pipeline",
    "shared-bus-priority-10ns-32b-fast/reqreply",
    "shared-bus-priority-10ns-32b-split4/pipeline",
    "shared-bus-priority-10ns-32b/reqreply",
    "shared-bus-priority-10ns-64b-fast/pipeline",
    "shared-bus-priority-10ns-64b-fast/reqreply",
    "shared-bus-priority-10ns-64b-split4/banked",
    "shared-bus-priority-10ns-64b-split4/pipeline",
    "shared-bus-priority-20ns-32b-fast/pipeline",
    "shared-bus-priority-20ns-32b-fast/reqreply",
    "shared-bus-priority-20ns-32b-split4/pipeline",
    "shared-bus-priority-20ns-32b/reqreply",
    "shared-bus-priority-20ns-64b-fast/bursty",
    "shared-bus-priority-20ns-64b-fast/pipeline",
    "shared-bus-priority-20ns-64b-fast/reqreply",
    "shared-bus-priority-20ns-64b-split4/pipeline",
    "shared-bus-round-robin-10ns-32b-fast/pipeline",
    "shared-bus-round-robin-10ns-32b-fast/reqreply",
    "shared-bus-round-robin-10ns-32b-fast/uniform",
    "shared-bus-round-robin-10ns-32b-split4/pipeline",
    "shared-bus-round-robin-10ns-64b-fast/pipeline",
    "shared-bus-round-robin-10ns-64b-fast/reqreply",
    "shared-bus-round-robin-10ns-64b-split4/banked",
    "shared-bus-round-robin-10ns-64b-split4/pipeline",
    "shared-bus-round-robin-20ns-32b-fast/reqreply",
    "shared-bus-round-robin-20ns-32b-split4/pipeline",
    "shared-bus-round-robin-20ns-64b-fast/bursty",
    "shared-bus-round-robin-20ns-64b-fast/pipeline",
    "shared-bus-round-robin-20ns-64b-fast/reqreply",
    "shared-bus-round-robin-20ns-64b-split4/pipeline",
    "shared-bus-round-robin-20ns-64b/reqreply",
    "shared-bus-tdma-10ns-32b-fast/pipeline",
    "shared-bus-tdma-10ns-32b-fast/reqreply",
    "shared-bus-tdma-10ns-32b-split4/pipeline",
    "shared-bus-tdma-10ns-64b-fast/pipeline",
    "shared-bus-tdma-10ns-64b-fast/reqreply",
    "shared-bus-tdma-10ns-64b-split4/banked",
    "shared-bus-tdma-10ns-64b-split4/pipeline",
    "shared-bus-tdma-20ns-32b-fast/pipeline",
    "shared-bus-tdma-20ns-32b-fast/reqreply",
    "shared-bus-tdma-20ns-32b-split4/pipeline",
    "shared-bus-tdma-20ns-32b/reqreply",
    "shared-bus-tdma-20ns-64b-fast/bursty",
    "shared-bus-tdma-20ns-64b-fast/pipeline",
    "shared-bus-tdma-20ns-64b-fast/reqreply",
    "shared-bus-tdma-20ns-64b-split4/pipeline",
    "shared-bus-tdma-20ns-64b/reqreply",
};

}  // namespace

TEST(DispatchOrder, CoRunnableWritersSwapUnderReverse) {
  EXPECT_EQ(co_runnable_writers(DispatchOrder::Fifo), (std::vector{1, 2}));
  EXPECT_EQ(co_runnable_writers(DispatchOrder::Reverse), (std::vector{2, 1}));
}

TEST(DispatchOrder, RepeatedRaceChangesTheContents) {
  const std::vector<int> fifo = repeated_writers(DispatchOrder::Fifo);
  EXPECT_EQ(fifo, (std::vector{1, -1, 2, -2, 3, -3}));
  EXPECT_NE(repeated_writers(DispatchOrder::Reverse), fifo);
}

TEST(DispatchOrder, CausalProducerConsumerIsOrderFree) {
  const CausalResult fifo = causal_producer_consumer(DispatchOrder::Fifo);
  ASSERT_EQ(fifo.read.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fifo.read[i], i + 1);
  EXPECT_EQ(causal_producer_consumer(DispatchOrder::Reverse), fifo);
}

TEST(DispatchOrder, SingleProcessIsOrderFree) {
  const std::vector<int> fifo = single_process(DispatchOrder::Fifo);
  EXPECT_EQ(fifo, (std::vector{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(single_process(DispatchOrder::Reverse), fifo);
}

// Every cell of the default grid x canonical workloads, evaluated under
// both orders on one thread. The cells that differ must be exactly the
// pinned list.
TEST(DispatchOrder, DefaultGridMatchesThePinnedList) {
  const auto plats = grid_candidates();
  const auto loads = workload_candidates();
  ASSERT_EQ(plats.size(), 108u);
  ASSERT_EQ(loads.size(), 5u);
  auto evaluate_all = [&](DispatchOrder order) {
    DefaultOrderScope scope(order);
    Explorer ex;
    std::vector<ExplorationRow> rows;
    rows.reserve(plats.size() * loads.size());
    for (const auto& p : plats) {
      for (const auto& w : loads) rows.push_back(ex.evaluate(p, w, 200_ms));
    }
    return rows;
  };
  const std::vector<ExplorationRow> fifo = evaluate_all(DispatchOrder::Fifo);
  const std::vector<ExplorationRow> reverse =
      evaluate_all(DispatchOrder::Reverse);
  ASSERT_EQ(fifo.size(), 540u);
  ASSERT_EQ(reverse.size(), 540u);

  std::vector<std::string> differing;
  std::vector<std::string> unexpected;
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    const std::string cell = fifo[i].platform + "/" + fifo[i].workload;
    EXPECT_TRUE(fifo[i].completed) << cell;
    const std::string diff = first_difference(fifo[i], reverse[i]);
    if (diff.empty()) continue;
    differing.push_back(cell);
    if (!std::binary_search(kOrderDependentCells.begin(),
                            kOrderDependentCells.end(), cell)) {
      unexpected.push_back(cell + " (" + diff + ")");
    }
  }
  std::sort(differing.begin(), differing.end());
  ASSERT_TRUE(std::is_sorted(kOrderDependentCells.begin(),
                             kOrderDependentCells.end()));
  std::vector<std::string> fixed;
  std::set_difference(kOrderDependentCells.begin(),
                      kOrderDependentCells.end(), differing.begin(),
                      differing.end(), std::back_inserter(fixed));
  std::ostringstream report;
  for (const std::string& u : unexpected) {
    report << "  newly order-dependent: " << u << "\n";
  }
  for (const std::string& f : fixed) {
    report << "  no longer order-dependent, unpin it: " << f << "\n";
  }
  EXPECT_TRUE(unexpected.empty() && fixed.empty())
      << differing.size() << " cells differ between Fifo and Reverse, "
      << kOrderDependentCells.size() << " pinned\n"
      << report.str();
}
