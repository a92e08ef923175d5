// Tests for transaction ids: each simulator numbers the transactions
// begun while it is current from 1 up, and the process-wide count (what
// a Txn begun with no simulator current reads) is exact once the
// simulators that issued ids are gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "explore/explore.hpp"
#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {

// Begins one transaction with no simulator current: its id is the
// process-wide count of transactions begun so far, itself included.
std::uint64_t process_wide_id() {
  Txn probe;
  probe.begin_msg();
  return probe.id;
}

// The first default-grid platform x the first canonical workload, mapped
// at CAM level and run to completion; returns the log's txn column.
std::vector<std::uint64_t> first_cell_txn_column() {
  const core::Platform p = expl::grid_candidates()[0];
  const workload::WorkloadCase w = expl::workload_candidates()[0];
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  w.factory(graph, owned);
  graph.discover_roles();
  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, p, core::AbstractionLevel::Cam);
  EXPECT_TRUE(ms->run_until_done(200_ms));
  std::vector<std::uint64_t> column;
  for (const auto& r : ms->txn_log().records()) column.push_back(r.txn);
  return column;
}

}  // namespace

TEST(TxnIds, DenseFromOneInTheCurrentSimulator) {
  Simulator outer;
  Txn t;
  t.begin_msg();
  EXPECT_EQ(t.id, 1u);
  t.begin_read(0x10, 4);
  EXPECT_EQ(t.id, 2u);
  t.rearm_retry();  // a retry keeps its logical transaction's id
  EXPECT_EQ(t.id, 2u);
  {
    Simulator inner;  // the most recently constructed one is current
    t.begin_msg();
    EXPECT_EQ(t.id, 1u);
    // A running simulator is current while it runs, even below a newer
    // live one.
    std::uint64_t in_run = 0;
    outer.spawn_thread("p", [&] {
      Txn u;
      u.begin_write(0x20, &in_run, sizeof in_run);
      in_run = u.id;
    });
    outer.run();
    EXPECT_EQ(in_run, 3u);
    t.begin_msg();
    EXPECT_EQ(t.id, 2u);
    EXPECT_EQ(inner.txn_ids_issued(), 2u);
  }
  t.begin_msg();  // `outer` is current again
  EXPECT_EQ(t.id, 4u);
  EXPECT_EQ(outer.txn_ids_issued(), 4u);
}

// A cell's ids do not depend on which cells ran before it in the
// process: two runs of one cell log the same txn column.
TEST(TxnIds, ACellLogsTheSameIdsOnEveryRun) {
  const std::vector<std::uint64_t> first = first_cell_txn_column();
  const std::vector<std::uint64_t> second = first_cell_txn_column();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The count contract perfbench's search workload divides by: once a
// cell's simulator is destroyed, a Txn begun with no simulator current
// reads the previous such id plus every id that simulator issued, plus
// one for itself.
TEST(TxnIds, ADestroyedSimulatorJoinsTheProcessWideCount) {
  const core::Platform p = expl::grid_candidates()[0];
  const workload::WorkloadCase w = expl::workload_candidates()[0];
  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  w.factory(graph, owned);
  graph.discover_roles();

  const std::uint64_t before = process_wide_id();
  std::uint64_t issued = 0;
  {
    Simulator sim;
    auto ms = core::Mapper::map(sim, graph, p, core::AbstractionLevel::Cam);
    ASSERT_TRUE(ms->run_until_done(200_ms));
    ms.reset();
    // While the simulator lives it is current, so this draws from it.
    Txn inside;
    inside.begin_msg();
    issued = sim.txn_ids_issued();
    EXPECT_EQ(inside.id, issued);
  }
  EXPECT_GT(issued, 1u);
  EXPECT_EQ(process_wide_id(), before + issued + 1);
}

// Worker threads draw ids from their own cells' simulators, so the
// process-wide count a sweep adds does not depend on the thread count.
TEST(TxnIds, ASweepAddsTheSameCountAtOneAndFourThreads) {
  const auto grid = expl::grid_candidates();
  const std::vector<core::Platform> plats(grid.begin(), grid.begin() + 12);
  const auto loads = expl::workload_candidates();
  expl::Explorer ex;
  auto added = [&](unsigned threads) {
    const std::uint64_t before = process_wide_id();
    const auto rows = ex.sweep_parallel(plats, loads, 200_ms, threads);
    EXPECT_EQ(rows.size(), plats.size() * loads.size());
    return process_wide_id() - before - 1;
  };
  const std::uint64_t one = added(1);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(added(4), one);
}
