#pragma once
// Communication architecture exploration engine (paper §3).
//
// Given a workload whose factory builds the *same* abstract system each
// time, the explorer maps it onto each candidate platform at the CAM
// level, runs it to completion, and tabulates: simulated completion time,
// transaction latency, bus utilization, traffic — plus the host wall
// clock it took, which is the "fast yet timing-accurate exploration"
// claim made measurable.
//
// The sweep is two-dimensional: a candidate *platform* list crossed with
// a candidate *workload* list (workload::WorkloadCase — synthetic seeded
// generators, trace replays, or hand-built factories). One-workload
// exploration is the same sweep over a single case; a case with an empty
// name keeps the workload column out of print_table.

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "explore/pool.hpp"
#include "fault/fault.hpp"
#include "workload/spec.hpp"

namespace stlm::expl {

using workload::WorkloadCase;
using workload::workload_candidates;

struct ExplorationRow {
  std::string platform;
  std::string workload;           // the WorkloadCase name (may be empty)
  bool completed = false;
  double sim_time_us = 0.0;       // simulated completion time
  double wall_ms = 0.0;           // host time spent simulating
  double mean_latency_ns = 0.0;   // mean logged transaction latency
  // Latency distribution across every logged transaction — the tail is
  // what tells split/OoO platforms apart once the mean stops moving.
  double p50_latency_ns = 0.0;
  double p95_latency_ns = 0.0;
  // Nearest-rank p99: on fewer than 100 samples it is the largest one.
  // The canonical cells (workload_candidates) log 32 (uniform, bursty),
  // 48 (banked), 64 (pipeline) and 76-96 (reqreply) transactions, so
  // there this column is the single worst transaction.
  double p99_latency_ns = 0.0;
  // Mean queueing delay (issue -> grant): arbitration/outstanding-cap
  // wait, as opposed to the service span the bus itself charges.
  double mean_queue_ns = 0.0;
  // Highest p99 latency any single master observed on the bus (the bus
  // rows grouped by TxnRecord::master). The overall p99 averages the
  // starved master away; this column is what flags unfair arbitration.
  double worst_master_p99_ns = 0.0;
  double bus_utilization = 0.0;
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  // Kernel thread-coroutine dispatches this cell's simulator performed —
  // the scheduler-overhead side of the wall_ms column (src/obs).
  std::uint64_t ctx_switches = 0;
  // Bus grants made with two or more masters eligible, the only picks
  // where the arbiter chose (cam::GrantEngine::contended_picks; 0 on the
  // crossbar, which has no arbiter). 0 certifies this row for every
  // arbiter of the same point (core::arbiter_free_point).
  std::uint64_t contended_picks = 0;
  // Fast-path completions / total bus transactions for this cell (0 for
  // buses without a fast path, e.g. the crossbar).
  double fast_hit_rate = 0.0;
  // Failure-semantics columns (all zero on fault-free platforms).
  // Fraction of logged bus transactions whose final status is not Ok
  // (error / timeout / aborted).
  double error_rate = 0.0;
  // Logged transactions that needed at least one retry to settle.
  std::uint64_t retries = 0;
  // Watchdog deadline misses / retry-exhaustion aborts observed by the
  // platform's RetryPolicy shims (MappedSystem::failure_totals()).
  std::uint64_t timeouts = 0;
  std::uint64_t aborted = 0;
  // Useful delivered bandwidth: bytes of delivered-data transactions per
  // simulated second, in MB/s. "Delivered" follows Transaction::
  // data_valid() — Ok plus late-but-correct Timeout — so a watchdog miss
  // whose payload still arrived counts toward goodput while errored and
  // aborted bursts do not.
  double goodput_mbps = 0.0;
  // Fraction of logged bus transactions whose latency exceeded the
  // explorer's SLO threshold (Explorer::set_slo); 0 when no SLO set.
  double slo_miss_pct = 0.0;
  // Platform::cost_proxy() of the cell's platform — recorded on the row
  // so Pareto extraction over (perf, cost) needs no platform lookup.
  double cost = 0.0;
  // Set by SearchDriver when it ran this cell only up to its abort time
  // (SearchConfig::abort_slack) and the workload did not finish by then:
  // the sim columns describe a truncated run and must not be compared
  // against completed rows.
  bool pruned = false;
  // Set when sweep_parallel copied this row from its certified arbiter
  // sibling instead of simulating it: that sibling's platform name. The
  // simulated columns are the sibling's, platform and cost are this
  // cell's own, and wall_ms is 0.
  std::string shared_from;

  // Raw delivered bandwidth in MB/s (bytes / us == MB/s); the
  // maximization objective search drivers minimize the negation of.
  double throughput_mbps() const {
    return sim_time_us > 0.0
               ? static_cast<double>(bytes) / sim_time_us
               : 0.0;
  }
};

// True when `channel` is a per-master "<bus>.<master>" channel of the bus
// channel `bus_channel`. Traces captured before CSV schema v4 logged every
// bus row a second time under that channel (v4 tags the one bus row with
// TxnRecord::master instead); consumers aggregating such a trace across
// channels must skip these rows or they count twice.
// `master_labels` are the bus's registered master names (see
// CamIf::master_label); matching the suffix against them keeps other
// channels that merely share the bus-name prefix plus a dot (e.g. a
// hierarchical child module of the bus) in the overall distribution.
inline bool is_master_channel(const std::string& channel,
                              const std::string& bus_channel,
                              const std::vector<std::string>& master_labels) {
  if (channel.size() <= bus_channel.size() + 1 ||
      channel.compare(0, bus_channel.size(), bus_channel) != 0 ||
      channel[bus_channel.size()] != '.') {
    return false;
  }
  const char* suffix = channel.c_str() + bus_channel.size() + 1;
  for (const std::string& label : master_labels) {
    if (label == suffix) return true;
  }
  return false;
}

class Explorer {
public:
  // Opt-in "trace this row": when a sweep evaluates the cell whose
  // platform and workload names match, an obs::TraceSession is attached
  // to that cell's private simulator and the Chrome Trace Event JSON is
  // written to `path` after the run — drill into any grid candidate with
  // Perfetto without re-running the sweep under a debugger. No-op when
  // `path` is empty.
  struct TraceTarget {
    std::string platform;
    std::string workload;
    std::string path;
  };
  void set_trace_target(TraceTarget t) { trace_target_ = std::move(t); }

  // Latency service-level objective: rows report the fraction of bus
  // transactions slower than this threshold in slo_miss_pct. Zero
  // (default) disables the column.
  void set_slo(Time threshold) { slo_ = threshold; }

  // Map + simulate one cell: a fresh SystemGraph (from the workload's
  // factory), Simulator and MappedSystem, run until the last PE returns,
  // the cell deadlocks or `max_time` passes (MappedSystem::
  // run_until_done). It is a one-cell run of the runner every sweep cell
  // runs on, and its first cell is always mapped, so its row is the
  // reference a reset cell's row must equal. The row's `pruned` stays
  // false; only SearchDriver sets it.
  ExplorationRow evaluate(const core::Platform& platform,
                          const WorkloadCase& workload, Time max_time);

  // Evaluate the platform x workload grid on `n_threads` WorkPool workers,
  // the calling thread included. Rows are platform-major: row index =
  // platform_index * workloads.size() + workload_index.
  //
  // Every cell runs on a runner, the one path that builds a cell's graph,
  // binds a system to it, runs it and fills its row (evaluate() is a
  // one-cell run). A runner maps its first cell (core::Mapper::map); a
  // later cell whose graph has the bound graph's shape
  // (core::SystemGraph::same_shape) runs on the same system after
  // MappedSystem::reset rebinds it, and its row equals evaluate()'s in
  // every simulated column. Workloads whose factories build graphs of
  // one shape (a seeded workload at several seeds: the seeds live inside
  // the PEs) form a shape group; the sweep calls every factory once up
  // front to find them.
  //
  // Candidates with equal core::arbiter_free_point are arbiter siblings;
  // the first of them in input order is the group's representative. The
  // sweep submits one task per (representative, shape group). The task
  // runs the representative's cells of the group on one runner, then
  // each sibling's cells in turn. A representative's cell that finished
  // with contended_picks == 0 saw no arbiter choose, so every sibling
  // would have run identically: the sibling's row is a copy (shared_from
  // set, wall_ms 0, own platform and cost). Otherwise the sibling's cell
  // runs on that sibling's own runner. A grid lists the crossbar, which
  // has no siblings, last, so its short tasks are the queue's tail.
  //
  // The TraceTarget cell is always simulated, on a system mapped afresh
  // with the trace session attached for its run only; the task's later
  // cells of the group reset that system. Every task runs its cells on
  // its own simulators, so no simulation state crosses threads (the
  // kernel's "current simulator" is thread-local by design), and since
  // the certificate is a simulated column, rows, the shared-cell count
  // and the mapped-cell count are bit-identical at any thread count.
  // With one thread the caller runs the tasks in submission order:
  // representatives in platform order, each followed by its siblings'
  // simulated cells. The first exception thrown by any cell is rethrown
  // on the calling thread after all workers have joined; remaining cells
  // are abandoned.
  //
  // Workload factories are invoked concurrently and must be thread-safe
  // (stateless factories, like every one in this repo, are).
  std::vector<ExplorationRow> sweep_parallel(
      const std::vector<core::Platform>& cands,
      const std::vector<WorkloadCase>& workloads, Time max_time,
      unsigned n_threads);

  static void print_table(std::ostream& os,
                          const std::vector<ExplorationRow>& rows);

  // Helper-thread creation failures during the last sweep or search on
  // this explorer (a search sums its rungs' pools). Non-zero means the
  // run *completed correctly* but at reduced parallelism (the calling
  // thread always participates, so a failed spawn can never stall it) —
  // degraded, not wrong.
  unsigned last_spawn_failures() const { return last_spawn_failures_; }

  // Cells of the last sweep whose row was copied from a certified arbiter
  // sibling rather than simulated (rows with shared_from set).
  std::size_t last_shared_cells() const { return last_shared_cells_; }

  // Cells of the last sweep that were mapped (core::Mapper::map); the
  // other simulated cells ran on a reset system of their shape group.
  std::size_t last_mapped_cells() const { return last_mapped_cells_; }

  // Test seam: substitute how sweep and search workers are created (see
  // WorkPool::ThreadFactory). Default-constructed = real std::thread.
  void set_thread_factory(WorkPool::ThreadFactory f) {
    thread_factory_ = std::move(f);
  }

private:
  // A search builds its rung pools from thread_factory_ and reports
  // their spawn failures through last_spawn_failures_.
  friend class SearchDriver;

  // Builds, binds (maps or resets), runs and analyses cells, one at a
  // time, on one system (explorer.cpp).
  class Runner;

  // Fill the row's latency, failure and goodput columns from the cell's
  // transaction log (sim_time_us must already be set).
  void analyze_log(core::MappedSystem& ms, ExplorationRow& row) const;

  TraceTarget trace_target_;
  Time slo_ = Time::zero();
  WorkPool::ThreadFactory thread_factory_;
  unsigned last_spawn_failures_ = 0;
  std::size_t last_shared_cells_ = 0;
  std::size_t last_mapped_cells_ = 0;
};

// Canonical candidate list covering the CAM library.
std::vector<core::Platform> default_candidates();

// Cross-product candidate grid: BusKind x ArbKind x bus cycle x data
// width x outstanding depth. The crossbar has no arbiter, so it
// contributes one point per (cycle, width) pair instead of one per
// arbiter (its `arb` field holds the axis's first arbiter, see
// core::finish_knob_point); OPB has no address pipelining, so it skips
// the split (max_outstanding > 1) points. An outstanding depth of 1 is
// the atomic bus; a depth k > 1 becomes a split platform (`split_txns =
// true, max_outstanding = k`, named "-split<k>"). The fast-target axis
// applies to atomic points only (the fast path never engages in split
// mode): a `true` entry duplicates every atomic point with
// `fast_targets` on, named "-fast". The defaults span 108 platforms (68
// distinct timing points + 40 fast variants) — the workload the
// parallel sweep is built to chew through.
//
// The failure axes cross every timing point with a fault profile and a
// retry policy. The defaults hold a single *inactive* entry each, so the
// default grid is exactly the 108 fault-free platforms above with
// unchanged names; an active FaultProfile/RetrySpec appends "-<name>" to
// the platform name and sets Platform::fault / Platform::retry.
struct GridSpec {
  // The timing axes; also the knob space a search mutates in
  // (core::grid_neighbors) to stay inside this grid.
  core::KnobSpace knobs{
      {core::BusKind::SharedBus, core::BusKind::Plb, core::BusKind::Opb,
       core::BusKind::Crossbar},
      {core::ArbKind::Priority, core::ArbKind::RoundRobin,
       core::ArbKind::Tdma},
      {Time::ns(10), Time::ns(20)},
      {4, 8},
      {1, 4},
      {false, true}};
  // The failure axes. They are not knobs: a mutated neighbor inherits
  // its parent's fault/retry configuration unchanged.
  std::vector<fault::FaultProfile> faults{{}};
  std::vector<fault::RetrySpec> retries{{}};
};

std::vector<core::Platform> grid_candidates(const GridSpec& spec = {});

}  // namespace stlm::expl
