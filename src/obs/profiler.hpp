#pragma once
// Kernel self-profiler: answers "where does host wall-clock go" for a
// run, and exposes kernel internals that are otherwise invisible.
//
// Two data sources:
//   * Scheduler hooks — every dispatch of a process (thread resume or
//     method run) is bracketed, attributing host wall-clock and a
//     dispatch count to that process. The wall clock is intentionally
//     kept OUT of the trace/metrics artifacts: those must be
//     byte-deterministic across runs, and host timing never is.
//   * snapshot() — pulls counters the kernel maintains on every run:
//     context switches and lone-runner inline advances from the
//     Simulator, push/occupancy statistics from the timed queue,
//     map/reuse/high-water counts from the calling thread's
//     StackPool, plus per-bus transaction and fast-path-hit counters
//     registered by the harness — one registry instead of four ad-hoc
//     accessors.
//
// Output: write_table() renders a human-readable report; write_json()
// emits a machine-readable dump for CI artifacts and bench history.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace stlm {

class Simulator;
class ProcessBase;

namespace obs {

class Profiler {
public:
  // Per-bus counters sampled at snapshot time. Registered as a callback
  // so each snapshot reads the bus's counters as they stand then, and so
  // this header needs no CAM dependency.
  struct BusSample {
    std::uint64_t transactions = 0;
    std::uint64_t fast_hits = 0;
  };
  using BusSampleFn = std::function<BusSample()>;

  // Per-process attribution accumulated by the scheduler hooks.
  struct ProcessSlot {
    std::string name;
    std::uint64_t dispatches = 0;
    double wall_ns = 0.0;
  };

  struct Snapshot {
    // Scheduler.
    std::uint64_t ctx_switches = 0;    // thread-coroutine resumes
    std::uint64_t inline_advances = 0; // lone-runner wait() fast path
    // Timed queue.
    std::uint64_t timed_pushes = 0;
    std::size_t timed_peak_size = 0;
    std::size_t timed_size = 0;
    // Stack pool (the calling thread's pool).
    std::uint64_t stack_maps = 0;
    std::uint64_t stack_reuses = 0;
    std::size_t stack_peak_in_use = 0;
    // Buses.
    struct Bus {
      std::string name;
      std::uint64_t transactions = 0;
      std::uint64_t fast_hits = 0;
      double fast_hit_rate = 0.0;
    };
    std::vector<Bus> buses;
    std::uint64_t total_transactions = 0;
    std::uint64_t total_fast_hits = 0;
    double fast_hit_rate = 0.0;
    // Processes, sorted by wall_ns descending (name tie-break).
    std::vector<ProcessSlot> processes;
    double total_wall_ns = 0.0;
  };

  ~Profiler() { detach(); }

  // Register with `sim` so scheduler hooks feed this profiler. A profiler
  // detaches when either side is destroyed. Attaching to another
  // simulator keeps the rows recorded so far and starts new ones for its
  // processes.
  void attach(Simulator& sim);
  void detach();
  Simulator* simulator() const { return sim_; }

  void add_bus(std::string name, BusSampleFn sample);

  // --- scheduler hooks (called by the kernel) ------------------------------
  void dispatch_begin(const ProcessBase& p);
  void dispatch_end(const ProcessBase& p);

  // Aggregate everything currently known. Reads the attached Simulator's
  // counters (zeroes if detached) and the calling thread's StackPool, so
  // call it on the thread that ran the simulation.
  Snapshot snapshot() const;

  void write_table(std::ostream& os) const;
  void write_json(std::ostream& os) const;

private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  Simulator* sim_ = nullptr;
  std::vector<ProcessSlot> procs_;
  // ProcessBase::serial -> row of procs_, for the attached simulator.
  std::unordered_map<std::uint64_t, std::size_t> proc_rows_;
  std::vector<std::pair<std::string, BusSampleFn>> buses_;
  std::size_t active_ = kNone;  // row of the process being dispatched
  std::uint64_t t0_ns_ = 0;  // dispatch start, steady-clock nanoseconds
};

}  // namespace obs
}  // namespace stlm
