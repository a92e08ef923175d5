#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <ostream>

#include "kernel/process.hpp"
#include "kernel/simulator.hpp"
#include "kernel/stack_pool.hpp"
#include "trace/stats.hpp"

namespace stlm::obs {

namespace {

std::uint64_t wall_now_ns() {
  // stlm-lint: allow(determinism-wall-clock): the profiler's entire job
  // is measuring host wall time; its output goes to a separate profile
  // artifact and never feeds back into simulated state or the trace.
  const auto now = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
}

}  // namespace

void Profiler::attach(Simulator& sim) {
  if (&sim != sim_) proc_rows_.clear();  // serials are per simulator
  detach();
  sim_ = &sim;
  sim.set_profiler(this);
}

void Profiler::detach() {
  if (sim_ != nullptr && sim_->profiler() == this) {
    sim_->set_profiler(nullptr);
  }
  sim_ = nullptr;
  active_ = kNone;
}

void Profiler::add_bus(std::string name, BusSampleFn sample) {
  buses_.emplace_back(std::move(name), std::move(sample));
}

void Profiler::dispatch_begin(const ProcessBase& p) {
  auto [it, inserted] = proc_rows_.try_emplace(p.serial(), procs_.size());
  if (inserted) procs_.push_back({p.name(), 0, 0.0});
  active_ = it->second;
  ++procs_[active_].dispatches;
  t0_ns_ = wall_now_ns();
}

// The scheduler runs one process at a time, so the open row is the
// ending process's.
void Profiler::dispatch_end(const ProcessBase& /*p*/) {
  if (active_ == kNone) return;  // begin was missed (attached mid-dispatch)
  procs_[active_].wall_ns += static_cast<double>(wall_now_ns() - t0_ns_);
  active_ = kNone;
}

Profiler::Snapshot Profiler::snapshot() const {
  Snapshot s;
  if (sim_ != nullptr) {
    s.ctx_switches = sim_->ctx_switches();
    s.inline_advances = sim_->inline_advances();
    const auto& timed = sim_->timed_queue();
    s.timed_pushes = timed.stats().pushes;
    s.timed_peak_size = timed.stats().peak_size;
    s.timed_size = timed.size();
  }
  const auto& pool = detail::StackPool::local();
  s.stack_maps = pool.maps();
  s.stack_reuses = pool.reuses();
  s.stack_peak_in_use = pool.peak_in_use_blocks();
  for (const auto& [name, fn] : buses_) {
    const BusSample bs = fn ? fn() : BusSample{};
    Snapshot::Bus b;
    b.name = name;
    b.transactions = bs.transactions;
    b.fast_hits = bs.fast_hits;
    b.fast_hit_rate =
        bs.transactions != 0
            ? static_cast<double>(bs.fast_hits) /
                  static_cast<double>(bs.transactions)
            : 0.0;
    s.total_transactions += bs.transactions;
    s.total_fast_hits += bs.fast_hits;
    s.buses.push_back(std::move(b));
  }
  s.fast_hit_rate = s.total_transactions != 0
                        ? static_cast<double>(s.total_fast_hits) /
                              static_cast<double>(s.total_transactions)
                        : 0.0;
  for (const ProcessSlot& slot : procs_) {
    s.processes.push_back(slot);
    s.total_wall_ns += slot.wall_ns;
  }
  std::sort(s.processes.begin(), s.processes.end(),
            [](const ProcessSlot& a, const ProcessSlot& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
              return a.name < b.name;
            });
  return s;
}

void Profiler::write_table(std::ostream& os) const {
  const Snapshot s = snapshot();
  trace::ScopedOstreamFormat guard(os);
  os << "kernel profile\n";
  os << "  ctx switches            " << s.ctx_switches << "\n";
  os << "  inline advances         " << s.inline_advances << "\n";
  os << "  timed pushes            " << s.timed_pushes << "\n";
  os << "  timed occupancy         " << s.timed_size << " (peak "
     << s.timed_peak_size << ")\n";
  os << "  stack maps              " << s.stack_maps << " (reuses "
     << s.stack_reuses << ", peak in use " << s.stack_peak_in_use << ")\n";
  os << std::fixed << std::setprecision(3);
  os << "  fast-path hit rate      " << s.fast_hit_rate << " ("
     << s.total_fast_hits << "/" << s.total_transactions << ")\n";
  if (!s.buses.empty()) {
    os << "  buses:\n";
    for (const auto& b : s.buses) {
      os << "    " << std::left << std::setw(24) << b.name << std::right
         << std::setw(12) << b.transactions << " txns" << std::setw(12)
         << b.fast_hits << " fast  rate " << b.fast_hit_rate << "\n";
    }
  }
  if (!s.processes.empty()) {
    os << "  processes by wall time:\n";
    for (const auto& p : s.processes) {
      const double share =
          s.total_wall_ns > 0.0 ? 100.0 * p.wall_ns / s.total_wall_ns : 0.0;
      os << "    " << std::left << std::setw(24) << p.name << std::right
         << std::setw(12) << p.dispatches << " disp" << std::setw(12)
         << std::setprecision(3) << p.wall_ns / 1e6 << " ms  "
         << std::setprecision(1) << std::setw(5) << share << "%\n";
    }
  }
}

void Profiler::write_json(std::ostream& os) const {
  const Snapshot s = snapshot();
  trace::ScopedOstreamFormat guard(os);
  os << std::setprecision(17);
  os << "{\n";
  os << "  \"ctx_switches\": " << s.ctx_switches << ",\n";
  os << "  \"inline_advances\": " << s.inline_advances << ",\n";
  os << "  \"timed_pushes\": " << s.timed_pushes << ",\n";
  os << "  \"timed_peak_size\": " << s.timed_peak_size << ",\n";
  os << "  \"stack_maps\": " << s.stack_maps << ",\n";
  os << "  \"stack_reuses\": " << s.stack_reuses << ",\n";
  os << "  \"stack_peak_in_use\": " << s.stack_peak_in_use << ",\n";
  os << "  \"transactions\": " << s.total_transactions << ",\n";
  os << "  \"fast_hits\": " << s.total_fast_hits << ",\n";
  os << "  \"fast_hit_rate\": " << s.fast_hit_rate << ",\n";
  os << "  \"buses\": [";
  for (std::size_t i = 0; i < s.buses.size(); ++i) {
    const auto& b = s.buses[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << b.name
       << "\", \"transactions\": " << b.transactions
       << ", \"fast_hits\": " << b.fast_hits
       << ", \"fast_hit_rate\": " << b.fast_hit_rate << "}";
  }
  os << (s.buses.empty() ? "]" : "\n  ]") << ",\n";
  os << "  \"processes\": [";
  for (std::size_t i = 0; i < s.processes.size(); ++i) {
    const auto& p = s.processes[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << p.name
       << "\", \"dispatches\": " << p.dispatches
       << ", \"wall_ns\": " << p.wall_ns << "}";
  }
  os << (s.processes.empty() ? "]" : "\n  ]") << "\n";
  os << "}\n";
}

}  // namespace stlm::obs
