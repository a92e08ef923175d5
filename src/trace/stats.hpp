#pragma once
// Lightweight statistics used by the CAMs and the exploration engine:
// named integer counters whose contents render as a report table.
// Latency, queueing and service figures are not kept here; they come
// from the transaction rows (trace/channel_stats.hpp).

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace stlm::trace {

// Restores a stream's formatting state (flags, precision, fill) on scope
// exit. Every report/table printer in the library uses manipulators such
// as std::fixed and std::setprecision; without this guard they would leak
// that state into the caller's stream permanently.
class ScopedOstreamFormat {
public:
  explicit ScopedOstreamFormat(std::ostream& os)
      : os_(os), flags_(os.flags()), precision_(os.precision()),
        fill_(os.fill()) {}
  ~ScopedOstreamFormat() {
    os_.flags(flags_);
    os_.precision(precision_);
    os_.fill(fill_);
  }
  ScopedOstreamFormat(const ScopedOstreamFormat&) = delete;
  ScopedOstreamFormat& operator=(const ScopedOstreamFormat&) = delete;

private:
  std::ostream& os_;
  std::ios_base::fmtflags flags_;
  std::streamsize precision_;
  char fill_;
};

// Named integer counters, rendered as an aligned two-column table.
class StatSet {
public:
  // Stable reference to a counter's storage (map nodes never move): hot
  // paths look the slot up once and bump it without string hashing.
  std::uint64_t& counter_slot(const std::string& name) {
    return counters_[name];
  }
  std::uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void report(std::ostream& os, const std::string& title) const;

  // Every counter back to 0; names and slots stay (a reset system).
  void reset() {
    for (auto& [name, value] : counters_) value = 0;
  }

private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace stlm::trace
