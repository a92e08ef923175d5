#pragma once
// Latency distributions derived from a TxnLogger — over the whole log
// (latency_dist(log.records())) or per channel.
//
// A mean/max pair cannot rank platforms whose split engines reorder
// completions: a split bus often *improves* the mean while a handful of
// capacity-starved transactions blow out the tail. LatencyDist carries
// the full picture — exact nearest-rank percentiles (p50/p95/p99), the
// queueing/service split (queue = grant − issue, service = completion −
// grant).
//
// All numbers are derived purely from recorded timestamps, so they are
// bit-identical run-to-run and across sweep vs. sweep_parallel like
// every other simulated metric.

#include <ostream>
#include <string>
#include <vector>

#include "trace/txn_log.hpp"

namespace stlm::trace {

// Nearest-rank percentile (pct in (0, 100]) over `samples`. Partially
// sorts the buffer in place; returns 0 for an empty buffer.
double percentile(std::vector<double>& samples, double pct);

// Nearest-rank p50, p95 and p99 of `samples` — the values three
// percentile() calls return — from one selection pass: each pick
// partitions the buffer, so the next, higher rank is selected only among
// the elements after it. Partially sorts the buffer in place; all zero
// for an empty buffer.
struct TailPercentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};
TailPercentiles tail_percentiles(std::vector<double>& samples);

// Latency distribution over a set of records.
struct LatencyDist {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double mean_ns = 0.0;
  double max_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  // Queueing delay (issue -> grant) and service span (grant -> end).
  double mean_queue_ns = 0.0;
  double max_queue_ns = 0.0;
  double mean_service_ns = 0.0;
  double max_service_ns = 0.0;
  // Failure-semantics tallies (schema v3 record fields): final-status
  // counts and how many records settled only after at least one retry.
  // All zero on channels without failure semantics.
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t aborted = 0;
  std::uint64_t retried = 0;
};

// Distribution over every record in the log.
LatencyDist latency_dist(const std::vector<TxnRecord>& records);

struct ChannelStats {
  std::string channel;
  LatencyDist dist;
};

// One ChannelStats per channel that logged at least one record, and per
// bus master (TxnRecord::master) that issued one, in interning order
// (wiring order — deterministic for a given build). A master's row
// reuses its interned "<bus>.<label>" name.
std::vector<ChannelStats> per_channel_stats(const TxnLogger& log);

// Aligned per-channel table: count, bytes, mean/p50/p95/p99 latency,
// mean queueing delay, mean service span, error/timeout/retry tallies.
// Restores stream formatting.
void print_channel_table(std::ostream& os,
                         const std::vector<ChannelStats>& rows);

}  // namespace stlm::trace
