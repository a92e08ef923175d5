#include "trace/channel_stats.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <utility>

#include "trace/stats.hpp"

namespace stlm::trace {

namespace {

// 0-based position of the nearest-rank pick among n > 0 sorted samples:
// the smallest value with at least pct% of samples at or below it. The
// 1-based rank is clamped to [1, n]; pct <= 0 degenerates to the minimum.
std::size_t nearest_rank_index(std::size_t n, double pct) {
  if (!(pct > 0.0)) pct = 0.0;  // also catches NaN
  if (pct > 100.0) pct = 100.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

}  // namespace

double percentile(std::vector<double>& samples, double pct) {
  if (samples.empty()) return 0.0;
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(
                                   nearest_rank_index(samples.size(), pct));
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

TailPercentiles tail_percentiles(std::vector<double>& samples) {
  TailPercentiles t;
  if (samples.empty()) return t;
  // Everything after a pick is >= it and everything before is <= it, so
  // a higher rank's order statistic lies in [pick + 1, end). Equal ranks
  // (small n) reuse the previous pick, which sits at from - 1.
  auto from = samples.begin();
  for (auto [pct, out] : {std::pair{50.0, &t.p50}, std::pair{95.0, &t.p95},
                          std::pair{99.0, &t.p99}}) {
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(
                                     nearest_rank_index(samples.size(), pct));
    if (nth >= from) {
      std::nth_element(from, nth, samples.end());
      from = nth + 1;
    }
    *out = *nth;
  }
  return t;
}

LatencyDist latency_dist(const std::vector<TxnRecord>& records) {
  LatencyDist d;
  if (records.empty()) return d;

  std::vector<double> lat;
  lat.reserve(records.size());
  double sum_lat = 0.0, sum_queue = 0.0, sum_service = 0.0;
  for (const auto& r : records) {
    ++d.count;
    d.bytes += r.bytes;
    const double l = r.latency_ns();
    const double q = r.queue_ns();
    lat.push_back(l);
    sum_lat += l;
    sum_queue += q;
    const double sv = r.service_ns();
    sum_service += sv;
    if (l > d.max_ns) d.max_ns = l;
    if (q > d.max_queue_ns) d.max_queue_ns = q;
    if (sv > d.max_service_ns) d.max_service_ns = sv;
    switch (r.status) {
      case TxnStatus::Error: ++d.errors; break;
      case TxnStatus::Timeout: ++d.timeouts; break;
      case TxnStatus::Aborted: ++d.aborted; break;
      case TxnStatus::Ok: break;
    }
    if (r.retries > 0) ++d.retried;
  }
  const auto n = static_cast<double>(d.count);
  d.mean_ns = sum_lat / n;
  d.mean_queue_ns = sum_queue / n;
  d.mean_service_ns = sum_service / n;
  const TailPercentiles tail = tail_percentiles(lat);
  d.p50_ns = tail.p50;
  d.p95_ns = tail.p95;
  d.p99_ns = tail.p99;
  return d;
}

std::vector<ChannelStats> per_channel_stats(const TxnLogger& log) {
  // Bucket the records per channel id — and bus rows also under their
  // master's id — then build one dist per bucket in id (interning) order.
  std::map<std::uint32_t, std::vector<TxnRecord>> by_channel;
  for (const auto& r : log.records()) {
    by_channel[r.channel].push_back(r);
    if (r.master != kNoMaster) by_channel[r.master].push_back(r);
  }

  std::vector<ChannelStats> out;
  out.reserve(by_channel.size());
  for (auto& [id, records] : by_channel) {
    out.push_back(ChannelStats{log.channel_name(id), latency_dist(records)});
  }
  return out;
}

void print_channel_table(std::ostream& os,
                         const std::vector<ChannelStats>& rows) {
  ScopedOstreamFormat guard(os);
  std::size_t name_w = 8;
  for (const auto& r : rows) name_w = std::max(name_w, r.channel.size());
  const int nw = static_cast<int>(name_w + 2);
  os << std::left << std::setw(nw) << "channel" << std::right << std::setw(8)
     << "txns" << std::setw(12) << "bytes" << std::setw(12) << "mean_ns"
     << std::setw(12) << "p50_ns" << std::setw(12) << "p95_ns" << std::setw(12)
     << "p99_ns" << std::setw(12) << "queue_ns" << std::setw(12) << "svc_ns"
     << std::setw(8) << "err" << std::setw(8) << "tmo" << std::setw(8) << "abrt"
     << std::setw(8) << "rty"
     << "\n";
  os << std::string(static_cast<std::size_t>(nw) + 124, '-') << "\n";
  for (const auto& r : rows) {
    const LatencyDist& d = r.dist;
    os << std::left << std::setw(nw) << r.channel << std::right << std::setw(8)
       << d.count << std::setw(12) << d.bytes << std::fixed
       << std::setprecision(1) << std::setw(12) << d.mean_ns << std::setw(12)
       << d.p50_ns << std::setw(12) << d.p95_ns << std::setw(12) << d.p99_ns
       << std::setw(12) << d.mean_queue_ns << std::setw(12)
       << d.mean_service_ns << std::setw(8) << d.errors << std::setw(8)
       << d.timeouts << std::setw(8) << d.aborted << std::setw(8) << d.retried
       << "\n";
  }
}

}  // namespace stlm::trace
