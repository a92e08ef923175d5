#include "obs/trace_session.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "kernel/process.hpp"
#include "kernel/simulator.hpp"
#include "kernel/txn.hpp"

namespace stlm::obs {

namespace {

// Simulated femtoseconds -> trace microseconds, printed as a fixed-point
// decimal with 9 fractional digits. Fixed-width integer formatting (not
// floating point) so the export is byte-deterministic and lossless for
// the full 64-bit femtosecond range.
void write_ts(std::ostream& os, std::uint64_t fs) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%09llu",
                static_cast<unsigned long long>(fs / 1'000'000'000ULL),
                static_cast<unsigned long long>(fs % 1'000'000'000ULL));
  os << buf;
}

// Minimal JSON string escaping: quotes, backslashes, control characters.
// Track and event names come from module/process names, which are plain
// identifiers in practice, but the exporter must never emit invalid JSON.
void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

TraceSession::TraceSession(Options opts) : opts_(opts) {
  // tid 0 is reserved so a zero-initialized tid is visibly "no track".
  strings_.emplace_back();
  track_names_.push_back(0);
}

void TraceSession::attach(Simulator& sim) {
  if (&sim != sim_) proc_tracks_.clear();  // serials are per simulator
  detach();
  sim_ = &sim;
  sim.set_trace_session(this);
}

void TraceSession::detach() {
  if (sim_ != nullptr && sim_->trace_session() == this) {
    sim_->set_trace_session(nullptr);
  }
  sim_ = nullptr;
}

std::uint32_t TraceSession::intern(const std::string& s) {
  auto [it, inserted] =
      string_ids_.try_emplace(s, static_cast<std::uint32_t>(strings_.size()));
  if (inserted) strings_.push_back(s);
  return it->second;
}

std::uint32_t TraceSession::track_of(const ProcessBase& p) {
  auto [it, inserted] = proc_tracks_.try_emplace(
      p.serial(), static_cast<std::uint32_t>(track_names_.size()));
  if (inserted) track_names_.push_back(intern(p.name()));
  return it->second;
}

std::uint32_t TraceSession::track_of(const std::string& name) {
  auto [it, inserted] = named_tracks_.try_emplace(
      name, static_cast<std::uint32_t>(track_names_.size()));
  if (inserted) track_names_.push_back(intern(name));
  return it->second;
}

bool TraceSession::room(std::size_t n) {
  if (events_.size() + n <= opts_.max_events) return true;
  dropped_ += n;
  return false;
}

void TraceSession::record(char ph, std::uint32_t tid, std::uint32_t name,
                          std::uint64_t ts_fs, std::uint64_t id) {
  events_.push_back(Ev{ts_fs, id, static_cast<std::uint32_t>(events_.size()),
                       tid, name, ph});
}

void TraceSession::process_begin(const ProcessBase& p, Time now) {
  const std::uint32_t tid = track_of(p);
  if (!room(1)) {
    // Remember the dropped begin so the matching end is dropped too and
    // the recorded stream stays B/E-balanced.
    ++dropped_open_[tid];
    return;
  }
  record('B', tid, intern("run"), now.femtoseconds(), 0);
}

void TraceSession::process_end(const ProcessBase& p, Time now) {
  const std::uint32_t tid = track_of(p);
  auto it = dropped_open_.find(tid);
  if (it != dropped_open_.end() && it->second > 0) {
    --it->second;
    ++dropped_;
    return;
  }
  // Always recorded (even just past the cap): an unbalanced B would make
  // the trace invalid. Bounded overshoot: at most one open span per track.
  events_.push_back(Ev{now.femtoseconds(), 0,
                       static_cast<std::uint32_t>(events_.size()), tid,
                       intern("run"), 'E'});
}

void TraceSession::txn_phases(const std::string& track, const Txn& txn) {
  const std::uint32_t tid = track_of(track);
  if (!room(4)) return;
  const std::uint32_t queue = intern("queue");
  const std::uint32_t service = intern("service");
  // Async pairs keyed by the globally unique Txn id: queue covers
  // issue -> grant, service covers grant -> completion. Recorded as an
  // atomic group of four so pairs can never be half-dropped at the cap.
  record('b', tid, queue, txn.enqueued.femtoseconds(), txn.id);
  record('e', tid, queue, txn.t_grant.femtoseconds(), txn.id);
  record('b', tid, service, txn.t_grant.femtoseconds(), txn.id);
  record('e', tid, service, txn.t_complete.femtoseconds(), txn.id);
}

void TraceSession::async_span(const std::string& track,
                              const std::string& name, std::uint64_t id,
                              Time begin, Time end) {
  const std::uint32_t tid = track_of(track);
  if (!room(2)) return;
  const std::uint32_t n = intern(name);
  record('b', tid, n, begin.femtoseconds(), id);
  record('e', tid, n, end.femtoseconds(), id);
}

void TraceSession::instant(const std::string& track, const std::string& name,
                           Time now) {
  const std::uint32_t tid = track_of(track);
  if (!room(1)) return;
  record('i', tid, intern(name), now.femtoseconds(), 0);
}

void TraceSession::clear() {
  events_.clear();
  dropped_ = 0;
  dropped_open_.clear();
}

void TraceSession::write_json(std::ostream& os) const {
  // Transaction spans are recorded at completion with start timestamps in
  // the past, so record order is not time order. A stable sort by
  // (timestamp, record order) restores monotonicity while keeping
  // same-timestamp events in record order — which keeps a B before its
  // zero-length E and a queue end before the service begin it abuts.
  std::vector<const Ev*> sorted;
  sorted.reserve(events_.size());
  for (const Ev& e : events_) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Ev* a, const Ev* b) {
                     if (a->ts_fs != b->ts_fs) return a->ts_fs < b->ts_fs;
                     return a->seq < b->seq;
                   });

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"shiptlm\"}}";
  for (std::uint32_t tid = 1; tid < track_names_.size(); ++tid) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":";
    write_escaped(os, strings_[track_names_[tid]]);
    os << "}}";
  }
  for (const Ev* e : sorted) {
    os << ",\n{\"name\":";
    write_escaped(os, strings_[e->name]);
    os << ",\"ph\":\"" << e->ph << "\",\"pid\":1,\"tid\":" << e->tid
       << ",\"ts\":";
    write_ts(os, e->ts_fs);
    if (e->ph == 'b' || e->ph == 'e') {
      os << ",\"cat\":\"txn\",\"id\":" << e->id;
    } else if (e->ph == 'i') {
      os << ",\"s\":\"t\"";
    }
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace stlm::obs
