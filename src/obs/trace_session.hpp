#pragma once
// Timeline tracing: records kernel and CAM activity as Chrome Trace Event
// JSON (the format Perfetto and chrome://tracing load directly).
//
// Event model:
//   * Process run-spans — one trace thread ("track") per simulation
//     process; a B/E duration pair brackets every scheduler dispatch.
//     Spans on one track are strictly sequential (the scheduler runs one
//     process at a time), so B/E pairs always balance and nest trivially.
//   * Transaction phase spans — per bus/channel track, one async "b"/"e"
//     pair per Txn phase: "queue" covers enqueued → t_grant and "service"
//     covers t_grant → t_complete, built from the per-phase timestamps
//     the Txn already carries. Async events are used because split/
//     pipelined buses keep several transactions in flight on one track at
//     once, which plain B/E nesting cannot express; each pair is keyed by
//     the Txn's globally unique id.
//   * Instant events — fast-path fallbacks, injected faults, retries,
//     timeouts and aborts, so "why did this run slow down" is visible at
//     the exact simulated time it happened.
//
// Simulated femtoseconds map to trace microseconds (ts = fs / 1e9),
// rendered with a fixed 9 fractional digits so the export is
// byte-deterministic. The exporter stable-sorts by (ts, record order)
// before writing, because transaction spans are recorded at completion
// time with start timestamps in the past; the resulting file is
// monotonic, which tools/check_trace.py verifies.
//
// Determinism contract: a TraceSession records nothing host-dependent
// (no wall clock, no pointers); two identical runs in fresh processes
// produce byte-identical JSON. The Profiler owns all wall-clock output.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/time.hpp"

namespace stlm {

class Simulator;
class ProcessBase;
struct Txn;

namespace obs {

class TraceSession {
public:
  struct Options {
    // Hard cap on stored events; once reached, new spans are dropped
    // (and counted) instead of growing without bound on long runs.
    std::size_t max_events = 1u << 20;
  };

  TraceSession() : TraceSession(Options{}) {}
  explicit TraceSession(Options opts);
  ~TraceSession() { detach(); }

  // Register with `sim` so the kernel/CAM hooks see this session. One
  // session per simulator; attach replaces any previous one. A session
  // detaches when either side is destroyed. Attaching to another
  // simulator keeps the tracks recorded so far and starts new ones for
  // its processes.
  void attach(Simulator& sim);
  void detach();
  Simulator* simulator() const { return sim_; }

  // --- recording hooks (called by the kernel/CAM) --------------------------
  void process_begin(const ProcessBase& p, Time now);
  void process_end(const ProcessBase& p, Time now);
  // Queue + service async spans for a completed transaction on the track
  // named `track` (the bus/channel full name), from the Txn's own
  // `enqueued` issue stamp.
  void txn_phases(const std::string& track, const Txn& txn);
  void instant(const std::string& track, const std::string& name, Time now);
  // Retrospective async span (e.g. a retry policy's "watchdog" window,
  // recorded when the transaction settles): one balanced "b"/"e" pair on
  // `track`, keyed by `id` like txn_phases — always recorded atomically,
  // so exported async spans can never be half-dropped at the event cap.
  void async_span(const std::string& track, const std::string& name,
                  std::uint64_t id, Time begin, Time end);

  // --- inspection / export ----------------------------------------------
  std::size_t event_count() const { return events_.size(); }
  std::uint64_t dropped_events() const { return dropped_; }
  const Options& options() const { return opts_; }
  void clear();

  // Write the full trace as {"displayTimeUnit":"ns","traceEvents":[...]}.
  // Stable-sorted by (ts, record order); metadata thread_name records
  // name every track. Byte-deterministic for a deterministic run.
  void write_json(std::ostream& os) const;

private:
  // Compact in-memory record; strings are interned so a span costs two
  // small structs, not two heap strings.
  struct Ev {
    std::uint64_t ts_fs;
    std::uint64_t id;    // async pair key (Txn id); 0 for sync events
    std::uint32_t seq;   // record order: stable-sort tie-break
    std::uint32_t tid;   // track
    std::uint32_t name;  // interned string index
    char ph;             // 'B','E','b','e','i'
  };

  std::uint32_t intern(const std::string& s);
  std::uint32_t track_of(const ProcessBase& p);
  std::uint32_t track_of(const std::string& name);
  bool room(std::size_t n);
  void record(char ph, std::uint32_t tid, std::uint32_t name,
              std::uint64_t ts_fs, std::uint64_t id);

  Options opts_;
  Simulator* sim_ = nullptr;
  std::vector<Ev> events_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> string_ids_;
  // ProcessBase::serial -> track, for the attached simulator.
  std::unordered_map<std::uint64_t, std::uint32_t> proc_tracks_;
  std::unordered_map<std::string, std::uint32_t> named_tracks_;
  std::vector<std::uint32_t> track_names_;  // tid -> interned name
  // Per-track count of dispatch begins dropped at the event cap; the
  // matching end is dropped too, so recorded B/E pairs always balance.
  std::unordered_map<std::uint32_t, std::uint32_t> dropped_open_;
  std::uint64_t dropped_ = 0;
};

}  // namespace obs
}  // namespace stlm
