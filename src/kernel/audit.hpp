#pragma once
// Kernel determinism auditor.
//
// The repo's speed story (sharded sweeps, the binary-heap timed queue,
// lone-runner inline advance, fast-path transports) is only usable
// because simulated results stay bit-identical across those rewrites.
// Bit-identity today rests on the runnable queue's FIFO discipline: any
// two processes that touch the same object in the same delta cycle are
// ordered by scheduler policy, not by simulated causality — exactly the
// hazard a future scheduler change (or a hand-introduced race like the
// three fixed in the PR 6 review) can silently perturb.
//
// The auditor makes that hazard mechanical. Instrumented objects —
// kernel channels (Fifo/Mutex/Semaphore), TxnPool descriptors, CAM
// master access points, CAM stat-slot blocks — report each access as
// (object, process, read|write). Within one delta cycle, two accesses
// from different processes with at least one write are a *conflict* when
// the processes were co-runnable: the later-dispatched process was
// already sitting in the runnable queue when the earlier access
// happened, so the scheduler could legally have swapped them and changed
// the outcome. Accesses ordered by causality (A wakes B, then B reads
// what A wrote) are not flagged — B only became runnable during A's
// dispatch.
//
// Benign-by-construction patterns are kept quiet by key granularity, not
// by suppression lists:
//   * FIFO-shaped objects audit their head and tail as separate keys —
//     a same-delta push+pop pair commutes (the blocked side retries and
//     converges on the same simulated time), while push+push or pop+pop
//     on one key is a real ordering hazard;
//   * the TxnPool audits per descriptor, so co-runnable acquires of
//     interchangeable descriptors stay quiet while a same-delta handoff
//     or double release of one descriptor is flagged;
//   * CAM access points audit per master, so simultaneous requests that
//     the arbiter ranks deterministically stay quiet while two processes
//     sharing one master port is flagged.
//
// Runtime gating: the instrumentation call sites are always compiled
// in, but auditing is off until enabled — per simulator via
// Simulator::set_audit_enabled(), or for every subsequently constructed
// Simulator via audit::set_default_enabled() (what the exploration grid
// test uses to audit the sweep's internal simulators). While off, each
// hook is one pointer test.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/time.hpp"

namespace stlm {
class Simulator;
class ProcessBase;
}  // namespace stlm

namespace stlm::audit {

enum class Mode : std::uint8_t { Read, Write };

const char* mode_name(Mode m);

// One (object, process-pair) conflict class. `count` accumulates repeat
// occurrences of the same pair so a hazard inside a loop reports once
// with a multiplicity instead of flooding the table.
struct Conflict {
  std::string object;  // audited object ("<kind>:<name>")
  std::string first;   // process dispatched first within the delta
  Mode first_mode;
  std::string second;  // co-runnable process dispatched later
  Mode second_mode;
  Time when;            // simulated time of the first occurrence
  std::uint64_t delta;  // delta-cycle count of the first occurrence
  std::uint64_t count = 1;
};

struct Report {
  bool enabled = false;          // auditing was on for this simulator
  std::uint64_t accesses = 0;    // audited accesses observed
  std::uint64_t objects = 0;     // distinct audited objects seen
  std::uint64_t conflict_events = 0;  // total occurrences (>= conflicts.size())
  std::vector<Conflict> conflicts;
  // Human-readable per-pair conflict table (empty string when clean).
  std::string table() const;
};

// Process-wide default sampled by every subsequently constructed
// Simulator (thread-safe; sweep workers construct their simulators after
// the test flips this on).
void set_default_enabled(bool on);
bool default_enabled();

// Always true: the hooks are part of the one library build. Kept only
// because perfbench/ still reports it.
constexpr bool compiled_in() { return true; }

// Per-simulator access recorder, created when auditing is enabled.
class Auditor {
 public:
  explicit Auditor(Simulator& sim) : sim_(sim) {}

  // Record one access to the audited object identified by `key`.
  // `kind`/`name` label the object in the conflict table the first time
  // the key is seen (a stable string reference at the call site — no
  // per-access string building).
  void access(const void* key, Mode mode, const char* kind,
              const std::string& name);

  // The storage behind `key` starts a new logical lifetime (a pooled
  // descriptor being recycled): drop any same-delta access history so
  // the previous occupant's accesses don't pair with the new one's.
  void begin_lifetime(const void* key);

  Report report() const;

 private:
  // A record names its process by a copy taken at its dispatch's first
  // audited access, never through a pointer to a process that may die.
  struct Access {
    std::uint64_t dispatch;  // scheduler dispatch seq of the access
    std::uint64_t enq;       // dispatch seq when the process was enqueued
    std::uint32_t who;       // index into names_
    Mode mode;
  };
  struct Object {
    std::string label;                   // "<kind>:<name>"
    std::uint64_t delta = ~0ull;         // delta the access list belongs to
    std::vector<Access> accesses;        // this delta's accesses
  };

  void note_conflict(const Object& obj, const Access& first,
                     const Access& second);

  Simulator& sim_;
  // Process names of this delta's auditing dispatches (Access::who).
  std::vector<std::string> names_;
  std::uint64_t names_delta_ = ~0ull;
  std::uint64_t names_dispatch_ = ~0ull;
  std::unordered_map<const void*, Object> objects_;
  // (object label | first | second) -> index into conflicts_.
  std::unordered_map<std::string, std::size_t> conflict_index_;
  std::vector<Conflict> conflicts_;
  std::uint64_t accesses_ = 0;
  std::uint64_t conflict_events_ = 0;
};

// ---- instrumentation hooks -----------------------------------------------
//
// Call-site entry points: forward to the simulator's Auditor when
// runtime auditing is enabled (one pointer test otherwise).

void on_access(Simulator& sim, const void* key, Mode mode, const char* kind,
               const std::string& name);
void on_fresh(Simulator& sim, const void* key);

}  // namespace stlm::audit
