#include "kernel/audit.hpp"

#include <atomic>
#include <sstream>

#include "kernel/process.hpp"
#include "kernel/simulator.hpp"
#include "obs/trace_session.hpp"

namespace stlm::audit {

namespace {
std::atomic<bool> g_default_enabled{false};
}  // namespace

void set_default_enabled(bool on) {
  g_default_enabled.store(on, std::memory_order_relaxed);
}

bool default_enabled() {
  return g_default_enabled.load(std::memory_order_relaxed);
}

const char* mode_name(Mode m) { return m == Mode::Write ? "W" : "R"; }

void Auditor::access(const void* key, Mode mode, const char* kind,
                     const std::string& name) {
  const ProcessBase* p = sim_.audit_current();
  // Scheduler-context accesses (elaboration, teardown, update phase) have
  // no dispatch order to perturb.
  if (p == nullptr) return;
  ++accesses_;
  Object& obj = objects_[key];
  if (obj.label.empty()) {
    obj.label.reserve(std::char_traits<char>::length(kind) + 1 + name.size());
    obj.label.append(kind).append(":").append(name);
  }
  const std::uint64_t delta = sim_.delta_count();
  if (obj.delta != delta) {
    obj.delta = delta;
    obj.accesses.clear();
  }
  const std::uint64_t dispatch = sim_.audit_dispatch_seq();
  if (names_delta_ != delta) {
    names_delta_ = delta;
    names_.clear();
  }
  if (names_.empty() || names_dispatch_ != dispatch) {
    names_dispatch_ = dispatch;
    names_.push_back(p->name());
  }
  const Access a{dispatch, p->audit_enq_seq(),
                 static_cast<std::uint32_t>(names_.size() - 1), mode};
  for (const Access& prev : obj.accesses) {
    if (prev.dispatch == a.dispatch) {
      // Re-access within the dispatch: the earlier identical entry
      // already ran the pair checks — bail before the loop below
      // double-counts every conflict.
      if (prev.mode == a.mode) return;
      continue;
    }
    if (prev.mode == Mode::Read && a.mode == Mode::Read) continue;
    // Co-runnable test: this process was already sitting in the runnable
    // queue when `prev`'s dispatch began, so FIFO policy — not simulated
    // causality — decided who touched the object first. enq == dispatch
    // means `prev`'s process itself made us runnable: causal, benign.
    // An earlier dispatch of this same process never passes: it can only
    // be enqueued again once that dispatch has begun.
    if (a.enq < prev.dispatch) note_conflict(obj, prev, a);
  }
  obj.accesses.push_back(a);
}

void Auditor::begin_lifetime(const void* key) {
  auto it = objects_.find(key);
  if (it != objects_.end()) it->second.accesses.clear();
}

void Auditor::note_conflict(const Object& obj, const Access& first,
                            const Access& second) {
  ++conflict_events_;
  // Surface the conflict on the timeline too: an instant event on a
  // dedicated "audit" track at the simulated time it was detected.
  if (obs::TraceSession* ts = sim_.trace_session(); ts != nullptr) {
    ts->instant("audit", "conflict: " + obj.label, sim_.now());
  }
  const std::string& f = names_[first.who];
  const std::string& s = names_[second.who];
  std::string pair_key;
  pair_key.reserve(obj.label.size() + f.size() + s.size() + 2);
  pair_key.append(obj.label).append("|").append(f).append("|").append(s);
  auto [it, fresh] = conflict_index_.try_emplace(pair_key, conflicts_.size());
  if (!fresh) {
    ++conflicts_[it->second].count;
    return;
  }
  Conflict c;
  c.object = obj.label;
  c.first = f;
  c.first_mode = first.mode;
  c.second = s;
  c.second_mode = second.mode;
  c.when = sim_.now();
  c.delta = sim_.delta_count();
  conflicts_.push_back(std::move(c));
}

Report Auditor::report() const {
  Report r;
  r.enabled = true;
  r.accesses = accesses_;
  r.objects = objects_.size();
  r.conflict_events = conflict_events_;
  r.conflicts = conflicts_;
  return r;
}

std::string Report::table() const {
  if (conflicts.empty()) return {};
  std::ostringstream os;
  os << "determinism audit: " << conflicts.size() << " conflicting pair(s), "
     << conflict_events << " occurrence(s)\n";
  for (const Conflict& c : conflicts) {
    os << "  " << c.object << " | " << mode_name(c.first_mode) << " "
       << c.first << " vs " << mode_name(c.second_mode) << " " << c.second
       << " | first @ " << c.when.to_string() << " (delta " << c.delta
       << ") | x"
       << c.count << "\n";
  }
  return os.str();
}

void on_access(Simulator& sim, const void* key, Mode mode, const char* kind,
               const std::string& name) {
  if (Auditor* a = sim.auditor()) a->access(key, mode, kind, name);
}

void on_fresh(Simulator& sim, const void* key) {
  if (Auditor* a = sim.auditor()) a->begin_lifetime(key);
}

}  // namespace stlm::audit
