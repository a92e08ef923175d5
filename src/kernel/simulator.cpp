// stlm-lint: hot-path — the scheduler loop runs every delta cycle;
// steady-state simulation must stay heap-allocation-free (see
// tools/stlm_lint.py).
#include "kernel/simulator.hpp"

#include <algorithm>
#include <atomic>

#include "kernel/context.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_session.hpp"

namespace stlm {

namespace {
// Stack of live simulators on this thread; the top one is "current".
// This is the single piece of global state in the library (see the header
// for the rationale); detail::t_txn_ids mirrors its top.
thread_local std::vector<Simulator*> g_sim_stack;
// Sampled by every Simulator's constructor (see set_dispatch_order).
std::atomic<DispatchOrder> g_default_order{DispatchOrder::Fifo};
}  // namespace

void Simulator::sync_txn_ids() {
  detail::t_txn_ids =
      g_sim_stack.empty() ? nullptr : &g_sim_stack.back()->txn_ids_;
}

// While running, and while unwinding a killed process, the simulator is
// the thread-current one, so that wait()/notify() and Txn ids resolve
// against it even when several simulators are alive (e.g. a scratch
// role-discovery run) or while ~Simulator runs.
struct Simulator::CurrentGuard {
  explicit CurrentGuard(Simulator* s) {
    g_sim_stack.push_back(s);
    detail::t_txn_ids = &s->txn_ids_;
  }
  ~CurrentGuard() {
    g_sim_stack.pop_back();
    sync_txn_ids();
  }
  CurrentGuard(const CurrentGuard&) = delete;
  CurrentGuard& operator=(const CurrentGuard&) = delete;
};

Simulator::Simulator()
    : order_(g_default_order.load(std::memory_order_relaxed)) {
  g_sim_stack.push_back(this);
  detail::t_txn_ids = &txn_ids_;
}

void Simulator::set_default_dispatch_order(DispatchOrder o) {
  g_default_order.store(o, std::memory_order_relaxed);
}

DispatchOrder Simulator::default_dispatch_order() {
  return g_default_order.load(std::memory_order_relaxed);
}

Simulator::~Simulator() {
  owned_processes_.clear();
  // An observer that outlives the simulator must not detach from it later.
  if (trace_session_ != nullptr) trace_session_->detach();
  if (profiler_ != nullptr) profiler_->detach();
  auto it = std::find(g_sim_stack.rbegin(), g_sim_stack.rend(), this);
  if (it != g_sim_stack.rend()) {
    g_sim_stack.erase(std::next(it).base());
  }
  sync_txn_ids();
  // stlm-lint: allow(hot-path-atomic): once per simulator, at teardown
  detail::g_txn_ids.fetch_add(txn_ids_, std::memory_order_relaxed);
}

Simulator* Simulator::current() {
  return g_sim_stack.empty() ? nullptr : g_sim_stack.back();
}

Simulator& Simulator::require_current() {
  Simulator* s = current();
  if (!s) {
    throw SimulationError(
        "no current Simulator on this thread; construct one first");
  }
  return *s;
}

Process& Simulator::require_process(const char* what) const {
  if (!current_process_) {
    throw SimulationError(std::string(what) +
                          " may only be called from a thread process");
  }
  return *current_process_;
}

// ------------------------------------------------------------ creation --

Process& Simulator::spawn_thread(std::string name, std::function<void()> body) {
  // stlm-lint: allow(hot-path-alloc): process creation is elaboration,
  // once per process, not per event
  auto proc = std::make_unique<Process>(*this, std::move(name),
                                        std::move(body));
  Process& ref = *proc;
  owned_processes_.push_back(std::move(proc));
  return ref;
}

MethodProcess& Simulator::spawn_method(std::string name,
                                       std::function<void()> fn,
                                       std::vector<Event*> sensitivity,
                                       bool run_at_start) {
  // stlm-lint: allow(hot-path-alloc): process creation is elaboration,
  // once per process, not per event
  auto proc = std::make_unique<MethodProcess>(*this, std::move(name),
                                              std::move(fn), run_at_start);
  MethodProcess& ref = *proc;
  ref.set_static_sensitivity(sensitivity);
  owned_processes_.push_back(std::move(proc));
  return ref;
}

// ---------------------------------------------------------- registries --

void Simulator::register_event(Event& e) {
  ++events_registered_total_;
  e.slot_ = gens_.acquire();
  if (e.slot_ >= event_at_.size()) event_at_.resize(e.slot_ + 1, nullptr);
  event_at_[e.slot_] = &e;
}

void Simulator::retire_event(Event& e) {
  event_at_[e.slot_] = nullptr;
  gens_.release(e.slot_);
}

void Simulator::register_process(ProcessBase& p) {
  p.reg_index_ = processes_.size();
  processes_.push_back(&p);
}

void Simulator::unregister_process(ProcessBase& p) {
  processes_[p.reg_index_] = nullptr;
  ++dead_processes_;
  // Simulators whose processes come and go (one per test cell, say) keep
  // the list near its live size.
  if (dead_processes_ > 64 && 2 * dead_processes_ > processes_.size()) {
    compact_processes();
  }
}

void Simulator::compact_processes() {
  if (dead_processes_ == 0) return;
  std::size_t n = 0;
  for (ProcessBase* p : processes_) {
    if (p == nullptr) continue;
    p->reg_index_ = n;
    processes_[n++] = p;
  }
  processes_.resize(n);
  dead_processes_ = 0;
}

UpdateIf::UpdateIf(Simulator& sim) : sim_(sim), slot_(sim.claim_slot()) {}

UpdateIf::~UpdateIf() { sim_.retire_slot(slot_); }

void Simulator::add_post_delta_hook(const void* owner,
                                    std::function<void(Time)> hook) {
  post_delta_hooks_.push_back({owner, std::move(hook)});
}

void Simulator::remove_post_delta_hooks(const void* owner) {
  std::erase_if(post_delta_hooks_,
                [owner](const PostDeltaHook& h) { return h.owner == owner; });
}

// ---------------------------------------------------------- scheduling --

void Simulator::request_update(UpdateIf& u) {
  if (u.update_pending_) return;
  u.update_pending_ = true;
  update_requests_.push_back(handle(u));
}

void Simulator::make_runnable(detail::Handle<Process> h,
                              Process::WakeReason reason) {
  Process& p = *h.obj;
  if (p.terminated_ || p.runnable_) return;
  p.runnable_ = true;
  p.wake_reason_ = reason;
  runnable_.push_back(h);
}

void Simulator::queue_method(MethodProcess& m) {
  if (m.terminated_ || m.queued_) return;
  m.queued_ = true;
  method_queue_.push_back(handle(m));
}

void Simulator::schedule_timed_event(Event& e, Time abs_time) {
  timed_.push({abs_time, timed_seq_++, &e, gens_.key(e.slot_), true});
}

void Simulator::schedule_delta_event(Event& e) {
  delta_events_.push_back(handle(e));
}

void Simulator::schedule_timeout(Process& p, Time abs_time) {
  timed_.push({abs_time, timed_seq_++, &p, gens_.key(p.slot_), false});
}

// ------------------------------------------------------------- running --

void Simulator::run() { run_impl(std::nullopt); }

void Simulator::run_for(Time duration) { run_impl(now_ + duration); }

void Simulator::run_impl(std::optional<Time> end_time) {
  STLM_ASSERT(!running_, "Simulator::run() is not reentrant");
  CurrentGuard guard(this);
  // The run's last switch comes back here from whichever process is
  // current then, so the sanitizers learn this stack here, not from the
  // process a run first enters.
  detail::fiber_current_stack(&sched_stack_bottom_, &sched_stack_size_);
#ifdef STLM_TSAN_FIBERS
  tsan_sched_fiber_ = detail::tsan_fiber_current();
#endif
  running_ = true;
  stop_requested_ = false;
  run_end_time_ = end_time;

  initialized_ = true;

  // The scheduler loop runs here only until it picks the first process;
  // from then on it runs on the stack of each process that yields, and
  // the one that finds the run over switches back.
  if (Process* first = schedule_next()) {
    switch_to(first, &sched_sp_, &sched_fake_stack_);
    detail::fiber_switch_end(sched_fake_stack_);
  }

  running_ = false;
  run_end_time_.reset();
  current_process_ = nullptr;
  if (pending_error_) {
    std::exception_ptr e = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

Process* Simulator::schedule_next() noexcept {
  return order_ == DispatchOrder::Fifo ? schedule_next<DispatchOrder::Fifo>()
                                       : schedule_next<DispatchOrder::Reverse>();
}

// The order is a template parameter so the Fifo loop carries no
// per-dispatch branch; schedule_next picks the instance once per call.
template <DispatchOrder O>
Process* Simulator::schedule_next() noexcept {
  auto pop = [](auto& q) {
    if constexpr (O == DispatchOrder::Fifo) {
      return q.pop_front();
    } else {
      return q.pop_back();
    }
  };
  while (true) {
    // Evaluate: methods run here; a thread process is handed back.
    while (!method_queue_.empty() || !runnable_.empty()) {
      if (stop_requested_) return nullptr;
      if (!method_queue_.empty()) {
        const detail::Handle<MethodProcess> m = pop(method_queue_);
        if (current(m)) run_method(*m.obj);
        continue;
      }
      const detail::Handle<Process> p = pop(runnable_);
      if (current(p)) {
        resume_begin(*p.obj);
        return p.obj;
      }
    }
    if (stop_requested_) return nullptr;
    update_phase();
    delta_phase();
    ++delta_count_;
    for (const PostDeltaHook& hook : post_delta_hooks_) {
      try {
        hook.fn(now_);
      } catch (...) {
        fail(std::current_exception());
      }
    }
    // An update or a hook that failed (or stopped) ends the run at this
    // instant.
    if (stop_requested_) return nullptr;
    if (!runnable_.empty() || !method_queue_.empty()) continue;
    if (!advance_time(run_end_time_)) return nullptr;
  }
}

void Simulator::fail(std::exception_ptr e) noexcept {
  if (!pending_error_) pending_error_ = std::move(e);
  stop_requested_ = true;
}

void Simulator::run_method(MethodProcess& m) {
  m.queued_ = false;
  if (profiler_ != nullptr) profiler_->dispatch_begin(m);
  if (trace_session_ != nullptr) trace_session_->process_begin(m, now_);
  try {
    m.fn_();
  } catch (...) {
    fail(std::current_exception());
    m.terminated_ = true;
    gens_.bump(m.slot_);
  }
  if (trace_session_ != nullptr) trace_session_->process_end(m, now_);
  if (profiler_ != nullptr) profiler_->dispatch_end(m);
}

void Simulator::resume_begin(Process& p) {
  p.runnable_ = false;
  gens_.bump(p.slot_);  // lapse every other wake-up this process registered
  current_process_ = &p;
  ++ctx_switches_;
  if (profiler_ != nullptr) profiler_->dispatch_begin(p);
  if (trace_session_ != nullptr) trace_session_->process_begin(p, now_);
}

void Simulator::resume_end(Process& p) {
  current_process_ = nullptr;
  // now_ may have moved while the process ran (lone-runner inline
  // advances), so the end stamp closes a span of real simulated width.
  if (trace_session_ != nullptr) trace_session_->process_end(p, now_);
  if (profiler_ != nullptr) profiler_->dispatch_end(p);
}

void Simulator::switch_to(Process* to, void** save_sp, void** save_fake) {
  if (to != nullptr) {
    to->ensure_started();
    detail::fiber_switch_begin(save_fake, to->stack_.base,
                               detail::StackPool::kStackBytes);
    detail::tsan_fiber_switch(to->tsan_fiber_);
    detail::stlm_ctx_swap(save_sp, to->sp_);
  } else {
    detail::fiber_switch_begin(save_fake, sched_stack_bottom_,
                               sched_stack_size_);
    detail::tsan_fiber_switch(tsan_sched_fiber_);
    detail::stlm_ctx_swap(save_sp, sched_sp_);
  }
}

Process::WakeReason Simulator::suspend_current() {
  Process& p = require_process("wait");
  Process* next = nullptr;
  if (running_) {
    resume_end(p);
    next = schedule_next();
  }
  // Picked again (its own delta notification, say): no switch at all.
  if (next != &p) {
    switch_to(next, &p.sp_, &p.fake_stack_);
    detail::fiber_switch_end(p.fake_stack_);
  }
#ifdef STLM_KILL_UNWIND
  if (p.wake_reason_ == Process::WakeReason::Kill) [[unlikely]]
    throw_process_killed();
#endif
  return p.wake_reason_;
}

void Simulator::kill_process(Process& p) {
#ifndef STLM_KILL_UNWIND
  // Unwinding is compiled out (see kernel/context.hpp): keep the
  // historical teardown semantics — the parked stack is reclaimed by the
  // pool without running destructors.
  (void)p;
#else
  if (!p.started_ || p.terminated_) return;
  // The unwound frames switch straight back to sched_sp_ via the
  // trampoline, which is only meaningful from the scheduler context.
  // Mid-run destruction therefore keeps the old behavior (stack reclaimed
  // without unwinding).
  if (running_ || current_process_ != nullptr) return;
  // Destructors on the dying stack may wait()/notify().
  CurrentGuard guard(this);
  detail::fiber_current_stack(&sched_stack_bottom_, &sched_stack_size_);
#ifdef STLM_TSAN_FIBERS
  tsan_sched_fiber_ = detail::tsan_fiber_current();
#endif
  gens_.bump(p.slot_);  // lapse its pending timeouts and waits
  p.runnable_ = false;
  p.wake_reason_ = Process::WakeReason::Kill;
  current_process_ = &p;
  switch_to(&p, &sched_sp_, &sched_fake_stack_);
  detail::fiber_switch_end(sched_fake_stack_);
  current_process_ = nullptr;
#endif
}

void Simulator::kill_threads() {
  // By index: an unwound frame may not spawn, but the list is re-read in
  // case it does.
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    ProcessBase* p = processes_[i];
    if (p != nullptr && p->kind() == ProcessBase::Kind::Thread) {
      kill_process(static_cast<Process&>(*p));
    }
  }
}

void Simulator::reset() {
  STLM_ASSERT(!running_ && current_process_ == nullptr,
              "Simulator::reset() is only legal between runs");
  compact_processes();
  // Unwind parked frames first: their destructors may still notify
  // events or request updates, and all of that is dropped below.
  if constexpr (kill_unwind_compiled_in()) kill_threads();

  // stlm-lint: allow(hot-path-atomic): once per reset, as at teardown
  detail::g_txn_ids.fetch_add(txn_ids_, std::memory_order_relaxed);
  txn_ids_ = 0;

  // A pending flag always has a queued entry behind it, and the entries
  // go below; waiters are lapsed by the bump, so their lists are dropped
  // rather than left to the next trigger.
  for (Event* e : event_at_) {
    if (e == nullptr) continue;
    e->delta_pending_ = false;
    e->timed_pending_ = false;
    e->dynamic_.clear();
  }
  for (const detail::Handle<UpdateIf>& u : update_requests_) {
    if (current(u)) u.obj->update_pending_ = false;
  }
  runnable_.clear();
  method_queue_.clear();
  delta_events_.clear();
  update_requests_.clear();
  timed_.clear();
  gens_.bump_all();

  now_ = Time::zero();
  delta_count_ = 0;
  timed_seq_ = 0;
  ctx_switches_ = 0;
  inline_advances_ = 0;
  initialized_ = false;
  stop_requested_ = false;
  run_end_time_.reset();
  pending_error_ = nullptr;

  // Spawn order, as the constructors queued them.
  for (ProcessBase* p : processes_) {
    p->terminated_ = false;
    if (p->kind() == ProcessBase::Kind::Thread) {
      auto& t = static_cast<Process&>(*p);
      t.rewind();
      make_runnable(handle(t), Process::WakeReason::Start);
    } else {
      auto& m = static_cast<MethodProcess&>(*p);
      m.queued_ = false;
      if (m.run_at_start_) queue_method(m);
    }
  }
}

// Both phases walk a snapshot swapped into a member scratch vector:
// requests made meanwhile (an update's delta notification, say) land in
// the emptied pending list for the next round, and both buffers keep
// their capacity, so no delta cycle touches the heap. Empty phases skip
// the swap: the buffers then alternate per use rather than per delta and
// both reach the working size (with an even number of deltas between
// uses, one would otherwise never be filled).
void Simulator::update_phase() noexcept {
  if (update_requests_.empty()) return;
  update_scratch_.swap(update_requests_);
  for (const detail::Handle<UpdateIf>& u : update_scratch_) {
    if (!current(u)) continue;  // destroyed with the update queued
    u.obj->update_pending_ = false;
    try {
      u.obj->update();
    } catch (...) {
      fail(std::current_exception());
    }
  }
  update_scratch_.clear();
}

void Simulator::delta_phase() noexcept {
  if (delta_events_.empty()) return;
  delta_scratch_.swap(delta_events_);
  for (const detail::Handle<Event>& e : delta_scratch_) {
    if (current(e)) e.obj->trigger();  // else cancelled, fired or dead
  }
  delta_scratch_.clear();
}

// `entry` was current at the peek() that returned it, and nothing has
// run since.
void Simulator::dispatch_timed(const TimedEntry& entry) {
  if (entry.is_event) {
    static_cast<Event*>(entry.target)->trigger();
  } else {
    make_runnable({static_cast<Process*>(entry.target), entry.key},
                  Process::WakeReason::Timeout);
  }
}

// Stale pruning happens inside the queue's peek(): entries cancelled
// or overridden since registration never advance time. Plain function
// pointer + context so peek allocates nothing per call.
bool Simulator::timed_entry_stale(const void* ctx, const TimedEntry& e) {
  return !static_cast<const Simulator*>(ctx)->gens_.current(e.key);
}

bool Simulator::advance_inline(Time abs) {
  if (!runnable_.empty() || !method_queue_.empty()) return false;
  if (!delta_events_.empty() || !update_requests_.empty()) return false;
  if (!post_delta_hooks_.empty()) return false;
  if (stop_requested_) return false;
  if (run_end_time_ && abs > *run_end_time_) return false;
  // Strictly later: an entry at exactly `abs` was registered before this
  // call (smaller seq), so FIFO order requires it to fire before the
  // caller resumes — take the scheduler path.
  const TimedEntry* head = timed_.peek(&Simulator::timed_entry_stale, this);
  if (head && head->when <= abs) return false;
  now_ = abs;
  ++inline_advances_;
  return true;
}

bool Simulator::advance_time(std::optional<Time> end_time) {
  const TimedEntry* head = timed_.peek(&Simulator::timed_entry_stale, this);
  if (!head) return false;

  const Time next = head->when;
  if (end_time && next > *end_time) {
    now_ = *end_time;
    return false;
  }
  now_ = next;
  // Dispatch every live entry at `next` in FIFO (seq) order. Triggering
  // only marks processes runnable / queues methods, so the drain loop
  // cannot race with new same-timestamp pushes.
  while (head && head->when == next) {
    TimedEntry entry = timed_.pop();
    dispatch_timed(entry);
    head = timed_.peek(&Simulator::timed_entry_stale, this);
  }
  return true;
}

bool Simulator::idle() const {
  return runnable_.empty() && method_queue_.empty() && delta_events_.empty() &&
         update_requests_.empty() && timed_.empty();
}

// ------------------------------------------------------------ wait API --

void wait(Event& e) {
  Simulator& sim = Simulator::require_current();
  Process& p = sim.require_process("wait(Event)");
  e.add_dynamic_waiter(p);
  sim.suspend_current();
}

void wait(Time delay) {
  Simulator& sim = Simulator::require_current();
  Process& p = sim.require_process("wait(Time)");
  // Zero-delay waits keep their yield-past-this-instant semantics; any
  // other delay tries the lone-runner inline advance first.
  if (!delay.is_zero() && sim.advance_inline(sim.now() + delay)) return;
  sim.schedule_timeout(p, sim.now() + delay);
  sim.suspend_current();
}

bool wait(Time timeout, Event& e) {
  Simulator& sim = Simulator::require_current();
  Process& p = sim.require_process("wait(Time, Event)");
  e.add_dynamic_waiter(p);
  sim.schedule_timeout(p, sim.now() + timeout);
  return sim.suspend_current() == Process::WakeReason::Event;
}

}  // namespace stlm
