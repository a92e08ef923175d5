#pragma once
// The discrete-event scheduler.
//
// Simulation cycle (SystemC-compatible):
//   1. evaluate : run every runnable process (immediate notifications may
//                 add more within the same phase);
//   2. update   : apply requested primitive-channel updates (signals);
//   3. delta    : deliver delta notifications -> next delta cycle;
//   4. advance  : if nothing is runnable, pop the earliest timed
//                 notifications and advance simulated time.
//
// One Simulator per thread is "current" at a time (they nest like a stack,
// so tests may create them sequentially or in scopes). Events bind to the
// current Simulator at construction unless given one, and transactions
// draw their ids from it (kernel/txn.hpp). The thread-local is the one
// piece of global state in the library; it exists because blocking calls
// such as `wait(10_ns)` deep inside a channel need to find the running
// process without threading a context parameter through every protocol
// layer.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/event.hpp"
#include "kernel/handle.hpp"
#include "kernel/process.hpp"
#include "kernel/report.hpp"
#include "kernel/time.hpp"
#include "kernel/timed_queue.hpp"
#include "kernel/txn.hpp"

namespace stlm {

namespace obs {
class TraceSession;
class Profiler;
}  // namespace obs

namespace detail {

// FIFO of scheduler handles: a vector plus a consume index that rewinds
// to the front whenever the queue drains. Unlike std::deque, a steady
// stream of push/pop never returns storage to the heap — the buffer
// settles at the peak depth and stays there.
template <class T>
class FifoQueue {
public:
  bool empty() const { return head_ == v_.size(); }
  void push_back(T x) {
    // A queue that runs long without draining (a chain of immediate
    // notifications inside one evaluation phase) drops its consumed
    // prefix once that is most of the buffer, so memory follows the live
    // depth; each element is moved at most once per doubling of pops.
    if (head_ >= kCompactAt && 2 * head_ >= v_.size()) {
      v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    v_.push_back(x);
  }
  void clear() {
    v_.clear();
    head_ = 0;
  }
  T pop_front() {
    T x = v_[head_++];
    if (head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    }
    return x;
  }
  // The newest entry (DispatchOrder::Reverse). Leaves the consumed
  // prefix alone, so the two pops mix freely.
  T pop_back() {
    T x = v_.back();
    v_.pop_back();
    if (head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    }
    return x;
  }

private:
  static constexpr std::size_t kCompactAt = 4096;
  std::vector<T> v_;
  std::size_t head_ = 0;
};

}  // namespace detail

// The order in which one evaluation phase takes co-runnable processes
// off the two run queues. IEEE 1666 leaves it unspecified, so a
// simulated outcome that differs between the two orders depends on the
// kernel's queue, not on the modelled hardware. Fifo is the kernel's
// documented order; Reverse takes the newest entry first (methods still
// run before threads). Reverse exists for the dispatch-order check in
// the tests (docs/ARCHITECTURE.md), not as a modelling option.
enum class DispatchOrder : std::uint8_t { Fifo, Reverse };

// Implemented by primitive channels (signals) that need an update phase.
class UpdateIf {
public:
  virtual ~UpdateIf();
  UpdateIf(const UpdateIf&) = delete;
  UpdateIf& operator=(const UpdateIf&) = delete;

protected:
  explicit UpdateIf(Simulator& sim);
  virtual void update() = 0;

  Simulator& sim_;

private:
  friend class Simulator;
  std::uint32_t slot_ = 0;  // generation slot (kernel/handle.hpp)
  bool update_pending_ = false;
};

class Simulator {
public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- observers -------------------------------------------------------
  Time now() const { return now_; }
  std::uint64_t delta_count() const { return delta_count_; }
  bool running() const { return running_; }
  bool initialized() const { return initialized_; }

  // --- process creation --------------------------------------------------
  // A process is runnable from construction: one spawned before run()
  // starts in the first delta cycle, one spawned while running at once.
  Process& spawn_thread(std::string name, std::function<void()> body);
  MethodProcess& spawn_method(std::string name, std::function<void()> fn,
                              std::vector<Event*> sensitivity,
                              bool run_at_start = true);

  // --- control -----------------------------------------------------------
  // Run until event starvation or stop(). Throws if a process threw.
  void run();
  // Run for at most `duration` of simulated time past the current time.
  void run_for(Time duration);
  // Request a stop: the calling process runs on until it yields, then
  // run()/run_for() return at once, at the same simulated time. The
  // processes not yet dispatched in this evaluation phase and its update
  // and delta phases are left queued; the next run() takes them up at
  // that instant. A stop() between runs is discarded.
  void stop() { stop_requested_ = true; }

  // True when no runnable process, no delta, no update and no timed
  // activity remains.
  bool idle() const;

  // Return to t = 0 between runs, keeping every process, event and
  // channel: the elaborated system runs again as if just built. Parked
  // thread processes are unwound first where unwinding is compiled in
  // (kill_process) and abandoned otherwise; then every queued process,
  // method, delta, update and timed entry is dropped, every pending event
  // notification and waiter forgotten, every generation slot bumped (no
  // handle taken before survives), now, delta_count, ctx_switches,
  // inline_advances, the timed-queue stats and the transaction ids
  // restart at 0 (the ids issued so far join the process-wide count, as
  // at destruction), and every process is made ready again in spawn
  // order: thread processes restart at the first statement of their
  // body, run-at-start methods are queued. Modules keep their own state;
  // their owner resets it (core::MappedSystem::reset). Hooks and
  // attached observers stay attached. Throws SimulationError while a run
  // is in flight.
  void reset();

  // --- hooks ---------------------------------------------------------------
  // Called after every delta cycle's update phase; used by tracing. An
  // owner that dies before the simulator must remove its hooks.
  void add_post_delta_hook(const void* owner, std::function<void(Time)> hook);
  void remove_post_delta_hooks(const void* owner);

  // --- kernel-internal API (used by Event/Process/wait) ------------------
  static Simulator* current();
  static Simulator& require_current();

  Process* current_process() const { return current_process_; }
  Process& require_process(const char* what) const;

  void request_update(UpdateIf& u);
  // `p` must be current (just taken, or just checked).
  void make_runnable(detail::Handle<Process> p, Process::WakeReason reason);
  void queue_method(MethodProcess& m);
  void schedule_timed_event(Event& e, Time abs_time);
  void schedule_delta_event(Event& e);
  void schedule_timeout(Process& p, Time abs_time);

  // Lone-runner fast path for wait(delay): when the calling process is
  // the only activity in the simulator and nothing else — runnable
  // process, queued method, delta/update request, live timed entry at or
  // before `abs`, run_for horizon, post-delta tracing hook — could
  // legally run first, advance simulated time to `abs` inline and return
  // true: no timed-queue registration, no scheduler round trip, no
  // coroutine switches. Returns false when the full suspend path must
  // run. Timing-neutral by construction: the skipped delta cycles are
  // exactly the empty ones the scheduler would have burned through.
  bool advance_inline(Time abs);

  // Generation table (kernel/handle.hpp): a slot per Event (through
  // register_event, which counts it, and retire_event), ProcessBase and
  // UpdateIf.
  void register_event(Event& e);
  void retire_event(Event& e);
  // Every process built on this simulator, in spawn order (reset's
  // restart order); ProcessBase's constructor and destructor keep it.
  void register_process(ProcessBase& p);
  void unregister_process(ProcessBase& p);
  std::uint32_t claim_slot() { return gens_.acquire(); }
  void retire_slot(std::uint32_t slot) { gens_.release(slot); }
  void invalidate(std::uint32_t slot) { gens_.bump(slot); }
  template <class T>
  detail::Handle<T> handle(T& obj) const {
    return {&obj, gens_.key(obj.slot_)};
  }
  template <class T>
  bool current(detail::Handle<T> h) const {
    return gens_.current(h.key);
  }

  // --- pooled transaction descriptors ------------------------------------
  // Free-list pool shared by every communication layer bound to this
  // simulator; see kernel/txn.hpp. Steady-state transaction traffic must
  // not grow the pool (asserted by the pooled-Txn stress test).
  TxnPool& txn_pool() { return txn_pool_; }
  // Transaction ids begun while this simulator was current (Txn::id runs
  // 1..txn_ids_issued() here). ~Simulator adds the count to the
  // process-wide one, after its processes are unwound.
  std::uint64_t txn_ids_issued() const { return txn_ids_; }

  // Observability for allocation-churn regression tests: the number of
  // Events ever registered. A pooled transaction hot path keeps it flat
  // while transactions flow.
  std::uint64_t events_registered_total() const {
    return events_registered_total_;
  }
  // Suspend the calling thread process: the scheduler loop runs on its
  // stack and switches straight into the next process it picks (or back
  // to run()'s caller when the run ends), or returns at once when it
  // picks the caller again. Returns the reason the process was woken.
  Process::WakeReason suspend_current();

  // Unwind a parked coroutine by resuming it with WakeReason::Kill; the
  // wait() it parked in throws ProcessKilled, destructors on the stack
  // run, and the trampoline retires the process. Only legal between
  // runs (no-op while the simulator is running or a process is current):
  // the unwound frames hand control straight back here, which is only
  // sound from outside every process. ~Process calls this for any
  // started, unterminated process, so teardown leaks nothing.
  void kill_process(Process& p);
  // kill_process for every thread process built on this simulator,
  // whoever owns it: for owners whose threads reference objects that die
  // before the simulator does.
  void kill_threads();

  // --- dispatch order (see DispatchOrder) --------------------------------
  // Set before a run. New simulators take the process-wide default, so a
  // test can reverse the simulators an Explorer builds internally.
  void set_dispatch_order(DispatchOrder o) { order_ = o; }
  DispatchOrder dispatch_order() const { return order_; }
  static void set_default_dispatch_order(DispatchOrder o);
  static DispatchOrder default_dispatch_order();

  // Serial of the next process built on this simulator (ProcessBase::
  // serial); observers key processes by it, never by address.
  std::uint64_t next_process_serial() { return processes_built_++; }

  // --- observability layer (src/obs) -------------------------------------
  // Non-owning session pointers set by obs::TraceSession::attach /
  // obs::Profiler::attach. The kernel and CAM hooks test these pointers
  // before recording; with nothing attached each hook is one branch. The
  // counters below are maintained unconditionally — they are single
  // increments on paths that already swap whole coroutine contexts.
  void set_trace_session(obs::TraceSession* t) { trace_session_ = t; }
  obs::TraceSession* trace_session() const { return trace_session_; }
  void set_profiler(obs::Profiler* p) { profiler_ = p; }
  obs::Profiler* profiler() const { return profiler_; }
  // Thread-process resumes. Each costs at most one raw stack swap,
  // straight from the yielding process into the resumed one, and none
  // when the yielding process is picked again.
  std::uint64_t ctx_switches() const { return ctx_switches_; }
  // Successful lone-runner inline advances (see advance_inline).
  std::uint64_t inline_advances() const { return inline_advances_; }
  // Read-only view of the timed queue for profiler snapshots.
  const detail::TimedQueue& timed_queue() const { return timed_; }

private:
  using TimedEntry = detail::TimedEntry;
  // Makes a simulator the thread-current one for a scope (see
  // kernel/simulator.cpp).
  struct CurrentGuard;

  // Point detail::t_txn_ids at the current simulator's id counter; runs
  // wherever the thread's simulator stack changes.
  static void sync_txn_ids();

  void run_impl(std::optional<Time> end_time);
  // The scheduler loop: evaluate, update, delta, post-delta hooks and
  // time advance. It runs on the stack of whichever context yields —
  // run_impl's at the start of a run, else the thread process that
  // suspends or returns — and stops at the next thread process to
  // resume, returned already current (resume_begin has run). nullptr
  // means the run is over: stop, starvation, horizon or error. Called
  // only while running_. An exception from a method, an update or a
  // hook becomes pending_error_ plus a stop, for run() to rethrow.
  Process* schedule_next() noexcept;
  template <DispatchOrder O>
  Process* schedule_next() noexcept;
  void update_phase() noexcept;
  void delta_phase() noexcept;
  bool advance_time(std::optional<Time> end_time);
  void run_method(MethodProcess& m);
  // Bookkeeping and observer hooks that bracket one thread resume.
  void resume_begin(Process& p);
  void resume_end(Process& p);
  // The one stack switch of a resume, with its sanitizer annotations:
  // from the context that saves its stack pointer to *save_sp (and its
  // fake-stack handle to *save_fake, null when that context dies) into
  // `to`, or back into run_impl's context when `to` is null.
  void switch_to(Process* to, void** save_sp, void** save_fake);
  void fail(std::exception_ptr e) noexcept;
  // Drop the dead processes' nulls from processes_.
  void compact_processes();
  void dispatch_timed(const TimedEntry& e);
  // Stale predicate shared by advance_time and advance_inline: entries
  // cancelled or overridden since registration never advance time.
  static bool timed_entry_stale(const void* ctx, const TimedEntry& e);

  Time now_ = Time::zero();
  std::uint64_t delta_count_ = 0;
  std::uint64_t timed_seq_ = 0;
  bool initialized_ = false;  // a run has begun
  bool running_ = false;
  bool stop_requested_ = false;

  // run_for() horizon of the active run (nullopt for run()); stored so
  // advance_inline never warps simulated time past it.
  std::optional<Time> run_end_time_;

  // Declared before everything whose teardown retires slots.
  detail::GenTable gens_;

  detail::FifoQueue<detail::Handle<Process>> runnable_;
  detail::FifoQueue<detail::Handle<MethodProcess>> method_queue_;
  std::vector<detail::Handle<Event>> delta_events_;
  std::vector<detail::Handle<UpdateIf>> update_requests_;
  // Scratch twins of the two lists above (see update_phase).
  std::vector<detail::Handle<Event>> delta_scratch_;
  std::vector<detail::Handle<UpdateIf>> update_scratch_;
  // Timed notifications: min-heap with deterministic FIFO order within a
  // timestamp (see kernel/timed_queue.hpp).
  detail::TimedQueue timed_;

  TxnPool txn_pool_;
  std::uint64_t txn_ids_ = 0;  // see txn_ids_issued()
  std::uint64_t events_registered_total_ = 0;
  // Live events by generation slot (null where the slot holds none), so
  // reset() can clear their pending notifications and waiters.
  std::vector<Event*> event_at_;
  // register_process's list; a dead process leaves a null until the next
  // compaction (compact_processes).
  std::vector<ProcessBase*> processes_;
  std::size_t dead_processes_ = 0;
  std::vector<std::unique_ptr<ProcessBase>> owned_processes_;
  struct PostDeltaHook {
    const void* owner;
    std::function<void(Time)> fn;
  };
  std::vector<PostDeltaHook> post_delta_hooks_;

  Process* current_process_ = nullptr;
  DispatchOrder order_;
  std::uint64_t processes_built_ = 0;  // see next_process_serial()
  // Observability hooks (see the public obs section above).
  obs::TraceSession* trace_session_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  std::uint64_t ctx_switches_ = 0;
  std::uint64_t inline_advances_ = 0;
  void* sched_sp_ = nullptr;  // run_impl's context while processes run
  // Sanitizer fiber bookkeeping (unused in non-ASan builds): run_impl's
  // fake-stack handle, and the bounds of the stack it runs on (learned
  // at the start of each run and each kill).
  void* sched_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  // TSan identity of run_impl's context (the OS thread's implicit
  // fiber); refreshed on each run in case the simulator migrates threads.
  void* tsan_sched_fiber_ = nullptr;
  std::exception_ptr pending_error_;

  friend class Process;
};

// ---- blocking wait API (callable from thread processes only) -----------

// Wait for one notification of `e`.
void wait(Event& e);
// Wait for `delay` of simulated time.
void wait(Time delay);
// Wait for `e` with a timeout; true if the event fired first.
bool wait(Time timeout, Event& e);

}  // namespace stlm
