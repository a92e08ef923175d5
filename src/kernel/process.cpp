#include "kernel/process.hpp"

#include <algorithm>
#include <cstdlib>

#include "kernel/context.hpp"
#include "kernel/event.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

// Callee-saved-register stack switch (x86-64 SysV). See context.hpp.
asm(R"(
.text
.globl stlm_ctx_swap
.type stlm_ctx_swap, @function
stlm_ctx_swap:
  pushq %rbx
  pushq %rbp
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbp
  popq %rbx
  ret
.size stlm_ctx_swap, .-stlm_ctx_swap
)");

namespace stlm {

namespace {
// Handoff slot for the coroutine trampoline (the initial frame carries no
// arguments; the spawner sets this immediately before the first switch).
thread_local Process* g_starting_process = nullptr;
}  // namespace

void throw_process_killed() { throw ProcessKilled{}; }

// ---------------------------------------------------------------- base --

ProcessBase::ProcessBase(Simulator& sim, std::string name, Kind kind)
    : sim_(sim),
      name_(std::move(name)),
      kind_(kind),
      slot_(sim.claim_slot()),
      serial_(sim.next_process_serial()) {}

ProcessBase::~ProcessBase() { sim_.retire_slot(slot_); }

// -------------------------------------------------------------- thread --

Process::Process(Simulator& sim, std::string name, std::function<void()> body)
    : ProcessBase(sim, std::move(name), Kind::Thread),
      body_(std::move(body)),
      stack_(detail::StackPool::local().acquire()) {
  STLM_ASSERT(body_ != nullptr, "thread process needs a body: " + name_);
  sim_.make_runnable(sim_.handle(*this), WakeReason::Start);
}

Process::~Process() {
  // A process destroyed while parked mid-wait still has live frames (and
  // their locals) on its coroutine stack. Unwind them so destructors run
  // and LeakSanitizer sees every allocation released — without this,
  // sanitized CI had to run with leak detection off.
  if (started_ && !terminated_) sim_.kill_process(*this);
  detail::tsan_fiber_destroy(tsan_fiber_);
  detail::StackPool::local().release(stack_);
}

Event& Process::terminated_event() {
  if (!terminated_event_) {
    terminated_event_ =
        std::make_unique<Event>(sim_, name_ + ".terminated");
  }
  return *terminated_event_;
}

void Process::trampoline() {
  Process* self = g_starting_process;
  g_starting_process = nullptr;
  // First entry on this fiber: tell the sanitizer the switch completed
  // and learn the scheduler stack's bounds for the switches back.
  detail::fiber_switch_end(nullptr, &self->sim_.sched_stack_bottom_,
                           &self->sim_.sched_stack_size_);
  try {
    self->body_();
  } catch (const ProcessKilled&) {
    // Teardown unwind (Simulator::kill_process): expected, not an error.
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->terminated_ = true;
  self->sim_.invalidate(self->slot_);
  if (self->terminated_event_) self->terminated_event_->notify_delta();
  // Hand control back to the scheduler for good (null handle: this
  // fiber is done, release its sanitizer fake frames).
  detail::fiber_switch_begin(nullptr, self->sim_.sched_stack_bottom_,
                             self->sim_.sched_stack_size_);
  detail::tsan_fiber_switch(self->sim_.tsan_sched_fiber_);
  detail::stlm_ctx_swap(&self->sp_, self->sim_.sched_sp_);
  // A terminated process is never resumed.
  std::abort();
}

void Process::ensure_started() {
  if (started_) return;
  started_ = true;
  // Craft the initial frame stlm_ctx_swap will "restore": six zeroed
  // callee-saved registers, then the trampoline as return address. The
  // pad slot keeps rsp % 16 == 8 at trampoline entry (SysV call ABI).
  char* top = stack_.base + detail::StackPool::kStackBytes;
  top -= reinterpret_cast<std::uintptr_t>(top) % 16;
  void** frame = reinterpret_cast<void**>(top) - 8;
  for (int i = 0; i < 6; ++i) frame[i] = nullptr;     // r15..rbx
  frame[6] = reinterpret_cast<void*>(&Process::trampoline);
  frame[7] = nullptr;                                 // alignment pad
  sp_ = frame;
#ifdef STLM_TSAN_FIBERS
  tsan_fiber_ = detail::tsan_fiber_create(name_.c_str());
#endif
  g_starting_process = this;
}

// -------------------------------------------------------------- method --

MethodProcess::MethodProcess(Simulator& sim, std::string name,
                             std::function<void()> fn, bool run_at_start)
    : ProcessBase(sim, std::move(name), Kind::Method),
      fn_(std::move(fn)),
      run_at_start_(run_at_start) {
  STLM_ASSERT(fn_ != nullptr, "method process needs a callback: " + name_);
  if (run_at_start_) sim_.queue_method(*this);
}

MethodProcess::~MethodProcess() {
  // Every event still listed is live: a dying event unlinks itself here.
  for (Event* e : static_events_) std::erase(e->static_, this);
}

void MethodProcess::set_static_sensitivity(const std::vector<Event*>& events) {
  for (Event* e : static_events_) std::erase(e->static_, this);
  static_events_ = events;
  for (Event* e : static_events_) {
    STLM_ASSERT(e != nullptr, "null event in sensitivity list of " + name_);
    e->static_.push_back(this);
  }
}

}  // namespace stlm
