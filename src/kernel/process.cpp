#include "kernel/process.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

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

// Whether the calling code runs on `b` (the frame address is the real
// stack even where ASan moves locals to fake frames).
bool running_on(const detail::StackPool::Block& b) {
  const auto sp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const auto base = reinterpret_cast<std::uintptr_t>(b.base);
  return sp >= base && sp - base < detail::StackPool::kStackBytes;
}
}  // namespace

void throw_process_killed() { throw ProcessKilled{}; }

// ---------------------------------------------------------------- base --

ProcessBase::ProcessBase(Simulator& sim, std::string name, Kind kind)
    : sim_(sim),
      name_(std::move(name)),
      kind_(kind),
      slot_(sim.claim_slot()),
      serial_(sim.next_process_serial()) {
  sim_.register_process(*this);
}

ProcessBase::~ProcessBase() {
  sim_.unregister_process(*this);
  sim_.retire_slot(slot_);
}

// -------------------------------------------------------------- thread --

Process::Process(Simulator& sim, std::string name, std::function<void()> body)
    : ProcessBase(sim, std::move(name), Kind::Thread),
      body_(std::move(body)),
      stack_(detail::StackPool::local().acquire()) {
  STLM_ASSERT(body_ != nullptr, "thread process needs a body: " + name_);
  sim_.make_runnable(sim_.handle(*this), WakeReason::Start);
}

Process::~Process() {
  // Methods, updates and hooks run on the stack of the process that
  // yielded (Simulator::schedule_next). One that destroys that process
  // would hand its live stack back to the pool for the next spawn to
  // reuse under the running frames: stop here instead.
  if (running_on(stack_)) [[unlikely]] {
    std::fprintf(stderr,
                 "stlm: thread process %s destroyed while running on its "
                 "own stack\n",
                 name_.c_str());
    std::abort();
  }
  // A process destroyed while parked mid-wait still has live frames (and
  // their locals) on its coroutine stack. Unwind them so destructors run
  // and LeakSanitizer sees every allocation released — without this,
  // sanitized CI had to run with leak detection off.
  if (started_ && !terminated_) sim_.kill_process(*this);
  detail::tsan_fiber_destroy(tsan_fiber_);
  detail::StackPool::local().release(stack_);
}

void Process::trampoline() {
  Process* self = g_starting_process;
  g_starting_process = nullptr;
  Simulator& sim = self->sim_;
  // First entry on this fiber: tell the sanitizer the switch completed.
  detail::fiber_switch_end(nullptr);
  try {
    self->body_();
  } catch (const ProcessKilled&) {
    // Teardown unwind (Simulator::kill_process): expected, not an error.
  } catch (...) {
    // Anything thrown while a killed process unwinds has nowhere to go
    // (the killer is usually ~Simulator); drop it like the ProcessKilled.
    if (sim.running_) sim.fail(std::current_exception());
  }
  self->terminated_ = true;
  sim.invalidate(self->slot_);
  Process* next = nullptr;
  if (sim.running_) {
    sim.resume_end(*self);
    next = sim.schedule_next();
  }
  // Leave this fiber for good (null fake-stack handle: the sanitizer
  // releases its fake frames).
  sim.switch_to(next, &self->sp_, nullptr);
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

void Process::rewind() {
  started_ = false;
  runnable_ = false;
  wake_reason_ = WakeReason::None;
  sp_ = nullptr;
  fake_stack_ = nullptr;
  // The old frames' redzones would trip the new ones (ASan builds).
  detail::fiber_stack_unpoison(stack_.base, detail::StackPool::kStackBytes);
  // A fresh start creates a fresh fiber identity (ensure_started).
  detail::tsan_fiber_destroy(tsan_fiber_);
  tsan_fiber_ = nullptr;
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
