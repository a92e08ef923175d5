#pragma once
// Lightweight user-space context switch for thread processes.
//
// glibc's swapcontext() performs a sigprocmask system call on every
// switch (~1-2 us), which would dominate simulation time — a clock cycle
// costs several process switches. Simulation coroutines never change the
// signal mask, so we switch stacks directly: save the callee-saved
// registers and the stack pointer, load the peer's. This is the same
// technique SystemC's QuickThreads package uses.
//
// A resume costs at most one such switch. The scheduler loop has no
// stack of its own while a run is in flight: it runs on the stack of the
// process that yields and switches from there straight into the next
// one (Simulator::schedule_next), so the run's caller is switched to
// only at the run's end. Every switch goes through
// Simulator::switch_to, which carries the sanitizer annotations below.
//
// x86-64 System V only (the platform this repository targets); the
// assembly lives in process.cpp.

#include <cstddef>

// AddressSanitizer needs to be told about stack switches: without the
// fiber annotations it believes the thread never left its original
// stack, so a noreturn path on a coroutine stack (throwing a simulation
// error, abort) trips "stack-buffer-underflow in sigaltstack" false
// positives while ASan tries to unpoison the wrong stack
// (github.com/google/sanitizers/issues/189). The helpers below compile
// to nothing in non-sanitized builds.
#if defined(__SANITIZE_ADDRESS__)
#define STLM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STLM_ASAN_FIBERS 1
#endif
#endif

#ifdef STLM_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(const void* addr, size_t size);
}
#endif

// ThreadSanitizer has the same blind spot plus a worse failure mode: it
// tracks each OS thread's stack region, and a raw stack switch makes
// every coroutine frame look like an access to "another thread's" stack
// — the parallel sweep then drowns in false data-race reports between a
// platform's own processes. TSan's fiber API fixes this: each coroutine
// registers as a fiber, and every switch is announced so the analysis
// carries the happens-before state across it.
#if defined(__SANITIZE_THREAD__)
#define STLM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STLM_TSAN_FIBERS 1
#endif
#endif

#ifdef STLM_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
void __tsan_set_fiber_name(void* fiber, const char* name);
}
#endif

// Teardown stack unwinding (Simulator::kill_process resuming a parked
// process with a ProcessKilled throw) is compiled only into sanitized
// builds, where it buys LeakSanitizer-at-full-strength CI, plus any
// build that asks for it explicitly (-DSTLM_FORCE_KILL_UNWIND). The
// gating exists because merely making the context-switch path
// *potentially-throwing* strips the whole wait() call tree of its
// nothrow status — every caller grows exception-cleanup bookkeeping —
// which measures as a double-digit percent regression on switch-bound
// benchmarks. Release builds keep the historical teardown semantics:
// parked stacks are reclaimed without running destructors.
#if defined(STLM_ASAN_FIBERS) || defined(STLM_TSAN_FIBERS) || \
    defined(STLM_FORCE_KILL_UNWIND)
#define STLM_KILL_UNWIND 1
#endif

namespace stlm::detail {

#if !defined(__x86_64__)
#error "shiptlm's coroutine switch is implemented for x86-64 SysV only"
#endif

// Save the current stack pointer to *save_sp, switch to load_sp (a value
// previously produced by this function or by make_initial_stack).
extern "C" void stlm_ctx_swap(void** save_sp, void* load_sp);

// Call immediately before stlm_ctx_swap: `save` stores this context's
// fake-stack handle (pass nullptr when this context is about to die, so
// ASan releases its fake frames); bottom/size describe the stack being
// switched *to*.
inline void fiber_switch_begin(void** save, const void* bottom,
                               std::size_t size) {
#ifdef STLM_ASAN_FIBERS
  __sanitizer_start_switch_fiber(save, bottom, size);
#else
  (void)save;
  (void)bottom;
  (void)size;
#endif
}

// Call as the first action after control (re)enters a context: `save` is
// the handle stored by this context's previous fiber_switch_begin
// (nullptr on a fiber's first entry).
inline void fiber_switch_end(void* save) {
#ifdef STLM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(save, nullptr, nullptr);
#else
  (void)save;
#endif
}

// Learn the bounds of the stack the caller runs on, as ASan records
// them, for the switches that later come back to it: a no-op switch to
// an empty stack reports the current bounds, and a second one restores
// them. The bounds are those of the OS thread's stack, or of a
// coroutine's for a simulator run from inside another's process.
inline void fiber_current_stack(const void** bottom, std::size_t* size) {
#ifdef STLM_ASAN_FIBERS
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, nullptr, 0);
  __sanitizer_finish_switch_fiber(fake, bottom, size);
  __sanitizer_start_switch_fiber(&fake, *bottom, *size);
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#else
  (void)bottom;
  (void)size;
#endif
}

// Clear the shadow poison a coroutine's frames left on its stack, before
// the stack is entered afresh (a process restarted by Simulator::reset).
inline void fiber_stack_unpoison(const void* base, std::size_t size) {
#ifdef STLM_ASAN_FIBERS
  __asan_unpoison_memory_region(base, size);
#else
  (void)base;
  (void)size;
#endif
}

// --- TSan fiber identities (no-ops in non-TSan builds) ------------------
//
// Each thread process owns a fiber handle created at first start and
// destroyed with the process; run()'s context is the OS thread's
// implicit fiber. tsan_fiber_switch is called immediately before each
// stlm_ctx_swap with the handle of the context being switched *to*, with
// flag 0 so TSan carries synchronization (happens-before) across the
// switch — coroutines of one simulator genuinely are one logical thread.

inline void* tsan_fiber_current() {
#ifdef STLM_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void* tsan_fiber_create(const char* name) {
#ifdef STLM_TSAN_FIBERS
  void* f = __tsan_create_fiber(0);
  __tsan_set_fiber_name(f, name);
  return f;
#else
  (void)name;
  return nullptr;
#endif
}

inline void tsan_fiber_destroy(void* fiber) {
#ifdef STLM_TSAN_FIBERS
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

inline void tsan_fiber_switch(void* fiber) {
#ifdef STLM_TSAN_FIBERS
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

}  // namespace stlm::detail
