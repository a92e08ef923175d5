// stlm-lint: hot-path — dispatched on every event/delta; steady-state
// simulation must stay heap-allocation-free (see tools/stlm_lint.py).
#include "kernel/txn.hpp"

#include "kernel/process.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace stlm {

void CompletionEvent::complete(Simulator& sim) {
  completed_ = true;
  const detail::Handle<Process> w = waiter_;
  waiter_ = {};
  if (!w.obj) return;  // completion before (or without) wait
  if (sim.current(w)) {
    sim.make_runnable(w, Process::WakeReason::Event);
  }
}

void CompletionEvent::wait(Simulator& sim) {
  Process& p = sim.require_process("CompletionEvent::wait");
  while (!completed_) {
    STLM_ASSERT(waiter_.obj == nullptr || waiter_.obj == &p,
                "CompletionEvent supports a single waiter");
    waiter_ = sim.handle(p);
    sim.suspend_current();
  }
  waiter_ = {};
}

}  // namespace stlm
