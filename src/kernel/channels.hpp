#pragma once
// The kernel's one blocking primitive channel: a mutex that parks the
// calling thread process until the holder unlocks. The crossbar's
// per-slave lanes, the OCP TL channel and the OCP pin master serialize
// their callers with it.
//
// SystemC's sc_fifo and sc_semaphore have no counterpart here. In the
// paper's flow data moves through SHIP channels and OCP/CAM transports,
// and the eSW synthesis step (Herrera et al.) replaces SystemC
// primitives with RTOS ones: software runs on SwExecContext, its local
// channels are SwLocalChannel on rtos::Queue, and rtos::Semaphore is the
// semaphore (src/core/esw.hpp, src/rtos/rtos.hpp).
//
// Two same-delta lock() calls are served in dispatch order: which goes
// first is the kernel's choice, not the model's. The dispatch-order check
// (docs/ARCHITECTURE.md) shows such a race as a different outcome under
// DispatchOrder::Reverse.

#include <string>

#include "kernel/event.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace stlm {

class Mutex {
public:
  explicit Mutex(Simulator& sim, std::string name = "mutex")
      : name_(std::move(name)), unlocked_(sim, name_ + ".unlocked") {}

  void lock() {
    while (locked_) wait(unlocked_);
    locked_ = true;
  }

  void unlock() {
    STLM_ASSERT(locked_, "unlock of unlocked mutex: " + name_);
    locked_ = false;
    unlocked_.notify_delta();
  }

  // Unlocked, without a notification: for the owner of a reset system,
  // whose holder's frame was abandoned (Simulator::reset).
  void reset() { locked_ = false; }

private:
  std::string name_;
  Event unlocked_;
  bool locked_ = false;
};

// RAII guard for Mutex.
class LockGuard {
public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

private:
  Mutex& m_;
};

}  // namespace stlm
