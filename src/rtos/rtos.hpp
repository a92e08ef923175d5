#pragma once
// RTOS substrate for embedded software synthesis.
//
// The paper adopts the Herrera et al. methodology: embedded SW is
// generated from SystemC code "by simply substituting some SystemC
// library elements for behaviourally equivalent procedures based on RTOS
// functions". This module provides those procedures: a preemptive
// priority scheduler with tasks, counting semaphores and message queues,
// running on a CpuModel so that all SW activity is serialized on one
// processor and charged in CPU cycles.
//
// Scheduling model: fixed priority (higher value wins, FIFO within a
// level). Dispatch happens at scheduling points (block/yield/delay/
// terminate); interrupts are delivered by a dispatcher that can ready
// tasks, which then preempt at the running task's next scheduling point.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu.hpp"
#include "cpu/irq.hpp"
#include "kernel/module.hpp"

namespace stlm::rtos {

class Rtos;

struct RtosConfig {
  Time tick = Time::us(1);                    // delay granularity
  std::uint64_t context_switch_cycles = 20;   // charged per dispatch

  bool operator==(const RtosConfig&) const = default;
};

class Task {
public:
  enum class State { Ready, Running, Blocked, Sleeping, Terminated };

  const std::string& name() const { return name_; }
  int priority() const { return prio_; }
  State state() const { return state_; }

private:
  friend class Rtos;
  friend class Semaphore;

  Task(Simulator& sim, std::string name, int prio)
      : name_(std::move(name)), prio_(prio), resume_(sim, name_ + ".resume") {}

  std::string name_;
  int prio_;
  State state_ = State::Ready;
  Event resume_;
  Time wake_at_ = Time::zero();
  std::uint64_t dispatch_seq_ = 0;  // round-robin tie-break within a level
};

class Semaphore {
public:
  Semaphore(Rtos& os, std::string name, std::size_t initial);

  void wait();            // task context; blocks while the count is zero
  void post();            // task context
  void post_from_isr();   // ISR/any-process context
  std::size_t count() const { return count_; }
  // The initial count and no waiter (a reset system).
  void reset() {
    count_ = initial_;
    waiters_.clear();
  }

private:
  Rtos& os_;
  std::string name_;
  std::size_t initial_;
  std::size_t count_;
  std::deque<Task*> waiters_;
};

// Bounded message queue (the RTOS substitute for SystemC's sc_fifo).
template <class T>
class Queue {
public:
  Queue(Rtos& os, std::string name, std::size_t capacity)
      : items_(os, name + ".items", 0),
        space_(os, name + ".space", capacity) {}

  void send(T v) {
    space_.wait();
    buf_.push_back(std::move(v));
    items_.post();
  }

  T recv() {
    items_.wait();
    T v = std::move(buf_.front());
    buf_.pop_front();
    space_.post();
    return v;
  }

  std::size_t size() const { return buf_.size(); }
  // Empty, with the full capacity free (a reset system).
  void reset() {
    items_.reset();
    space_.reset();
    buf_.clear();
  }

private:
  Semaphore items_;
  Semaphore space_;
  std::deque<T> buf_;
};

class Rtos final : public Module {
public:
  Rtos(Simulator& sim, std::string name, cpu::CpuModel& cpu,
       RtosConfig cfg = {});

  cpu::CpuModel& cpu() { return cpu_; }
  const RtosConfig& config() const { return cfg_; }

  // Create a task; `body` runs in task context and may use the blocking
  // RTOS API plus cpu().consume().
  Task& create_task(std::string name, int priority, std::function<void()> body);

  // ---- task-context API ----------------------------------------------
  void yield();
  void delay_ticks(std::uint64_t ticks);
  Task* current() const { return current_; }

  // ---- interrupt service ----------------------------------------------
  // Spawns a dispatcher that claims pending lines from `ic` and invokes
  // `isr(line)` (non-task context; use post_from_isr to ready tasks).
  void attach_isr(cpu::IrqController& ic, std::function<void(int)> isr);

  // Back to the state right after its tasks were created (after
  // Simulator::reset, which restarts their threads): every task ready
  // and undispatched, no task running, zero counters, and the
  // scheduler's wake-up queued as create_task queued it.
  void reset();

  // ---- introspection ----------------------------------------------------
  std::uint64_t context_switches() const { return switches_; }
  bool all_tasks_terminated() const;

  // ---- internal (sync objects) -----------------------------------------
  Task& require_task(const char* what) const;
  void block_current(Task::State why);
  void ready_task(Task& t);

private:
  void scheduler();
  Task* pick_ready();
  void promote_sleepers();
  Time next_wakeup() const;

  cpu::CpuModel& cpu_;
  RtosConfig cfg_;
  std::vector<std::unique_ptr<Task>> tasks_;
  Task* current_ = nullptr;
  Event sched_wake_;
  std::uint64_t switches_ = 0;
  std::uint64_t dispatch_counter_ = 0;
};

}  // namespace stlm::rtos
