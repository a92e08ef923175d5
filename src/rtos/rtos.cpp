#include "rtos/rtos.hpp"

namespace stlm::rtos {

// ----------------------------------------------------------- semaphore --

Semaphore::Semaphore(Rtos& os, std::string name, std::size_t initial)
    : os_(os), name_(std::move(name)), initial_(initial), count_(initial) {}

void Semaphore::wait() {
  Task& t = os_.require_task("Semaphore::wait");
  if (count_ > 0) {
    --count_;
    return;
  }
  waiters_.push_back(&t);
  os_.block_current(Task::State::Blocked);
  // Ownership was handed over by post(); nothing to decrement here.
}

void Semaphore::post() {
  if (!waiters_.empty()) {
    Task* t = waiters_.front();
    waiters_.pop_front();
    os_.ready_task(*t);
    return;
  }
  ++count_;
}

void Semaphore::post_from_isr() { post(); }

// ---------------------------------------------------------------- rtos --

Rtos::Rtos(Simulator& sim, std::string name, cpu::CpuModel& cpu,
           RtosConfig cfg)
    : Module(sim, std::move(name)),
      cpu_(cpu),
      cfg_(cfg),
      sched_wake_(sim, full_name() + ".sched_wake") {
  STLM_ASSERT(!cfg_.tick.is_zero(), "RTOS tick must be positive: " + full_name());
  spawn_thread("scheduler", [this] { scheduler(); });
}

Task& Rtos::create_task(std::string name, int priority,
                        std::function<void()> body) {
  // Task's constructor is private; Rtos is its factory.
  tasks_.push_back(std::unique_ptr<Task>(
      new Task(sim(), full_name() + "." + name, priority)));
  Task& t = *tasks_.back();
  spawn_thread(name, [this, &t, body = std::move(body)] {
    // Wait for the first dispatch.
    wait(t.resume_);
    body();
    t.state_ = Task::State::Terminated;
    current_ = nullptr;
    sched_wake_.notify_delta();
  });
  sched_wake_.notify_delta();
  return t;
}

void Rtos::reset() {
  for (const auto& t : tasks_) {
    t->state_ = Task::State::Ready;
    t->wake_at_ = Time::zero();
    t->dispatch_seq_ = 0;
  }
  current_ = nullptr;
  switches_ = 0;
  dispatch_counter_ = 0;
  if (!tasks_.empty()) sched_wake_.notify_delta();
}

Task& Rtos::require_task(const char* what) const {
  if (!current_) {
    throw SimulationError(std::string(what) +
                          " may only be called from RTOS task context");
  }
  return *current_;
}

void Rtos::block_current(Task::State why) {
  Task& t = require_task("block_current");
  t.state_ = why;
  current_ = nullptr;
  sched_wake_.notify_delta();
  wait(t.resume_);
}

void Rtos::ready_task(Task& t) {
  if (t.state_ == Task::State::Terminated) return;
  if (t.state_ == Task::State::Ready || t.state_ == Task::State::Running) return;
  t.state_ = Task::State::Ready;
  sched_wake_.notify_delta();
}

void Rtos::yield() {
  Task& t = require_task("yield");
  t.state_ = Task::State::Ready;
  current_ = nullptr;
  sched_wake_.notify_delta();
  wait(t.resume_);
}

void Rtos::delay_ticks(std::uint64_t ticks) {
  Task& t = require_task("delay_ticks");
  t.wake_at_ = sim().now() + cfg_.tick * ticks;
  block_current(Task::State::Sleeping);
}

void Rtos::attach_isr(cpu::IrqController& ic, std::function<void(int)> isr) {
  spawn_thread("isr_dispatch", [this, &ic, isr = std::move(isr)] {
    for (;;) {
      if (ic.pending() == 0) wait(ic.irq_event());
      const int line = ic.claim();
      if (line >= 0) isr(line);
    }
  });
}

bool Rtos::all_tasks_terminated() const {
  for (const auto& t : tasks_) {
    if (t->state_ != Task::State::Terminated) return false;
  }
  return !tasks_.empty();
}

Task* Rtos::pick_ready() {
  Task* best = nullptr;
  for (const auto& t : tasks_) {
    if (t->state_ != Task::State::Ready) continue;
    if (!best || t->prio_ > best->prio_ ||
        (t->prio_ == best->prio_ && t->dispatch_seq_ < best->dispatch_seq_)) {
      best = t.get();
    }
  }
  return best;
}

void Rtos::promote_sleepers() {
  const Time now = sim().now();
  for (const auto& t : tasks_) {
    if (t->state_ == Task::State::Sleeping && t->wake_at_ <= now) {
      t->state_ = Task::State::Ready;
    }
  }
}

Time Rtos::next_wakeup() const {
  Time earliest = Time::max();
  for (const auto& t : tasks_) {
    if (t->state_ == Task::State::Sleeping && t->wake_at_ < earliest) {
      earliest = t->wake_at_;
    }
  }
  return earliest;
}

void Rtos::scheduler() {
  for (;;) {
    promote_sleepers();
    Task* next = pick_ready();
    if (!next) {
      const Time wake = next_wakeup();
      if (wake.is_max()) {
        wait(sched_wake_);  // only an external ready/ISR can help
      } else {
        wait(wake - sim().now(), sched_wake_);
      }
      continue;
    }

    ++switches_;
    next->dispatch_seq_ = ++dispatch_counter_;
    if (cfg_.context_switch_cycles) cpu_.consume(cfg_.context_switch_cycles);
    next->state_ = Task::State::Running;
    current_ = next;
    next->resume_.notify_delta();

    // Sleep until the task reaches a scheduling point.
    do {
      wait(sched_wake_);
    } while (current_ != nullptr && current_->state_ == Task::State::Running);
  }
}

}  // namespace stlm::rtos
