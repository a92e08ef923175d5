#pragma once
// Simulation processes.
//
// Two kinds, mirroring SystemC:
//   * Process       — a thread process: a stack-switching coroutine (see
//                     context.hpp), so it can block in wait() at any call
//                     depth.
//                     This is what makes SHIP's blocking interface method
//                     calls (send/recv/request/reply) expressible.
//   * MethodProcess — a method process: a callback re-run from the top on
//                     every trigger of its static sensitivity; cheap, used
//                     by clocked pin-level FSMs.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/stack_pool.hpp"

namespace stlm {

class Simulator;
class Event;

// Thrown through a parked coroutine by Simulator::kill_process to unwind
// its stack (running the destructors of everything the body holds) at
// teardown. Deliberately not derived from std::exception: a `catch
// (const std::exception&)` in process code will not swallow it. Process
// bodies that use `catch (...)` around code that may wait() MUST rethrow
// this type, or the kill is lost and the stack is reclaimed un-unwound.
struct ProcessKilled {};

// Out-of-line cold throw: a `throw` statement inside the context-switch
// hot path (Simulator::suspend_current) pessimizes its codegen enough to
// show up on switch-bound benchmarks, so the Kill check calls this
// instead.
[[noreturn]] void throw_process_killed();

// True when teardown unwinding is compiled in (see the STLM_KILL_UNWIND
// rationale in kernel/context.hpp). Tests that assert destructors ran on
// killed stacks skip themselves when this is false.
constexpr bool kill_unwind_compiled_in() {
#ifdef STLM_KILL_UNWIND
  return true;
#else
  return false;
#endif
}

class ProcessBase {
public:
  enum class Kind { Thread, Method };

  ProcessBase(Simulator& sim, std::string name, Kind kind);
  virtual ~ProcessBase();

  ProcessBase(const ProcessBase&) = delete;
  ProcessBase& operator=(const ProcessBase&) = delete;

  const std::string& name() const { return name_; }
  Kind kind() const { return kind_; }
  bool terminated() const { return terminated_; }
  Simulator& sim() const { return sim_; }

  // Construction order within the simulator, from 0. Unlike the
  // address, it is never shared with a process built later in a dead
  // one's storage, so observers key processes by it.
  std::uint64_t serial() const { return serial_; }

protected:
  friend class Simulator;

  Simulator& sim_;
  std::string name_;
  Kind kind_;
  std::uint32_t slot_ = 0;  // generation slot (kernel/handle.hpp)
  bool terminated_ = false;
  std::uint64_t serial_;
  std::size_t reg_index_ = 0;  // position in the simulator's process list
};

// Thread process: coroutine with dedicated stack.
class Process final : public ProcessBase {
public:
  // Every thread process gets a StackPool::kStackBytes coroutine stack.
  Process(Simulator& sim, std::string name, std::function<void()> body);
  ~Process() override;

  enum class WakeReason { None, Start, Event, Timeout, Kill };

private:
  friend class Simulator;
  friend class Event;

  static void trampoline();  // coroutine entry; dispatches via tls pointer
  void ensure_started();
  // Back to "never started" (Simulator::reset): the next resume crafts a
  // fresh initial frame, so the body runs from its first statement.
  void rewind();

  std::function<void()> body_;
  detail::StackPool::Block stack_;  // pooled, guard-paged (see stack_pool.hpp)
  void* fake_stack_ = nullptr;  // sanitizer fiber handle (ASan builds)
  void* tsan_fiber_ = nullptr;  // fiber identity (TSan builds)
  void* sp_ = nullptr;  // saved stack pointer while suspended
  bool started_ = false;
  bool runnable_ = false;                    // queued in the runnable list
  WakeReason wake_reason_ = WakeReason::None;
};

// Method process: callback re-run on every trigger of its static
// sensitivity. Only method processes have one; a thread process waits
// on the events it names in each wait().
class MethodProcess final : public ProcessBase {
public:
  MethodProcess(Simulator& sim, std::string name, std::function<void()> fn,
                bool run_at_start = true);
  ~MethodProcess() override;

  // Replace the static sensitivity list (registers with each event).
  void set_static_sensitivity(const std::vector<Event*>& events);

private:
  friend class Simulator;
  friend class Event;

  std::function<void()> fn_;
  std::vector<Event*> static_events_;
  bool queued_ = false;
  bool run_at_start_ = true;
};

}  // namespace stlm
