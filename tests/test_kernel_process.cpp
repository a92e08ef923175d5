// Tests for thread/method processes and modules.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::time_literals;

TEST(Process, ThreadsInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> trace;
  sim.spawn_thread("a", [&] {
    trace.push_back("a0");
    wait(10_ns);
    trace.push_back("a1");
  });
  sim.spawn_thread("b", [&] {
    trace.push_back("b0");
    wait(5_ns);
    trace.push_back("b1");
  });
  sim.run();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], "a0");
  EXPECT_EQ(trace[1], "b0");
  EXPECT_EQ(trace[2], "b1");  // 5 ns before 10 ns
  EXPECT_EQ(trace[3], "a1");
}

TEST(Process, DeepCallStackCanWait) {
  // The reason for ucontext processes: block deep inside nested calls.
  Simulator sim;
  Time woke_at;
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      wait(25_ns);
      woke_at = sim.now();
      return;
    }
    recurse(depth - 1);
  };
  sim.spawn_thread("deep", [&] { recurse(100); });
  sim.run();
  EXPECT_EQ(woke_at, 25_ns);
}

TEST(Process, TerminatedEventFires) {
  Simulator sim;
  bool observed = false;
  Event done(sim, "worker.done");
  Process& p = sim.spawn_thread("worker", [&] {
    wait(10_ns);
    done.notify_delta();  // the body's last statement
  });
  sim.spawn_thread("watcher", [&] {
    wait(done);
    observed = true;
    EXPECT_TRUE(p.terminated());
  });
  sim.run();
  EXPECT_TRUE(observed);
}

TEST(Process, MethodRunsOnEachTrigger) {
  Simulator sim;
  Event ev(sim, "ev");
  int runs = 0;
  sim.spawn_method("m", [&] { ++runs; }, {&ev}, /*run_at_start=*/false);
  sim.spawn_thread("driver", [&] {
    for (int i = 0; i < 4; ++i) {
      wait(5_ns);
      ev.notify();
    }
  });
  sim.run();
  EXPECT_EQ(runs, 4);
}

TEST(Process, MethodRunAtStart) {
  Simulator sim;
  Event ev(sim, "ev");
  int runs = 0;
  sim.spawn_method("m", [&] { ++runs; }, {&ev}, /*run_at_start=*/true);
  sim.run();
  EXPECT_EQ(runs, 1);
}

TEST(Process, SpawnDuringSimulation) {
  Simulator sim;
  int child_ran = 0;
  sim.spawn_thread("parent", [&] {
    wait(10_ns);
    sim.spawn_thread("child", [&] {
      child_ran = 1;
      wait(5_ns);
      child_ran = 2;
    });
    wait(20_ns);
  });
  sim.run();
  EXPECT_EQ(child_ran, 2);
}

TEST(Module, FullNamesAreHierarchical) {
  Simulator sim;
  Module top(sim, "top");
  Module sub(sim, "sub", &top);
  Module leaf(sim, "leaf", &sub);
  EXPECT_EQ(leaf.full_name(), "top.sub.leaf");
}

TEST(Module, SpawnedThreadNamePrefixed) {
  Simulator sim;
  Module top(sim, "top");
  Process& p = top.spawn_thread("runner", [] {});
  EXPECT_EQ(p.name(), "top.runner");
}

TEST(Clock, GeneratesEdgesWithPeriod) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);
  std::vector<Time> posedges;
  sim.spawn_thread("sampler", [&] {
    for (int i = 0; i < 3; ++i) {
      wait(clk.posedge_event());
      posedges.push_back(sim.now());
    }
    sim.stop();
  });
  sim.run();
  ASSERT_EQ(posedges.size(), 3u);
  EXPECT_EQ(posedges[0], 0_ns);
  EXPECT_EQ(posedges[1], 10_ns);
  EXPECT_EQ(posedges[2], 20_ns);
}

TEST(Clock, DutyCycleControlsHighTime) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns, 0.3);
  Time negedge_at;
  sim.spawn_thread("sampler", [&] {
    wait(clk.negedge_event());
    negedge_at = sim.now();
    sim.stop();
  });
  sim.run();
  EXPECT_EQ(negedge_at, 3_ns);
}

TEST(Clock, StartDelayHonored) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns, 0.5, 7_ns);
  Time first_pos;
  sim.spawn_thread("sampler", [&] {
    wait(clk.posedge_event());
    first_pos = sim.now();
    sim.stop();
  });
  sim.run();
  EXPECT_EQ(first_pos, 7_ns);
}

TEST(Clock, InvalidParametersThrow) {
  Simulator sim;
  EXPECT_THROW(Clock(sim, "c0", 0_ns), SimulationError);
  EXPECT_THROW(Clock(sim, "c1", 10_ns, 0.0), SimulationError);
  EXPECT_THROW(Clock(sim, "c2", 10_ns, 1.0), SimulationError);
}

// Property-style sweep: N producers each doing K timed increments always
// sum to N*K regardless of interleaving.
class ProcessSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProcessSweep, ManyProcessesAllComplete) {
  const int n = GetParam();
  Simulator sim;
  long total = 0;
  for (int i = 0; i < n; ++i) {
    sim.spawn_thread("p" + std::to_string(i), [&, i] {
      for (int k = 0; k < 10; ++k) {
        wait(Time::ns(static_cast<std::uint64_t>(i % 7 + 1)));
        ++total;
      }
    });
  }
  sim.run();
  EXPECT_EQ(total, 10L * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProcessSweep,
                         ::testing::Values(1, 2, 8, 32, 128));

// --- teardown unwind (Simulator::kill_process) ---------------------------

namespace {
// Flags its destruction — the observable that a parked coroutine's stack
// was actually unwound rather than just reclaimed.
struct UnwindProbe {
  explicit UnwindProbe(bool& flag) : flag_(flag) {}
  ~UnwindProbe() { flag_ = true; }
  bool& flag_;
};
}  // namespace

// A process parked forever mid-wait still has live locals on its stack.
// In sanitized builds (STLM_KILL_UNWIND, see kernel/context.hpp)
// destroying the simulator must unwind that stack so their destructors
// run — this is what lets sanitized CI run with LeakSanitizer on.
TEST(ProcessKill, TeardownUnwindsParkedStacks) {
  if (!kill_unwind_compiled_in())
    GTEST_SKIP() << "teardown unwind not compiled in (release build)";
  bool unwound = false;
  {
    Simulator sim;
    sim.spawn_thread("parked", [&] {
      UnwindProbe probe(unwound);
      auto heap = std::make_unique<std::vector<int>>(1024, 7);
      Event never(sim, "never");
      wait(never);
      ADD_FAILURE() << "woke a process that nothing notifies";
    });
    sim.spawn_thread("done", [] { wait(10_ns); });
    sim.run();
    EXPECT_FALSE(unwound) << "unwind must happen at teardown, not at run end";
  }
  EXPECT_TRUE(unwound);
}

// Module-owned processes unwind when the module dies — while the
// module's own members are still alive, so destructors on the stack may
// touch them.
TEST(ProcessKill, ModuleTeardownUnwindsItsProcesses) {
  if (!kill_unwind_compiled_in())
    GTEST_SKIP() << "teardown unwind not compiled in (release build)";
  Simulator sim;
  bool unwound = false;
  {
    Module m(sim, "m");
    m.spawn_thread("loop", [&] {
      UnwindProbe probe(unwound);
      for (;;) wait(1_ms);
    });
    sim.run_for(5_ms);
    EXPECT_FALSE(unwound);
  }
  EXPECT_TRUE(unwound);
  sim.run_for(1_ms);  // the survivor-free simulator still runs cleanly
}

// ProcessKilled must not be reported as a process error, and a process
// that already terminated is not re-entered at teardown.
TEST(ProcessKill, KillIsNotAnError) {
  bool ran = false;
  {
    Simulator sim;
    sim.spawn_thread("finishes", [&] { ran = true; });
    sim.spawn_thread("parked", [&] {
      Event never(sim, "never");
      wait(never);
    });
    sim.run();  // would rethrow a process error
  }
  EXPECT_TRUE(ran);
}

// A never-started process (spawned after the last run) has no frames to
// unwind; teardown must not fabricate a start for it.
TEST(ProcessKill, NeverStartedProcessIsNotEntered) {
  bool entered = false;
  {
    Simulator sim;
    sim.spawn_thread("first", [] {});
    sim.run();
    sim.spawn_thread("late", [&] { entered = true; });
  }
  EXPECT_FALSE(entered);
}
