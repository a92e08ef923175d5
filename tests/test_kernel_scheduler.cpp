// Scheduler-semantics tests: method processes, static sensitivity for
// threads (wait_static), update-phase ordering, and determinism — the
// kernel behaviours the pin-level FSMs, monitors, and arbiters rely on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::time_literals;

TEST(Scheduler, MethodSeesPreUpdateValueInItsDelta) {
  // A method sensitive to a signal's change event samples the *updated*
  // value (it runs in the delta after the update phase).
  Simulator sim;
  Signal<int> s(sim, "s", 0);
  int sampled = -1;
  sim.spawn_method("watch", [&] { sampled = s.read(); },
                   {&s.value_changed_event()}, /*run_at_start=*/false);
  sim.spawn_thread("drive", [&] {
    wait(1_ns);
    s.write(7);
  });
  sim.run();
  EXPECT_EQ(sampled, 7);
}

TEST(Scheduler, MethodWritingSignalTriggersDownstreamMethod) {
  // Method chains through the update phase: m1 writes a, m2 is sensitive
  // to a and writes b, m3 observes b — three deltas, same timestamp.
  Simulator sim;
  Signal<int> a(sim, "a", 0), b(sim, "b", 0);
  Event start(sim, "start");
  int final_b = -1;
  Time at;
  sim.spawn_method("m1", [&] { a.write(1); }, {&start},
                   /*run_at_start=*/false);
  sim.spawn_method("m2", [&] { b.write(a.read() + 10); },
                   {&a.value_changed_event()}, false);
  sim.spawn_method("m3",
                   [&] {
                     final_b = b.read();
                     at = sim.now();
                   },
                   {&b.value_changed_event()}, false);
  sim.spawn_thread("kick", [&] {
    wait(5_ns);
    start.notify();
  });
  sim.run();
  EXPECT_EQ(final_b, 11);
  EXPECT_EQ(at, 5_ns);  // all within one timestep
}

TEST(Scheduler, WaitStaticUsesSensitivityList) {
  Simulator sim;
  Event ev_a(sim, "a"), ev_b(sim, "b");
  std::vector<std::string> wakes;
  Process& p = sim.spawn_thread("t", [&] {
    for (int i = 0; i < 2; ++i) {
      wait_static();
      wakes.push_back(Simulator::current()->current_process()
                          ->last_wake_event()
                          ->name());
    }
  });
  p.set_static_sensitivity({&ev_a, &ev_b});
  sim.spawn_thread("driver", [&] {
    wait(1_ns);
    ev_b.notify();
    wait(1_ns);
    ev_a.notify();
  });
  sim.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], "b");
  EXPECT_EQ(wakes[1], "a");
}

TEST(Scheduler, WaitStaticWithoutSensitivityThrows) {
  Simulator sim;
  sim.spawn_thread("t", [&] { wait_static(); });
  EXPECT_THROW(sim.run(), SimulationError);
}

TEST(Scheduler, MethodSpawnedDuringSimulationRuns) {
  Simulator sim;
  Event ev(sim, "ev");
  int runs = 0;
  sim.spawn_thread("spawner", [&] {
    wait(5_ns);
    sim.spawn_method("late", [&] { ++runs; }, {&ev}, /*run_at_start=*/true);
    wait(5_ns);
    ev.notify();
    wait(1_ns);
  });
  sim.run();
  EXPECT_EQ(runs, 2);  // once at (late) start, once on the event
}

TEST(Scheduler, MethodExceptionPropagates) {
  Simulator sim;
  Event ev(sim, "ev");
  sim.spawn_method("bad", [&] { throw ProtocolError("method boom"); }, {&ev},
                   /*run_at_start=*/false);
  sim.spawn_thread("kick", [&] {
    wait(1_ns);
    ev.notify();
  });
  EXPECT_THROW(sim.run(), ProtocolError);
}

TEST(Scheduler, RunsAreResumable) {
  // run_for segments must stitch together seamlessly.
  Simulator sim;
  std::vector<Time> ticks;
  sim.spawn_thread("ticker", [&] {
    for (int i = 0; i < 6; ++i) {
      wait(10_ns);
      ticks.push_back(sim.now());
    }
  });
  sim.run_for(25_ns);
  EXPECT_EQ(ticks.size(), 2u);
  EXPECT_EQ(sim.now(), 25_ns);
  sim.run_for(25_ns);
  EXPECT_EQ(ticks.size(), 5u);
  sim.run();
  ASSERT_EQ(ticks.size(), 6u);
  EXPECT_EQ(ticks.back(), 60_ns);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  // Two identical simulations produce identical interleavings.
  auto run_once = [] {
    Simulator sim;
    Fifo<int> f(sim, "f", 2);
    std::vector<int> order;
    for (int id = 0; id < 3; ++id) {
      sim.spawn_thread("p" + std::to_string(id), [&, id] {
        for (int i = 0; i < 5; ++i) {
          f.write(id * 10 + i);
          wait(Time::ns(static_cast<std::uint64_t>(1 + id)));
        }
      });
    }
    sim.spawn_thread("c", [&] {
      for (int i = 0; i < 15; ++i) order.push_back(f.read());
    });
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, ModuleSpawnedMethodWithParentHierarchy) {
  Simulator sim;
  Module top(sim, "top");
  Module child(sim, "child", &top);
  Event ev(sim, "ev");
  int runs = 0;
  MethodProcess& m =
      child.spawn_method("fsm", [&] { ++runs; }, {&ev}, false);
  EXPECT_EQ(m.name(), "top.child.fsm");
  sim.spawn_thread("kick", [&] {
    ev.notify(3_ns);
    wait(10_ns);
  });
  sim.run();
  EXPECT_EQ(runs, 1);
}

TEST(Scheduler, IdleDetection) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  Event ev(sim, "ev");
  sim.spawn_thread("t", [&] { wait(5_ns); });
  sim.run();
  EXPECT_TRUE(sim.idle());
}

TEST(Scheduler, LongImmediateNotifyChainStaysFifo) {
  // Three threads hand one event around by immediate notification, so
  // the run queue holds two entries for the whole evaluation phase and
  // never drains: its consumed prefix is reclaimed mid-phase many times
  // over. Every hand-off must still follow FIFO order, all at time zero.
  Simulator sim;
  Event ev(sim, "ev");
  constexpr int kRounds = 5000;
  std::vector<int> order;
  order.reserve(3 * kRounds);
  for (int i = 0; i < 3; ++i) {
    sim.spawn_thread("t" + std::to_string(i), [&, i] {
      for (int r = 0; r < kRounds; ++r) {
        order.push_back(i);
        ev.notify();
        if (r + 1 < kRounds) wait(ev);
      }
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 3u * kRounds);
  for (std::size_t k = 0; k < order.size(); ++k) {
    ASSERT_EQ(order[k], static_cast<int>(k % 3)) << "hand-off " << k;
  }
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.delta_count(), 1u);
}
