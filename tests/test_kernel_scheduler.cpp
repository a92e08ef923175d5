// Scheduler-semantics tests: method processes and their static
// sensitivity, update-phase ordering, and determinism — the
// kernel behaviours the pin-level FSMs, monitors, and arbiters rely on.
#include <gtest/gtest.h>

#include <memory>
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
  // Two identical simulations produce identical interleavings: three
  // producers at different rates append to one shared buffer and notify
  // a consumer, which drains whatever has arrived each time it wakes.
  auto run_once = [] {
    Simulator sim;
    Event written(sim, "written");
    std::vector<int> buf;
    std::vector<int> order;
    for (int id = 0; id < 3; ++id) {
      sim.spawn_thread("p" + std::to_string(id), [&, id] {
        for (int i = 0; i < 5; ++i) {
          buf.push_back(id * 10 + i);
          written.notify_delta();
          wait(Time::ns(static_cast<std::uint64_t>(1 + id)));
        }
      });
    }
    sim.spawn_thread("c", [&] {
      while (order.size() < 15) {
        wait(written);
        order.insert(order.end(), buf.begin(), buf.end());
        buf.clear();
      }
    });
    sim.run();
    return order;
  };
  const std::vector<int> first = run_once();
  EXPECT_EQ(first.size(), 15u);
  EXPECT_EQ(run_once(), first);
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

// ---- dispatch order (DispatchOrder) ---------------------------------------

namespace {

// Two threads and two methods, all runnable at time zero; returns the
// order they ran in.
std::vector<std::string> first_delta_order(Simulator& sim) {
  std::vector<std::string> order;
  for (const char* name : {"t0", "t1"}) {
    sim.spawn_thread(name, [&order, name] { order.emplace_back(name); });
  }
  for (const char* name : {"m0", "m1"}) {
    sim.spawn_method(name, [&order, name] { order.emplace_back(name); }, {});
  }
  sim.run();
  return order;
}

}  // namespace

TEST(Scheduler, FifoIsTheDefaultDispatchOrder) {
  EXPECT_EQ(Simulator::default_dispatch_order(), DispatchOrder::Fifo);
  Simulator sim;
  EXPECT_EQ(sim.dispatch_order(), DispatchOrder::Fifo);
  EXPECT_EQ(first_delta_order(sim),
            (std::vector<std::string>{"m0", "m1", "t0", "t1"}));
}

TEST(Scheduler, ReverseRunsCoRunnableProcessesLifoMethodsFirst) {
  Simulator sim;
  sim.set_dispatch_order(DispatchOrder::Reverse);
  EXPECT_EQ(first_delta_order(sim),
            (std::vector<std::string>{"m1", "m0", "t1", "t0"}));
}

TEST(Scheduler, NewSimulatorsTakeTheDefaultDispatchOrder) {
  Simulator::set_default_dispatch_order(DispatchOrder::Reverse);
  Simulator reversed;
  Simulator::set_default_dispatch_order(DispatchOrder::Fifo);
  Simulator plain;
  EXPECT_EQ(reversed.dispatch_order(), DispatchOrder::Reverse);
  EXPECT_EQ(plain.dispatch_order(), DispatchOrder::Fifo);
}

TEST(Scheduler, LongImmediateNotifyChainRunsToCompletionUnderReverse) {
  // "last" is runnable from the start and never waits; "p" and "q" hand
  // one event back and forth by immediate notification, so the run
  // queue holds two entries for the whole phase. Reverse always takes
  // the newest: the ping-pong runs first, all of it, and "last" last.
  Simulator sim;
  sim.set_dispatch_order(DispatchOrder::Reverse);
  Event ev(sim, "ev");
  constexpr int kRounds = 5000;
  std::string order;
  order.reserve(2 * kRounds + 1);
  sim.spawn_thread("last", [&] { order.push_back('L'); });
  for (const char c : {'p', 'q'}) {
    sim.spawn_thread(std::string(1, c), [&, c] {
      for (int r = 0; r < kRounds; ++r) {
        order.push_back(c);
        ev.notify();
        if (r + 1 < kRounds) wait(ev);
      }
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 2u * kRounds + 1);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    ASSERT_EQ(order[k], k % 2 == 0 ? 'q' : 'p') << "hand-off " << k;
  }
  EXPECT_EQ(order.back(), 'L');
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.delta_count(), 1u);
}

TEST(Scheduler, RunQueueCompactsCorrectlyWhenPoppedFromBothEnds) {
  // Past the compaction threshold, pushes drop the consumed prefix;
  // entries taken from the back must not disturb what is left.
  detail::FifoQueue<int> q;
  std::vector<int> model;  // live entries, oldest first
  int next = 0;
  for (int round = 0; round < 20000; ++round) {
    q.push_back(next);
    model.push_back(next++);
    if (round % 3 == 0) {
      q.push_back(next);
      model.push_back(next++);
    }
    if (round % 7 == 0) {
      ASSERT_EQ(q.pop_back(), model.back());
      model.pop_back();
    } else {
      ASSERT_EQ(q.pop_front(), model.front());
      model.erase(model.begin());
    }
  }
  while (!model.empty()) {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.pop_back(), model.back());
    model.pop_back();
  }
  EXPECT_TRUE(q.empty());
}

// stop() ends the run as soon as the calling process yields: run()
// returns at the same instant, before a co-runnable thread is
// dispatched, and the next run() dispatches that thread at that instant.
TEST(Scheduler, StopFromAThreadReturnsBeforeTheNextDispatch) {
  Simulator sim;
  bool second_ran = false;
  Time second_at;
  sim.spawn_thread("stopper", [&] {
    wait(5_ns);
    sim.stop();
  });
  sim.spawn_thread("second", [&] {
    wait(5_ns);
    second_ran = true;
    second_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(sim.now(), 5_ns);
  EXPECT_FALSE(second_ran);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(second_at, 5_ns);
  EXPECT_EQ(sim.now(), 5_ns);
}

// The same from a method process: methods run before threads in an
// evaluation phase, so the thread that became runnable with the method
// waits for the next run().
TEST(Scheduler, StopFromAMethodReturnsBeforeTheNextDispatch) {
  Simulator sim;
  Event go(sim, "go");
  bool thread_ran = false;
  Time thread_at;
  sim.spawn_method("stopper", [&] { sim.stop(); }, {&go},
                   /*run_at_start=*/false);
  sim.spawn_thread("kick", [&] {
    wait(5_ns);
    go.notify();
  });
  sim.spawn_thread("second", [&] {
    wait(5_ns);
    thread_ran = true;
    thread_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(sim.now(), 5_ns);
  EXPECT_FALSE(thread_ran);
  sim.run();
  EXPECT_TRUE(thread_ran);
  EXPECT_EQ(thread_at, 5_ns);
  EXPECT_EQ(sim.now(), 5_ns);
}

// ---- the scheduler loop on a process's stack ------------------------------
//
// Once a run has entered its first process, the loop runs on the stack of
// the process that yields (Simulator::schedule_next). The tests below pin
// what that must not change: errors, self-wakes, stop() and starvation.

// A post-delta hook that throws while the loop runs inside a ticker's
// wait(): run_for() rethrows it at that instant, and the simulator stays
// usable and tears down with the ticker parked.
TEST(Scheduler, HookExceptionOnAProcessStackIsRethrownByRun) {
  Simulator sim;
  int ticks = 0;
  sim.spawn_thread("ticker", [&] {
    for (int i = 0; i < 10; ++i) {
      wait(1_ns);
      ++ticks;
    }
  });
  const int owner = 0;
  sim.add_post_delta_hook(&owner, [&](Time now) {
    if (now == 3_ns) {
      EXPECT_GT(sim.ctx_switches(), 0u);  // called from the ticker's wait()
      throw ProtocolError("hook boom");
    }
  });
  EXPECT_THROW(sim.run_for(100_ns), ProtocolError);
  EXPECT_EQ(sim.now(), 3_ns);
  EXPECT_FALSE(sim.running());
  sim.remove_post_delta_hooks(&owner);
  sim.run();
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sim.now(), 10_ns);
}

// A hook that calls stop() while the loop runs on a process's stack ends
// the run at the hook's instant: time does not first advance to the next
// timed entry (like SystemC's sc_stop, which finishes the delta only).
TEST(Scheduler, HookStopOnAProcessStackEndsTheRunAtThatInstant) {
  Simulator sim;
  int ticks = 0;
  sim.spawn_thread("ticker", [&] {
    for (int i = 0; i < 10; ++i) {
      wait(1_ns);
      ++ticks;
    }
  });
  const int owner = 0;
  bool stopped = false;
  sim.add_post_delta_hook(&owner, [&](Time now) {
    if (now == 3_ns && !stopped) {
      EXPECT_GT(sim.ctx_switches(), 0u);  // called from the ticker's wait()
      stopped = true;
      sim.stop();
    }
  });
  sim.run_for(100_ns);
  EXPECT_TRUE(stopped);
  EXPECT_EQ(sim.now(), 3_ns);
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(sim.running());
  sim.run();
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sim.now(), 10_ns);
}

// A method that destroys the thread process whose wait() it runs in
// would free the stack under its own frames; ~Process stops the program
// instead of letting the pool hand that stack to the next spawn.
TEST(SchedulerDeathTest, DestroyingTheYieldingProcessFromAMethodAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        Event kick(sim, "kick");
        auto owner = std::make_unique<Module>(sim, "owner");
        owner->spawn_thread("worker", [&] {
          wait(1_ns);
          kick.notify();
          wait(5_ns);  // the method runs inside this wait()
        });
        sim.spawn_method("reaper", [&] { owner.reset(); }, {&kick},
                         /*run_at_start=*/false);
        sim.run();
      },
      "destroyed while running on its own stack");
}

// A method that throws when a thread's immediate notification queues it:
// the method runs inside that thread's wait(), and run() rethrows.
TEST(Scheduler, MethodExceptionOnAProcessStackIsRethrownByRun) {
  Simulator sim;
  Event ev(sim, "ev");
  sim.spawn_method("bad", [] { throw ProtocolError("method boom"); }, {&ev},
                   /*run_at_start=*/false);
  sim.spawn_thread("kick", [&] {
    wait(2_ns);
    ev.notify();
    wait(5_ns);  // parked here when the run ends
  });
  EXPECT_THROW(sim.run(), ProtocolError);
  EXPECT_EQ(sim.now(), 2_ns);
  EXPECT_FALSE(sim.running());
}

// A process woken only by its own delta notification is picked again:
// one resume, counted once, and the loop hands control straight back.
TEST(Scheduler, SelfDeltaWakeCountsOneResume) {
  Simulator sim;
  Event ev(sim, "ev");
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  sim.spawn_thread("self", [&] {
    before = sim.ctx_switches();
    ev.notify_delta();
    wait(ev);
    after = sim.ctx_switches();
  });
  sim.run();
  EXPECT_EQ(before, 1u);
  EXPECT_EQ(after, before + 1);
  EXPECT_EQ(sim.delta_count(), 2u);
}

// Starving inside a process's wait() ends run() there; a later notify
// and run_for() resume the process and run to the new horizon.
TEST(Scheduler, StarvationInsideAWaitReturnsAndRunForContinues) {
  Simulator sim;
  Event ev(sim, "ev");
  Time woke_at;
  sim.spawn_thread("waiter", [&] {
    wait(7_ns);
    wait(ev);
    woke_at = sim.now();
    wait(20_ns);
  });
  sim.run();
  EXPECT_EQ(sim.now(), 7_ns);
  ev.notify(3_ns);
  sim.run_for(10_ns);
  EXPECT_EQ(woke_at, 10_ns);
  EXPECT_EQ(sim.now(), 17_ns);
  sim.run();
  EXPECT_EQ(sim.now(), 30_ns);
  EXPECT_TRUE(sim.idle());
}

namespace {

// Four threads runnable at the start; the first one dispatched calls
// stop() when `stop_first` is set. Returns the dispatch order over two
// runs and the count dispatched by the first.
std::pair<std::vector<int>, std::size_t> order_with_stop(DispatchOrder o,
                                                         bool stop_first) {
  Simulator sim;
  sim.set_dispatch_order(o);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn_thread("t" + std::to_string(i), [&, i] {
      if (stop_first && order.empty()) sim.stop();
      order.push_back(i);
      wait(1_ns);
    });
  }
  sim.run();
  const std::size_t first_run = order.size();
  sim.run();
  return {order, first_run};
}

}  // namespace

TEST(Scheduler, StopInsideAProcessKeepsTheRestQueuedInOrder) {
  for (const DispatchOrder o : {DispatchOrder::Fifo, DispatchOrder::Reverse}) {
    const auto [reference, all] = order_with_stop(o, false);
    const auto [stopped, first] = order_with_stop(o, true);
    EXPECT_EQ(all, 4u);
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(stopped, reference);
  }
  EXPECT_EQ(order_with_stop(DispatchOrder::Fifo, true).first,
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(order_with_stop(DispatchOrder::Reverse, true).first,
            (std::vector<int>{3, 2, 1, 0}));
}

// A write queued behind stop() is activity: idle() must say so, and the
// next run applies it and wakes the value's waiter.
TEST(Scheduler, IdleCountsAnUpdateLeftQueuedByStop) {
  Simulator sim;
  Signal<int> s(sim, "s", 0);
  int woke = 0;
  sim.spawn_thread("waiter", [&] {
    wait(s.value_changed_event());
    ++woke;
  });
  sim.spawn_thread("writer", [&] {
    s.write(7);
    sim.stop();
  });
  sim.run();
  EXPECT_EQ(s.read(), 0);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(s.read(), 7);
  EXPECT_EQ(woke, 1);
  EXPECT_TRUE(sim.idle());
}

// --- Simulator::reset -----------------------------------------------------

namespace {

// One dispatch as a process saw it on resuming.
struct Dispatch {
  std::string process;
  Time at;
  std::uint64_t delta;
  bool operator==(const Dispatch&) const = default;
};

// Threads handing events around by immediate, delta and timed
// notification, a signal write and a method on its change: every
// dispatch is logged, so a trace is the run's (process, time, delta)
// order.
struct TracedModel {
  explicit TracedModel(Simulator& sim)
      : ping(sim, "ping"), pong(sim, "pong"), sig(sim, "sig", 0) {
    auto log = [this, &sim](const char* who) {
      trace.push_back({who, sim.now(), sim.delta_count()});
    };
    sim.spawn_thread("a", [this, log] {
      for (int i = 0; i < 6; ++i) {
        log("a");
        ping.notify_delta();
        wait(pong);
        sig.write(i + 1);
        wait(3_ns);
      }
    });
    sim.spawn_thread("b", [this, log] {
      for (;;) {
        wait(ping);
        log("b");
        pong.notify(2_ns);
      }
    });
    sim.spawn_thread("c", [log] {
      for (int i = 0; i < 4; ++i) {
        log("c");
        wait(5_ns);
      }
    });
    sim.spawn_method("m", [log] { log("m"); }, {&sig.value_changed_event()},
                     /*run_at_start=*/true);
  }

  Event ping;
  Event pong;
  Signal<int> sig;
  std::vector<Dispatch> trace;
};

}  // namespace

// (a) A run stopped partway, reset and run again dispatches exactly what
// a fresh simulator's run does, under both dispatch orders.
TEST(Scheduler, ResetRunRepeatsTheFreshDispatchTrace) {
  for (const DispatchOrder o : {DispatchOrder::Fifo, DispatchOrder::Reverse}) {
    SCOPED_TRACE(o == DispatchOrder::Fifo ? "fifo" : "reverse");
    std::vector<Dispatch> fresh;
    {
      Simulator sim;
      sim.set_dispatch_order(o);
      TracedModel model(sim);
      sim.run();
      fresh = model.trace;
    }
    ASSERT_GT(fresh.size(), 20u);

    Simulator sim;
    sim.set_dispatch_order(o);
    TracedModel model(sim);
    sim.run_for(11_ns);  // parks every thread mid-body
    ASSERT_LT(model.trace.size(), fresh.size());
    sim.reset();
    model.sig.reset(0);
    model.trace.clear();
    sim.run();
    EXPECT_EQ(model.trace, fresh);
    // And once more from a finished run.
    sim.reset();
    model.sig.reset(0);
    model.trace.clear();
    sim.run();
    EXPECT_EQ(model.trace, fresh);
  }
}

// (b) A process parked in wait(Event), wait(Time) or CompletionEvent::wait
// restarts at the first statement of its body.
TEST(Scheduler, ResetRestartsParkedProcessesFromTheirFirstStatement) {
  Simulator sim;
  Event never(sim, "never");
  Txn txn;  // its completion never comes
  std::vector<std::string> starts;
  std::vector<std::string> parked;
  sim.spawn_thread("on_event", [&] {
    starts.push_back("event@" + sim.now().to_string());
    wait(1_ns);
    parked.push_back("event");
    wait(never);
    ADD_FAILURE() << "resumed past wait(Event)";
  });
  sim.spawn_thread("on_time", [&] {
    starts.push_back("time@" + sim.now().to_string());
    wait(1_ns);
    parked.push_back("time");
    wait(1_ms);
    ADD_FAILURE() << "resumed past wait(Time)";
  });
  sim.spawn_thread("on_completion", [&] {
    starts.push_back("completion@" + sim.now().to_string());
    wait(1_ns);
    parked.push_back("completion");
    txn.done.reset();
    txn.done.wait(sim);
    ADD_FAILURE() << "resumed past CompletionEvent::wait";
  });
  sim.run_for(10_ns);
  const std::vector<std::string> first{"event@0 s", "time@0 s",
                                       "completion@0 s"};
  EXPECT_EQ(starts, first);
  EXPECT_EQ(parked.size(), 3u);
  sim.reset();
  sim.run_for(10_ns);
  std::vector<std::string> twice = first;
  twice.insert(twice.end(), first.begin(), first.end());
  EXPECT_EQ(starts, twice);
  EXPECT_EQ(parked.size(), 6u);
  EXPECT_EQ(sim.now(), 10_ns);
}

// (c) Nothing registered before a reset fires after it: no timed, delta
// or update entry, no pending notification.
TEST(Scheduler, ResetDropsEveryPendingNotificationAndUpdate) {
  Simulator sim;
  Event timed(sim, "timed");
  Event delta(sim, "delta");
  Signal<int> sig(sim, "sig", 0);
  int fired = 0;
  sim.spawn_method("watch", [&] { ++fired; },
                   {&timed, &delta, &sig.value_changed_event()},
                   /*run_at_start=*/false);
  bool armed = false;
  sim.spawn_thread("arm", [&] {
    if (armed) return;  // the restarted body arms nothing
    armed = true;
    timed.notify(50_ns);
    delta.notify_delta();
    sig.write(7);
    sim.stop();
  });
  sim.run();
  ASSERT_TRUE(timed.pending());
  ASSERT_TRUE(delta.pending());
  ASSERT_FALSE(sim.idle());
  ASSERT_EQ(fired, 0);

  sim.reset();
  EXPECT_FALSE(timed.pending());
  EXPECT_FALSE(delta.pending());
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sig.read(), 0);
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_TRUE(sim.idle());

  // Notifications made after the reset are fresh and fire as usual.
  sim.spawn_thread("again", [&] { timed.notify(5_ns); });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5_ns);
}

// (d) The run's counters restart at 0; the transaction ids issued before
// the reset stay in the process-wide count.
TEST(Scheduler, ResetRestartsTheCountersAndKeepsTheProcessWideTxnIds) {
  Simulator sim;
  Event e(sim, "e");
  sim.spawn_thread("t", [&] {
    Txn txn;
    for (int i = 0; i < 5; ++i) {
      txn.begin_msg();
      e.notify_delta();
      wait(e);
      wait(2_ns);  // the lone runner advances inline
    }
  });
  sim.spawn_thread("u", [] { wait(1_ns); });  // one timed push
  sim.run();
  ASSERT_EQ(sim.txn_ids_issued(), 5u);
  ASSERT_GT(sim.delta_count(), 0u);
  ASSERT_GT(sim.ctx_switches(), 0u);
  ASSERT_GT(sim.inline_advances(), 0u);
  ASSERT_GT(sim.timed_queue().stats().pushes, 0u);
  const std::uint64_t others = detail::g_txn_ids.load();

  sim.reset();
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.delta_count(), 0u);
  EXPECT_EQ(sim.ctx_switches(), 0u);
  EXPECT_EQ(sim.inline_advances(), 0u);
  EXPECT_EQ(sim.timed_queue().stats().pushes, 0u);
  EXPECT_EQ(sim.timed_queue().stats().peak_size, 0u);
  EXPECT_EQ(sim.txn_ids_issued(), 0u);
  EXPECT_FALSE(sim.initialized());
  EXPECT_EQ(detail::g_txn_ids.load(), others + 5);

  // The restarted run numbers its transactions from 1 again.
  sim.run();
  EXPECT_EQ(sim.txn_ids_issued(), 5u);
}

TEST(Scheduler, ResetIsRefusedWhileRunning) {
  Simulator sim;
  bool threw = false;
  sim.spawn_thread("t", [&] {
    try {
      sim.reset();
    } catch (const SimulationError&) {
      threw = true;
    }
  });
  sim.run();
  EXPECT_TRUE(threw);
}
