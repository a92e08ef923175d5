// Tests for Event notification semantics, the scheduler's phase order,
// and stale scheduler references to destroyed objects whose storage is
// built over again.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <new>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "workload/rng.hpp"

using namespace stlm;
using namespace stlm::time_literals;

TEST(Events, TimedNotifyWakesAtRightTime) {
  Simulator sim;
  Event ev(sim, "ev");
  Time woke_at;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  sim.spawn_thread("notifier", [&] {
    wait(30_ns);
    ev.notify(12_ns);
  });
  sim.run();
  EXPECT_EQ(woke_at, 42_ns);
}

TEST(Events, DeltaNotifyWakesInSameTimestep) {
  Simulator sim;
  Event ev(sim, "ev");
  int order = 0;
  int waiter_order = -1, notifier_order = -1;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    waiter_order = order++;
    EXPECT_EQ(sim.now(), Time::zero());
  });
  sim.spawn_thread("notifier", [&] {
    ev.notify_delta();
    notifier_order = order++;
  });
  sim.run();
  EXPECT_EQ(notifier_order, 0);
  EXPECT_EQ(waiter_order, 1);
}

TEST(Events, ImmediateNotifyWakesInSameEvaluation) {
  Simulator sim;
  Event ev(sim, "ev");
  std::uint64_t wake_delta = 999;
  // Waiter must be registered before the notifier fires; thread order is
  // creation order, so the waiter runs (and waits) first.
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    wake_delta = sim.delta_count();
  });
  sim.spawn_thread("notifier", [&] { ev.notify(); });
  sim.run();
  EXPECT_EQ(wake_delta, 0u);  // woken within the very first delta
}

TEST(Events, CancelSuppressesTimedNotification) {
  Simulator sim;
  Event ev(sim, "ev");
  bool woke = false;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke = true;
  });
  sim.spawn_thread("controller", [&] {
    ev.notify(10_ns);
    wait(5_ns);
    ev.cancel();
  });
  sim.run();
  EXPECT_FALSE(woke);
  EXPECT_EQ(sim.now(), 5_ns);  // the 10 ns entry is stale and skipped
}

TEST(Events, EarlierNotificationOverridesLater) {
  Simulator sim;
  Event ev(sim, "ev");
  Time woke_at;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  sim.spawn_thread("notifier", [&] {
    ev.notify(20_ns);
    ev.notify(5_ns);  // earlier: overrides
  });
  sim.run();
  EXPECT_EQ(woke_at, 5_ns);
}

TEST(Events, LaterNotificationIsIgnoredWhilePending) {
  Simulator sim;
  Event ev(sim, "ev");
  Time woke_at;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  sim.spawn_thread("notifier", [&] {
    ev.notify(5_ns);
    ev.notify(20_ns);  // later: ignored per SystemC override rule
  });
  sim.run();
  EXPECT_EQ(woke_at, 5_ns);
}

TEST(Events, DeltaNotifyOverridesPendingTimed) {
  // A delta notification is always earlier than a timed one, so it must
  // displace a pending timed notification (SystemC override rule).
  Simulator sim;
  Event ev(sim, "ev");
  Time woke_at = Time::max();
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  sim.spawn_thread("notifier", [&] {
    ev.notify(5_ns);
    ev.notify_delta();  // earlier: overrides the 5 ns entry
  });
  sim.run();
  EXPECT_EQ(woke_at, Time::zero());
}

TEST(Events, CancelThenRenotifyFiresAtNewTime) {
  // cancel() bumps the scheduling generation: the stale 10 ns entry must
  // not fire, and a fresh notification after cancel must.
  Simulator sim;
  Event ev(sim, "ev");
  Time woke_at = Time::max();
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  sim.spawn_thread("controller", [&] {
    ev.notify(10_ns);
    wait(5_ns);
    ev.cancel();
    ev.notify(10_ns);  // re-arm: fires at 15 ns, not at the stale 10 ns
  });
  sim.run();
  EXPECT_EQ(woke_at, 15_ns);
}

TEST(Events, CancelThenEarlierRenotifyIsNotBlockedByStaleEntry) {
  // After cancel(), a new notification may be scheduled for any time —
  // including one earlier than the cancelled entry.
  Simulator sim;
  Event ev(sim, "ev");
  Time woke_at = Time::max();
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  sim.spawn_thread("controller", [&] {
    ev.notify(30_ns);
    ev.cancel();
    ev.notify(7_ns);
  });
  sim.run();
  EXPECT_EQ(woke_at, 7_ns);
}

TEST(Events, CancelDeltaSuppressesDelivery) {
  Simulator sim;
  Event ev(sim, "ev");
  bool woke = false;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke = true;
  });
  sim.spawn_thread("controller", [&] {
    ev.notify_delta();
    ev.cancel();  // same evaluation phase: delta must not be delivered
  });
  sim.run();
  EXPECT_FALSE(woke);
}

TEST(Events, WaitWithTimeoutReturnsTrueOnEvent) {
  Simulator sim;
  Event ev(sim, "ev");
  bool got_event = false;
  sim.spawn_thread("waiter", [&] { got_event = wait(100_ns, ev); });
  sim.spawn_thread("notifier", [&] {
    wait(10_ns);
    ev.notify();
  });
  sim.run();
  EXPECT_TRUE(got_event);
  EXPECT_EQ(sim.now(), 10_ns);
}

TEST(Events, WaitWithTimeoutReturnsFalseOnTimeout) {
  Simulator sim;
  Event ev(sim, "ev");
  bool got_event = true;
  Time woke_at;
  sim.spawn_thread("waiter", [&] {
    got_event = wait(100_ns, ev);
    woke_at = sim.now();
  });
  sim.run();
  EXPECT_FALSE(got_event);
  EXPECT_EQ(woke_at, 100_ns);
}

TEST(Events, MultipleWaitersAllWake) {
  Simulator sim;
  Event ev(sim, "ev");
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn_thread("w" + std::to_string(i), [&] {
      wait(ev);
      ++woken;
    });
  }
  sim.spawn_thread("notifier", [&] {
    wait(1_ns);
    ev.notify();
  });
  sim.run();
  EXPECT_EQ(woken, 5);
}

TEST(Events, NotificationIsOneShot) {
  Simulator sim;
  Event ev(sim, "ev");
  int wakes = 0;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    ++wakes;
    wait(ev);  // must not be woken by the same (consumed) notification
    ++wakes;
  });
  sim.spawn_thread("notifier", [&] {
    wait(1_ns);
    ev.notify();
  });
  sim.run();
  EXPECT_EQ(wakes, 1);
}

TEST(Events, RunForStopsAtBound) {
  Simulator sim;
  Event ev(sim, "ev");
  bool woke = false;
  sim.spawn_thread("waiter", [&] {
    wait(ev);
    woke = true;
  });
  sim.spawn_thread("notifier", [&] {
    wait(100_ns);
    ev.notify();
  });
  sim.run_for(50_ns);
  EXPECT_FALSE(woke);
  EXPECT_EQ(sim.now(), 50_ns);
  sim.run_for(60_ns);
  EXPECT_TRUE(woke);
}

TEST(Events, SimultaneousTimedNotificationsShareDelta) {
  Simulator sim;
  Event a(sim, "a"), b(sim, "b");
  std::vector<Time> wakes;
  sim.spawn_thread("wa", [&] {
    wait(a);
    wakes.push_back(sim.now());
  });
  sim.spawn_thread("wb", [&] {
    wait(b);
    wakes.push_back(sim.now());
  });
  sim.spawn_thread("n", [&] {
    a.notify(10_ns);
    b.notify(10_ns);
  });
  sim.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], 10_ns);
  EXPECT_EQ(wakes[1], 10_ns);
}

TEST(Events, ProcessExceptionPropagatesFromRun) {
  Simulator sim;
  sim.spawn_thread("thrower", [&] {
    wait(1_ns);
    throw ProtocolError("boom");
  });
  EXPECT_THROW(sim.run(), ProtocolError);
}

TEST(Events, WaitOutsideProcessThrows) {
  Simulator sim;
  Event ev(sim, "ev");
  EXPECT_THROW(wait(ev), SimulationError);
}

TEST(Events, StopEndsRunEarly) {
  Simulator sim;
  int steps = 0;
  sim.spawn_thread("ticker", [&] {
    for (;;) {
      wait(10_ns);
      if (++steps == 3) sim.stop();
    }
  });
  sim.run();
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(sim.now(), 30_ns);
}

// ------------------------------------------------------ recycled storage --
//
// Each test destroys an object while the scheduler still holds a
// reference to it, then builds the next object in the same storage
// (placement new), so the new object sits at the old one's address by
// construction. The stale reference must not reach the new object.

TEST(Recycling, StaleTimedNotificationMissesEventInSameStorage) {
  alignas(Event) unsigned char storage[sizeof(Event)];
  Simulator sim;
  Event* first = new (storage) Event(sim, "first");
  first->notify(10_ns);
  first->~Event();
  Event* second = new (storage) Event(sim, "second");
  std::vector<Time> fired;
  sim.spawn_thread("waiter", [&] {
    wait(*second);
    fired.push_back(sim.now());
  });
  second->notify(20_ns);
  sim.run();
  EXPECT_EQ(fired, std::vector<Time>{20_ns});
  second->~Event();
}

TEST(Recycling, StaleTimeoutMissesProcessInSameStorage) {
  alignas(Process) unsigned char storage[sizeof(Process)];
  Simulator sim;
  Event never(sim, "never");
  Process* first =
      new (storage) Process(sim, "first", [] { wait(100_ns); });
  sim.run_for(10_ns);  // first is parked on its 100 ns timeout
  first->~Process();
  bool woke = false;
  Process* second = new (storage) Process(sim, "second", [&] {
    wait(never);
    woke = true;
  });
  sim.run();
  EXPECT_FALSE(woke);
  EXPECT_EQ(sim.now(), 10_ns);  // nothing live was left to advance time
  second->~Process();
}

namespace {
// An UpdateIf that counts the update phases it was given.
class UpdateProbe final : public UpdateIf {
public:
  explicit UpdateProbe(Simulator& sim) : UpdateIf(sim) {}
  int updates = 0;

private:
  void update() override { ++updates; }
};
}  // namespace

TEST(Recycling, QueuedUpdateOfDestroyedSignalMissesObjectInSameStorage) {
  constexpr std::size_t kBytes =
      std::max(sizeof(Signal<int>), sizeof(UpdateProbe));
  alignas(Signal<int>) alignas(UpdateProbe) unsigned char storage[kBytes];
  Simulator sim;
  auto* sig = new (storage) Signal<int>(sim, "sig", 0);
  sig->write(5);  // queues an update for the next update phase
  sig->~Signal();
  auto* probe = new (storage) UpdateProbe(sim);
  ASSERT_EQ(static_cast<void*>(static_cast<UpdateIf*>(probe)),
            static_cast<void*>(storage));
  sim.run();
  EXPECT_EQ(probe->updates, 0);
  probe->~UpdateProbe();
}

// Mid-run teardown stress: a fixed set of storage cells is filled with
// objects the scheduler holds references to — events with pending timed
// or delta notifications, processes parked on timeouts, events and
// completion tokens, signals with queued updates — and between run_for
// calls a random subset is destroyed and new objects are built in the
// freed cells. Every fire and wake is checked to be one a live object
// asked for, at the time it asked; after each run, every live object
// whose time has come must have seen it.
namespace {

// A storage cell's occupant. `settle` runs after each run_for: anything
// the object asked for at or before `now` must have happened by then.
// `done` says whether it has, so the test can count the objects that
// died with a reference still queued.
struct Actor {
  virtual ~Actor() = default;
  virtual void settle(Time now) const = 0;
  virtual bool done() const = 0;
};

// An event notified once (delta or timed); a method process watches it.
struct NotifiedEvent final : Actor {
  NotifiedEvent(Simulator& sim, workload::SplitMix64& rng)
      : ev(sim, "ev"),
        watch(sim, "watch", [this, &sim] {
          EXPECT_FALSE(fired) << "notified once, fired twice";
          EXPECT_EQ(sim.now(), due);
          fired = true;
        }, /*run_at_start=*/false) {
    watch.set_static_sensitivity({&ev});
    const Time d = Time::ns(rng.uniform(0, 40));
    if (rng.uniform(0, 3) == 0) {  // a first notification, then cancelled
      ev.notify(Time::ns(rng.uniform(0, 40)));
      ev.cancel();
    }
    ev.notify(d);
    due = sim.now() + d;
  }
  void settle(Time now) const override {
    EXPECT_EQ(fired, due <= now) << "event due at " << due.to_string();
  }
  bool done() const override { return fired; }
  Event ev;
  MethodProcess watch;
  Time due;
  bool fired = false;
};

// A thread process parked on a timeout.
struct Sleeper final : Actor {
  Sleeper(Simulator& sim, workload::SplitMix64& rng)
      : due(sim.now() + Time::ns(rng.uniform(1, 80))),
        proc(sim, "sleeper", [this, &sim] {
          wait(due - sim.now());
          EXPECT_EQ(sim.now(), due);
          woke = true;
        }) {
  }
  void settle(Time now) const override {
    EXPECT_EQ(woke, due <= now) << "timeout due at " << due.to_string();
  }
  bool done() const override { return woke; }
  Time due;
  bool woke = false;
  Process proc;
};

// A thread process parked on its own event, which is notified (delta or
// timed) or never.
struct EventWaiter final : Actor {
  EventWaiter(Simulator& sim, workload::SplitMix64& rng)
      : ev(sim, "ev"),
        proc(sim, "event-waiter", [this, &sim] {
          wait(ev);
          EXPECT_TRUE(notified) << "woken by an event nobody notified";
          EXPECT_EQ(sim.now(), due);
          woke = true;
        }) {
    if (rng.uniform(0, 2) != 0) {
      const Time d = Time::ns(rng.uniform(0, 40));
      ev.notify(d);
      notified = true;
      due = sim.now() + d;
    }
  }
  void settle(Time now) const override {
    EXPECT_EQ(woke, notified && due <= now);
  }
  bool done() const override { return woke; }
  Event ev;
  bool notified = false;
  Time due;
  bool woke = false;
  Process proc;
};

// A thread process parked on a completion token, completed later (if
// it lives that long) from between runs.
struct TokenWaiter final : Actor {
  explicit TokenWaiter(Simulator& sim)
      : proc(sim, "token-waiter", [this, &sim] {
          token.wait(sim);
          EXPECT_TRUE(completed) << "woken by a token nobody completed";
          EXPECT_EQ(sim.now(), due);
          woke = true;
        }) {
  }
  void complete(Simulator& sim) {
    completed = true;
    due = sim.now();
    token.complete(sim);
  }
  void settle(Time) const override {
    // A completion from between runs wakes the waiter in the next run.
    EXPECT_EQ(woke, completed);
  }
  bool done() const override { return woke; }
  CompletionEvent token;
  bool completed = false;
  Time due;
  bool woke = false;
  Process proc;
};

// A signal written once (a queued update), watched by a method process.
struct WrittenSignal final : Actor {
  WrittenSignal(Simulator& sim, int v)
      : sig(sim, "sig", 0),
        watch(sim, "watch", [this, &sim] {
          EXPECT_FALSE(seen) << "written once, changed twice";
          EXPECT_EQ(sig.read(), value);
          EXPECT_EQ(sim.now(), due);
          seen = true;
        }, /*run_at_start=*/false),
        value(v),
        due(sim.now()) {
    watch.set_static_sensitivity({&sig.value_changed_event()});
    sig.write(v);
  }
  void settle(Time) const override { EXPECT_TRUE(seen); }
  bool done() const override { return seen; }
  Signal<int> sig;
  MethodProcess watch;
  int value;
  Time due;
  bool seen = false;
};

// An update target with one queued request.
struct QueuedUpdate final : Actor {
  explicit QueuedUpdate(Simulator& sim) : probe(sim) {
    sim.request_update(probe);
  }
  void settle(Time) const override { EXPECT_EQ(probe.updates, 1); }
  bool done() const override { return probe.updates != 0; }
  UpdateProbe probe;
};

constexpr std::size_t kCellBytes =
    std::max({sizeof(NotifiedEvent), sizeof(Sleeper), sizeof(EventWaiter),
              sizeof(TokenWaiter), sizeof(WrittenSignal),
              sizeof(QueuedUpdate)});

struct Cell {
  alignas(std::max_align_t) unsigned char storage[kCellBytes];
  Actor* actor = nullptr;
  TokenWaiter* token = nullptr;  // set when the occupant is a TokenWaiter
  bool settled_once = false;     // has lived through a run
};

}  // namespace

TEST(Recycling, MidRunTeardownStress) {
  constexpr std::size_t kCells = 12;
  constexpr int kRounds = 300;
  int completed = 0;        // objects that saw what they asked for
  int died_pending = 0;     // objects destroyed with a reference queued
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    workload::SplitMix64 rng(seed);
    Simulator sim;
    std::array<Cell, kCells> cells;
    int next_value = 0;
    const auto destroy = [&](Cell& c) {
      ++(c.actor->done() ? completed : died_pending);
      c.actor->~Actor();
      c = Cell{};
    };
    for (int round = 0; round < kRounds; ++round) {
      for (Cell& c : cells) {
        if (c.actor != nullptr && rng.uniform(0, 2) == 0) destroy(c);
      }
      for (Cell& c : cells) {
        if (c.actor == nullptr && rng.uniform(0, 1) == 0) {
          void* at = c.storage;
          switch (rng.uniform(0, 5)) {
            case 0: c.actor = new (at) NotifiedEvent(sim, rng); break;
            case 1: c.actor = new (at) Sleeper(sim, rng); break;
            case 2: c.actor = new (at) EventWaiter(sim, rng); break;
            case 3: c.actor = c.token = new (at) TokenWaiter(sim); break;
            case 4:
              c.actor = new (at) WrittenSignal(sim, ++next_value);
              break;
            default: c.actor = new (at) QueuedUpdate(sim); break;
          }
        } else if (c.token != nullptr && c.settled_once &&
                   !c.token->completed && rng.uniform(0, 2) == 0) {
          c.token->complete(sim);
        }
      }
      sim.run_for(Time::ns(rng.uniform(1, 60)));
      for (Cell& c : cells) {
        if (c.actor == nullptr) continue;
        c.actor->settle(sim.now());
        c.settled_once = true;
      }
      if (HasFailure()) {
        ADD_FAILURE() << "seed " << seed << ", round " << round;
        break;
      }
    }
    for (Cell& c : cells) {
      if (c.actor != nullptr) destroy(c);
    }
    if (HasFailure()) return;
  }
  // Not vacuous: both outcomes occur often.
  EXPECT_GT(completed, 500);
  EXPECT_GT(died_pending, 500);
}
