// Tests for Signal update semantics and the kernel Mutex.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/kernel.hpp"

using namespace stlm;
using namespace stlm::time_literals;

TEST(Signal, WriteVisibleNextDelta) {
  Simulator sim;
  Signal<int> s(sim, "s", 0);
  int seen_before = -1, seen_after = -1;
  sim.spawn_thread("writer", [&] {
    s.write(7);
    seen_before = s.read();  // old value: update not applied yet
    wait(s.value_changed_event());
    seen_after = s.read();
  });
  sim.run();
  EXPECT_EQ(seen_before, 0);
  EXPECT_EQ(seen_after, 7);
}

TEST(Signal, NoEventWhenValueUnchanged) {
  Simulator sim;
  Signal<int> s(sim, "s", 5);
  bool changed = false;
  sim.spawn_thread("watch", [&] {
    wait(s.value_changed_event());
    changed = true;
  });
  sim.spawn_thread("writer", [&] {
    wait(1_ns);
    s.write(5);  // same value: no notification
  });
  sim.run();
  EXPECT_FALSE(changed);
}

TEST(Signal, LastWriteInDeltaWins) {
  Simulator sim;
  Signal<int> s(sim, "s", 0);
  sim.spawn_thread("w1", [&] { s.write(1); });
  sim.spawn_thread("w2", [&] { s.write(2); });
  sim.run();
  EXPECT_EQ(s.read(), 2);
}

TEST(Signal, BoolEdgesFire) {
  Simulator sim;
  Signal<bool> s(sim, "s", false);
  std::vector<std::string> edges;
  sim.spawn_thread("pos", [&] {
    for (;;) {
      wait(s.posedge_event());
      edges.push_back("pos");
    }
  });
  sim.spawn_thread("neg", [&] {
    for (;;) {
      wait(s.negedge_event());
      edges.push_back("neg");
    }
  });
  sim.spawn_thread("driver", [&] {
    wait(1_ns);
    s.write(true);
    wait(1_ns);
    s.write(false);
    wait(1_ns);
    s.write(true);
    wait(1_ns);
    sim.stop();
  });
  sim.run();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], "pos");
  EXPECT_EQ(edges[1], "neg");
  EXPECT_EQ(edges[2], "pos");
}

TEST(Mutex, ProvidesMutualExclusion) {
  Simulator sim;
  Mutex m(sim, "m");
  int inside = 0;
  int max_inside = 0;
  auto worker = [&] {
    for (int i = 0; i < 10; ++i) {
      LockGuard g(m);
      ++inside;
      max_inside = std::max(max_inside, inside);
      wait(1_ns);  // hold the lock across a wait
      --inside;
    }
  };
  sim.spawn_thread("w1", worker);
  sim.spawn_thread("w2", worker);
  sim.spawn_thread("w3", worker);
  sim.run();
  EXPECT_EQ(max_inside, 1);
}

TEST(Mutex, DoubleUnlockThrows) {
  Simulator sim;
  Mutex m(sim, "m");
  sim.spawn_thread("t", [&] {
    m.lock();
    m.unlock();
    EXPECT_THROW(m.unlock(), SimulationError);
  });
  sim.run();
}
