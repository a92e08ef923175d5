// Tests for the timed queue behind the simulator's timed schedule — its
// (when, seq) contract checked directly against a sorted reference, FIFO
// tie-break determinism at one instant, cancel / re-notify / override
// against pending entries, near and far entries mixed — plus the pooled
// coroutine stacks that recycle thread stacks across simulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/stack_pool.hpp"
#include "kernel/timed_queue.hpp"

using namespace stlm;
using namespace stlm::time_literals;

// --------------------------------------------------------- timed queue ----

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Entries whose seq is in the set are stale: the StaleFn the simulator
// passes, reduced to a lookup.
bool seq_is_stale(const void* ctx, const detail::TimedEntry& e) {
  return static_cast<const std::unordered_set<std::uint64_t>*>(ctx)->count(
             e.seq) != 0;
}

bool entry_less(const detail::TimedEntry& a, const detail::TimedEntry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

// (when in fs, seq) of each entry, for comparing whole sequences.
std::vector<std::pair<std::uint64_t, std::uint64_t>> keys(
    const std::vector<detail::TimedEntry>& v) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const detail::TimedEntry& e : v) {
    out.emplace_back(e.when.femtoseconds(), e.seq);
  }
  return out;
}

}  // namespace

// The queue contract, without a Simulator in the way: whatever mix of
// same-instant clusters, 1 ns neighbours and microsecond hops is pushed,
// with pops interleaved and entries going stale at random, the popped
// sequence is the (when, seq)-sorted order of the entries still live when
// they reach the top.
TEST(TimedQueue, MatchesSortedReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::uint64_t rng = seed;
    detail::TimedQueue q;
    std::unordered_set<std::uint64_t> stale;
    std::vector<detail::TimedEntry> pending;  // live entries not yet popped
    std::vector<detail::TimedEntry> popped;
    std::vector<detail::TimedEntry> expected;
    Time now = Time::zero();
    std::uint64_t seq = 0;
    const auto pop_one = [&] {
      const detail::TimedEntry* head = q.peek(&seq_is_stale, &stale);
      if (head == nullptr) {
        ASSERT_TRUE(pending.empty()) << "seed " << seed;
        return;
      }
      const auto first = std::min_element(pending.begin(), pending.end(),
                                          entry_less);
      expected.push_back(*first);
      pending.erase(first);
      popped.push_back(q.pop());
      now = popped.back().when;
    };
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t r = splitmix64(rng);
      switch (r % 10) {
        case 0: {  // a same-instant cluster
          const Time at = now + Time::ns((r >> 8) % 4);
          for (std::uint64_t k = 0; k < 2 + (r >> 16) % 4; ++k) {
            pending.push_back({at, seq++, nullptr, 0, false});
            q.push(pending.back());
          }
          break;
        }
        case 1:
        case 2:  // 1 ns apart
          pending.push_back(
              {now + Time::ns(1 + (r >> 8) % 3), seq++, nullptr, 0, false});
          q.push(pending.back());
          break;
        case 3:  // microseconds away
          pending.push_back(
              {now + Time::us(1 + (r >> 8) % 20), seq++, nullptr, 0, false});
          q.push(pending.back());
          break;
        case 4:
          if (!pending.empty()) {  // cancel one entry
            const std::size_t i = (r >> 8) % pending.size();
            stale.insert(pending[i].seq);
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          }
          break;
        default:
          pop_one();
          break;
      }
      if (HasFatalFailure()) return;
    }
    while (!pending.empty()) {
      pop_one();
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(q.peek(&seq_is_stale, &stale), nullptr) << "seed " << seed;
    EXPECT_TRUE(q.empty()) << "seed " << seed;
    EXPECT_EQ(keys(popped), keys(expected)) << "seed " << seed;
  }
}

// The determinism contract: notifications landing on the same timestamp
// fire in the order they were *issued*, regardless of the event objects'
// construction or the waiters' spawn order.
TEST(TimedWheel, SameInstantFiresInNotifyOrder) {
  Simulator sim;
  Event e0(sim, "e0"), e1(sim, "e1"), e2(sim, "e2");
  std::vector<int> order;
  sim.spawn_thread("w0", [&] { wait(e0); order.push_back(0); });
  sim.spawn_thread("w1", [&] { wait(e1); order.push_back(1); });
  sim.spawn_thread("w2", [&] { wait(e2); order.push_back(2); });
  sim.spawn_thread("notifier", [&] {
    // Deliberately not in construction/spawn order.
    e2.notify(40_ns);
    e0.notify(40_ns);
    e1.notify(40_ns);
  });
  sim.run();
  EXPECT_EQ(sim.now(), 40_ns);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

// Plain timeouts at one instant keep issue order too (same seq counter).
TEST(TimedWheel, TimeoutsAtSameInstantKeepIssueOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.spawn_thread("t" + std::to_string(i), [&, i] {
      wait(25_ns);
      order.push_back(i);
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// cancel() invalidates the pending timed entry; a re-notify at the very
// same timestamp must land exactly once (the stale entry is pruned, not
// double-fired).
TEST(TimedWheel, CancelThenRenotifySameInstantFiresOnce) {
  Simulator sim;
  Event ev(sim, "ev");
  std::vector<Time> wakes;
  sim.spawn_thread("waiter", [&] {
    for (;;) {
      wait(ev);
      wakes.push_back(sim.now());
    }
  });
  sim.spawn_thread("ctl", [&] {
    ev.notify(30_ns);
    ev.cancel();
    ev.notify(30_ns);
  });
  sim.run();
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0], 30_ns);
}

// An earlier notify overrides a pending later one; the superseded entry
// must not fire when its instant comes around.
TEST(TimedWheel, EarlierNotifyOverridesPendingLaterEntry) {
  Simulator sim;
  Event ev(sim, "ev");
  std::vector<Time> wakes;
  sim.spawn_thread("waiter", [&] {
    for (;;) {
      wait(ev);
      wakes.push_back(sim.now());
    }
  });
  sim.spawn_thread("ctl", [&] {
    ev.notify(100_ns);
    ev.notify(10_ns);  // earlier: replaces the 100 ns entry
    wait(200_ns);      // outlive the stale entry
  });
  sim.run();
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0], 10_ns);
}

// Same-instant entries microseconds ahead of now keep their issue order
// too.
TEST(TimedWheel, OverflowMigrationKeepsSameInstantOrder) {
  Simulator sim;
  Event e0(sim, "e0"), e1(sim, "e1");
  std::vector<int> order;
  sim.spawn_thread("w0", [&] { wait(e0); order.push_back(0); });
  sim.spawn_thread("w1", [&] { wait(e1); order.push_back(1); });
  sim.spawn_thread("notifier", [&] {
    e1.notify(Time::us(5));  // thousands of cycles ahead
    e0.notify(Time::us(5));
  });
  sim.run();
  EXPECT_EQ(sim.now(), Time::us(5));
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

// Thousands of short waits followed by long hops: the accumulated time
// must stay exact.
TEST(TimedWheel, RolloverAndLongHopsAccumulateExactly) {
  Simulator sim;
  Time expected = Time::zero();
  sim.spawn_thread("hopper", [&] {
    for (int i = 0; i < 5000; ++i) wait(Time::ns(3));
    for (int i = 0; i < 8; ++i) wait(Time::us(10));
    wait(Time::ns(1));
  });
  expected = Time::ns(3) * 5000 + Time::us(10) * 8 + Time::ns(1);
  sim.run();
  EXPECT_EQ(sim.now(), expected);
}

// A far-future entry (a watchdog, a bursty source's OFF gap) stays queued
// while a stepper ticks in 2 ns steps. Every step fires at its exact
// instant, and the far entry fires once time reaches it.
TEST(TimedWheel, FarEntryDoesNotPullTheWindowAwayFromNearSteps) {
  Simulator sim;
  Event far(sim, "far"), tick(sim, "tick");
  std::vector<Time> fires;
  Time far_fired = Time::zero();
  sim.spawn_thread("far_waiter", [&] {
    wait(far);
    far_fired = sim.now();
  });
  sim.spawn_thread("stepper", [&] {
    far.notify(Time::us(10));
    for (int i = 0; i < 1000; ++i) {
      tick.notify(2_ns);
      wait(tick);
      fires.push_back(sim.now());
    }
  });
  sim.run();
  ASSERT_EQ(fires.size(), 1000u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    ASSERT_EQ(fires[i], Time::ns(2) * static_cast<std::uint64_t>(i + 1))
        << "step " << i;
  }
  EXPECT_EQ(far_fired, Time::us(10));
  EXPECT_EQ(sim.now(), Time::us(10));
}

// --------------------------------------------------------- stack pool ----

namespace {

void run_sim_with_threads(std::size_t n) {
  Simulator sim;
  for (std::size_t i = 0; i < n; ++i) {
    sim.spawn_thread("t" + std::to_string(i), [] { wait(1_ns); });
  }
  sim.run();
}

}  // namespace

// Destroying a simulator returns every thread stack to the calling
// thread's pool; the next simulator on this thread recycles them
// instead of mmap'ing fresh ones.
TEST(StackPool, RecyclesStacksAcrossSimulators) {
  auto& pool = detail::StackPool::local();
  run_sim_with_threads(8);  // warm the pool to at least 8 cached blocks
  const auto maps_before = pool.maps();
  const auto reuses_before = pool.reuses();
  run_sim_with_threads(8);
  EXPECT_EQ(pool.maps(), maps_before) << "second run must not mmap";
  EXPECT_GE(pool.reuses() - reuses_before, 8u);
}

// A burst's stacks stay cached however many quieter simulators follow:
// the pool caches up to its all-time peak demand and unmaps nothing
// until trim().
TEST(StackPool, KeepsBurstCachedThroughQuietEpochsUntilTrim) {
  auto& pool = detail::StackPool::local();
  pool.trim();
  run_sim_with_threads(16);  // burst: 16 concurrent stacks
  EXPECT_EQ(pool.cached_blocks(), 16u);
  const auto unmaps_before = pool.unmaps();
  const auto maps_before = pool.maps();
  for (int epoch = 0; epoch < 3; ++epoch) {
    run_sim_with_threads(1);
    EXPECT_EQ(pool.cached_blocks(), 16u) << "quiet epoch " << epoch;
  }
  EXPECT_EQ(pool.unmaps(), unmaps_before);
  EXPECT_EQ(pool.maps(), maps_before);
  pool.trim();
  EXPECT_EQ(pool.cached_blocks(), 0u);
  EXPECT_EQ(pool.unmaps() - unmaps_before, 16u);
}

// Cells of varying size, as in an exploration sweep: once the largest
// one has run, every later cell recycles cached stacks and maps nothing.
TEST(StackPool, AlternatingDemandMapsNothingAfterWarmup) {
  auto& pool = detail::StackPool::local();
  pool.trim();
  run_sim_with_threads(16);
  const auto maps_after_warmup = pool.maps();
  const auto unmaps_after_warmup = pool.unmaps();
  for (std::size_t n : {4, 4, 16, 4, 4, 16}) {
    run_sim_with_threads(n);
    EXPECT_EQ(pool.maps(), maps_after_warmup) << "cell of " << n << " threads";
  }
  EXPECT_EQ(pool.unmaps(), unmaps_after_warmup);
  pool.trim();
}

// Cross-thread release: a block released on a pool other than the one
// it was acquired from is unmapped immediately (the releasing pool's
// lists and counters stay untouched), and the owning pool reconciles
// its usage count on its next operation — so in_use cannot ratchet
// upward under acquire-here/release-there churn.
TEST(StackPool, CrossThreadReleaseReconcilesOwner) {
  auto& pool = detail::StackPool::local();
  pool.trim();
  const auto b1 = pool.acquire();
  const auto b2 = pool.acquire();
  EXPECT_EQ(pool.in_use_blocks(), 2u);
  std::thread t([&] {
    auto& other = detail::StackPool::local();
    const auto unmaps_before = other.unmaps();
    const auto cached_before = other.cached_blocks();
    other.release(b1);  // foreign block: pages returned on the spot
    EXPECT_EQ(other.unmaps(), unmaps_before + 1);
    EXPECT_EQ(other.cached_blocks(), cached_before);
    EXPECT_EQ(other.in_use_blocks(), 0u);
  });
  t.join();
  // The credit is folded in at the owner's next operation: releasing b2
  // drains usage to zero and caches b2 alone (b1's pages are gone).
  pool.release(b2);
  EXPECT_EQ(pool.in_use_blocks(), 0u);
  EXPECT_EQ(pool.cached_blocks(), 1u);
  pool.trim();
}

// trim() is the explicit release valve: an idle pool drops every cached
// block immediately.
TEST(StackPool, TrimReleasesAllCachedBlocks) {
  auto& pool = detail::StackPool::local();
  run_sim_with_threads(4);
  EXPECT_GE(pool.cached_blocks(), 1u);
  pool.trim();
  EXPECT_EQ(pool.cached_blocks(), 0u);
  EXPECT_EQ(pool.cached_bytes(), 0u);
}
