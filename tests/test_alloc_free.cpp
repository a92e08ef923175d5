// Allocation regression guard for the kernel's steady state.
//
// This binary replaces the global operator new/delete with counting
// versions, so any heap traffic on the simulation hot path shows up as a
// non-zero count between two points of a run. Two layers are pinned:
//
//  * the pure kernel — thread and method processes exchanging
//    wait(Event&), notify_delta, notify(Time), wait(Time) and a Signal
//    write (update phase) — must allocate nothing at all once warm;
//  * a mapped CAM cell (atomic PLB, split PLB, crossbar) running a
//    uniform workload, built after an identical cell on the same thread
//    as in a sweep, must allocate nothing either: its TxnLogger starts
//    from the row buffer the earlier cell's logger left on the thread;
//  * a whole uniform cell on a system reset and rebound to the cell's
//    graph (MappedSystem::reset, as a sweep runs the seeds of one
//    workload) stays under 20 allocations, graph building included.
//
// A fresh Simulator on a thread that already ran one must also reuse the
// timed queue's bucket storage instead of allocating it again.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/core.hpp"
#include "explore/explore.hpp"
#include "kernel/kernel.hpp"
#include "workload/spec.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t sz = ((n != 0 ? n : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, sz)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace stlm;
using namespace stlm::time_literals;

TEST(AllocFree, CountingAllocatorSeesHeapTraffic) {
  // Guards the guard: if the replacement operators were not linked in,
  // every zero below would be vacuous.
  const std::uint64_t before = allocs();
  auto p = std::make_unique<std::vector<int>>(100);
  EXPECT_GE(allocs() - before, 2u);
}

// One round: `ping` delta-notifies `a`, blocks on `b`; `pong` wakes on
// `a` and notifies `b` 5 ns later; `ping` then writes the signal (update
// phase -> delta notification of its changed event, which runs the
// method) and waits 5 ns. Every round is 10 ns of simulated time.
TEST(AllocFree, KernelSteadyStateAllocatesNothing) {
  Simulator sim;
  Event a(sim, "a");
  Event b(sim, "b");
  Signal<std::uint64_t> sig(sim, "sig");
  std::uint64_t rounds = 0;
  std::uint64_t pongs = 0;
  std::uint64_t method_runs = 0;
  sim.spawn_thread("ping", [&] {
    for (;;) {
      a.notify_delta();
      wait(b);
      sig.write(++rounds);
      wait(5_ns);
    }
  });
  sim.spawn_thread("pong", [&] {
    for (;;) {
      wait(a);
      ++pongs;
      b.notify(5_ns);
    }
  });
  sim.spawn_method("watch", [&] { ++method_runs; },
                   {&sig.value_changed_event()}, false);

  // Warm-up. The timed queue's window (~2.1 us) wraps about a hundred
  // times, by which point this schedule has landed on every bucket slot
  // and each bucket has grown the capacity it needs.
  sim.run_for(Time::us(250));
  ASSERT_GT(rounds, 20'000u);

  const std::uint64_t rounds0 = rounds;
  const std::uint64_t runs0 = method_runs;
  const std::uint64_t before = allocs();
  sim.run_for(Time::ns(10) * 10'000);
  const std::uint64_t during = allocs() - before;

  EXPECT_EQ(rounds - rounds0, 10'000u);
  EXPECT_EQ(method_runs - runs0, 10'000u);
  EXPECT_EQ(pongs, rounds + 1);  // pong is one notify ahead of ping
  EXPECT_EQ(during, 0u) << "heap allocations over 10,000 kernel rounds";
}

TEST(AllocFree, NewSimulatorReusesTimedQueueStorage) {
  // Run the same timed schedule on two simulators in a row, counting
  // from the end of the initialization delta (which builds each
  // simulator's own run queue). Whichever simulator first runs this
  // schedule on the thread grows a bucket per new timestamp slot; the
  // next gets that array, capacities and all, back from the thread's
  // spare list and allocates nothing.
  auto run_one = [] {
    Simulator sim;
    sim.spawn_thread("t", [] {
      for (int i = 0; i < 100; ++i) wait(7_ns);
    });
    // Two threads so wait(Time) takes the queue, not the inline advance.
    sim.spawn_thread("u", [] {
      for (int i = 0; i < 100; ++i) wait(3_ns);
    });
    sim.run_for(Time::zero());
    const std::uint64_t before = allocs();
    sim.run();
    EXPECT_EQ(sim.now(), 700_ns);
    return allocs() - before;
  };
  run_one();  // may be the first simulator on this thread
  EXPECT_EQ(run_one(), 0u) << "heap allocations running a second simulator";
}

namespace {

core::Platform plb(bool split) {
  core::Platform p;
  p.bus = core::BusKind::Plb;
  p.arb = core::ArbKind::RoundRobin;
  p.bus_cycle = Time::ns(10);
  if (split) {
    p.split_txns = true;
    p.max_outstanding = 4;
  }
  p.name = core::grid_point_name(p);
  return p;
}

core::Platform crossbar() {
  core::Platform p;
  p.bus = core::BusKind::Crossbar;
  p.arb = core::ArbKind::Priority;
  p.bus_cycle = Time::ns(10);
  p.name = core::grid_point_name(p);
  return p;
}

struct CellAllocs {
  std::uint64_t allocs = 0;
  std::uint64_t records = 0;
};

CellAllocs measure_cell(const core::Platform& platform) {
  workload::WorkloadSpec spec;
  spec.name = "uniform";
  spec.shape = workload::TrafficShape::Uniform;
  spec.seed = 0xa110c;
  spec.streams = 4;
  spec.messages = 1'000'000;  // never drains inside the windows below
  spec.payload = {32, 128};
  spec.gap = {20, 200};
  const workload::WorkloadCase wc = workload::make_case(spec);

  std::vector<std::unique_ptr<core::ProcessingElement>> owned;
  core::SystemGraph graph;
  wc.factory(graph, owned);
  graph.discover_roles();
  Simulator sim;
  auto ms = core::Mapper::map(sim, graph, platform, core::AbstractionLevel::Cam);

  // Warm-up: run queues, transaction pools, and message buffers grown to
  // the largest payload the seeded stream draws.
  ms->run_for(Time::us(500));
  const std::size_t rec0 = ms->txn_log().size();
  const std::uint64_t before = allocs();
  ms->run_for(Time::us(200));
  CellAllocs out;
  out.allocs = allocs() - before;
  out.records = ms->txn_log().size() - rec0;
  return out;
}

}  // namespace

TEST(AllocFree, SecondMappedCellOnAThreadAllocatesNothing) {
  for (const core::Platform& p : {plb(false), plb(true), crossbar()}) {
    SCOPED_TRACE(p.name);
    // As in a sweep, an earlier cell on this thread has already grown the
    // timed queue's buckets and the log's rows; the measured cell
    // inherits both.
    measure_cell(p);
    const CellAllocs c = measure_cell(p);
    ASSERT_GT(c.records, 1000u);
    EXPECT_EQ(c.allocs, 0u)
        << c.allocs << " allocations for " << c.records << " logged records";
  }
}

namespace {

workload::WorkloadCase canonical_uniform(std::uint64_t seed) {
  return expl::workload_candidates(seed).front();
}

// Allocations of one whole cell on a reset system: building the seed's
// graph, resetting and rebinding the system to it, running it to the
// end. The system was mapped at another seed and has already run two
// cells, so pools, queues and buffers are warm.
std::uint64_t measure_reset_cell(const core::Platform& platform) {
  struct Built {
    std::vector<std::unique_ptr<core::ProcessingElement>> owned;
    core::SystemGraph graph;
  };
  auto build = [](std::uint64_t seed) {
    auto b = std::make_unique<Built>();
    canonical_uniform(seed).factory(b->graph, b->owned);
    b->graph.discover_roles();
    return b;
  };
  auto first = build(1);
  Simulator sim;
  auto ms =
      core::Mapper::map(sim, first->graph, platform, core::AbstractionLevel::Cam);
  EXPECT_TRUE(ms->run_until_done(Time::ms(200)));
  auto second = build(2);
  ms->reset(second->graph);
  EXPECT_TRUE(ms->run_until_done(Time::ms(200)));

  // The case (its factory closure) is built outside the window, as a
  // sweep builds its workload axis once.
  const workload::WorkloadCase third_case = canonical_uniform(3);
  const std::uint64_t before = allocs();
  Built third;
  third_case.factory(third.graph, third.owned);
  third.graph.discover_roles();
  ms->reset(third.graph);
  const bool done = ms->run_until_done(Time::ms(200));
  const std::uint64_t during = allocs() - before;
  EXPECT_TRUE(done);
  EXPECT_GT(ms->txn_log().size(), 0u);
  return during;
}

}  // namespace

TEST(AllocFree, ResetCellStaysUnderTwentyAllocations) {
  for (const core::Platform& p : {plb(false), plb(true), crossbar()}) {
    SCOPED_TRACE(p.name);
    const std::uint64_t n = measure_reset_cell(p);
    std::printf("reset cell on %s: %llu allocations\n", p.name.c_str(),
                static_cast<unsigned long long>(n));
    EXPECT_LT(n, 20u);
  }
}
