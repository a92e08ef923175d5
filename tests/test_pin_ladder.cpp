// The pin-level rung of the abstraction ladder: bench_abstraction's
// BM_Pin rig (bench/pin_rig.hpp) keeps its simulated time, and its pin
// FSMs sleep between the edges at which they have work — the kernel's
// coroutine resumes per message stay bounded.
#include <gtest/gtest.h>

#include "../bench/pin_rig.hpp"

using namespace stlm;
using namespace stlm::time_literals;

namespace {
// BM_Pin's stream: 400 64-byte writes, 10 cycles of compute before each.
constexpr std::uint64_t kMessages = 400;
constexpr std::size_t kPayload = 64;
constexpr std::uint64_t kCompute = 10;
}  // namespace

TEST(PinLadder, BenchRigKeepsItsSimulatedTime) {
  bench::PinRig rig;
  ASSERT_TRUE(rig.run_stream(kMessages, kPayload, kCompute));
  EXPECT_EQ(rig.sim.now(), 252_us);
  EXPECT_EQ(rig.sacc.transactions(), kMessages);
  EXPECT_EQ(rig.mem.peek(0x0), 0xa5);
}

TEST(PinLadder, BenchRigContextSwitchesPerMessageStayBounded) {
  bench::PinRig rig;
  ASSERT_TRUE(rig.run_stream(kMessages, kPayload, kCompute));
  const double per_msg = static_cast<double>(rig.sim.ctx_switches()) /
                         static_cast<double>(kMessages);
  // Every FSM woken on every edge costs several hundred per message.
  EXPECT_LE(per_msg, 130.0) << rig.sim.ctx_switches() << " resumes";
}

TEST(PinLadder, LoneClockCostsNoContextSwitches) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);
  sim.run_for(10_us);
  EXPECT_EQ(clk.cycle_count(), 1001u);  // edges at 0, 10 ns, ..., 10 us
  EXPECT_EQ(sim.ctx_switches(), 0u);
}
