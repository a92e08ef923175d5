// Unit tests for the SHIP CCATB timing model and the mailbox layout arithmetic
// shared by wrappers and the HW/SW adapter.
#include <gtest/gtest.h>

#include "cam/wrappers.hpp"
#include "ship/timing.hpp"

using namespace stlm;
using namespace stlm::ship;
using namespace stlm::time_literals;

TEST(ShipTiming, CcatbBeatsRoundUp) {
  CcatbModel m(10_ns, 4, 0);
  EXPECT_EQ(m.transfer_latency(1), 10_ns);   // 1 beat
  EXPECT_EQ(m.transfer_latency(4), 10_ns);   // exactly 1 beat
  EXPECT_EQ(m.transfer_latency(5), 20_ns);   // 2 beats
  EXPECT_EQ(m.transfer_latency(8), 20_ns);
}

TEST(ShipTiming, CcatbSetupIsAdditive) {
  CcatbModel m(10_ns, 4, 3);
  EXPECT_EQ(m.transfer_latency(4), 40_ns);   // 3 setup + 1 beat
  EXPECT_EQ(m.transfer_latency(16), 70_ns);  // 3 setup + 4 beats
}

TEST(ShipTiming, CcatbZeroBytesStillOneSetupWindow) {
  CcatbModel m(10_ns, 8, 2);
  // Zero-byte message: setup cycles only.
  EXPECT_EQ(m.transfer_latency(0), 20_ns);
}

TEST(ShipTiming, WiderBusIsNeverSlower) {
  CcatbModel narrow(10_ns, 4, 2), wide(10_ns, 8, 2);
  for (std::size_t n : {0u, 1u, 7u, 8u, 33u, 256u, 4096u}) {
    EXPECT_LE(wide.transfer_latency(n), narrow.transfer_latency(n))
        << "payload " << n;
  }
}

TEST(ShipTiming, LatencyMonotonicInPayload) {
  CcatbModel m(5_ns, 8, 1);
  Time prev = Time::zero();
  for (std::size_t n = 0; n < 200; n += 3) {
    const Time t = m.transfer_latency(n);
    EXPECT_GE(t, prev) << "payload " << n;
    prev = t;
  }
}

TEST(ShipTiming, ZeroWidthBusFallsBackToByteWide) {
  CcatbModel m(10_ns, 0, 0);
  EXPECT_EQ(m.transfer_latency(3), 30_ns);  // 1 byte per beat
}

TEST(MailboxLayout, RegisterOffsetsAndSpan) {
  cam::MailboxLayout l{0x4000, 256};
  EXPECT_EQ(l.ctrl(), 0x4000u);
  EXPECT_EQ(l.rstatus(), 0x4004u);
  EXPECT_EQ(l.rack(), 0x4008u);
  EXPECT_EQ(l.data_in(), 0x4010u);
  EXPECT_EQ(l.data_out(), 0x4010u + 256u);
  EXPECT_EQ(l.span(), 0x10u + 512u);
  const auto r = l.range();
  EXPECT_TRUE(r.contains(l.ctrl(), 4));
  EXPECT_TRUE(r.contains(l.data_out() + 255));
  EXPECT_FALSE(r.contains(l.data_out() + 256));
}

TEST(MailboxLayout, FlagEncodingDoesNotOverlapLength) {
  EXPECT_EQ(cam::MailboxLayout::kLenMask & cam::MailboxLayout::kLastFlag, 0u);
  EXPECT_EQ(cam::MailboxLayout::kLenMask & cam::MailboxLayout::kRequestFlag,
            0u);
  EXPECT_EQ(cam::MailboxLayout::kLastFlag & cam::MailboxLayout::kRequestFlag,
            0u);
}
