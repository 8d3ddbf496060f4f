#include <gtest/gtest.h>

#include "rm/timers.hpp"

namespace sharq::rm {
namespace {

TEST(TimerPolicy, RequestDelayWithinWindow) {
  TimerPolicy p{2.0, 2.0, 1.0, 1.0};
  sim::Rng rng(1);
  const double d = 0.05;
  for (int i = 0; i < 1000; ++i) {
    const double delay = p.request_delay(rng, d, 0);
    EXPECT_GE(delay, 2.0 * d);
    EXPECT_LE(delay, 4.0 * d);
  }
}

TEST(TimerPolicy, BackoffDoublesWindow) {
  TimerPolicy p{2.0, 2.0, 1.0, 1.0};
  sim::Rng rng(2);
  const double d = 0.05;
  for (int stage = 0; stage < 6; ++stage) {
    const double scale = static_cast<double>(1 << stage);
    for (int i = 0; i < 200; ++i) {
      const double delay = p.request_delay(rng, d, stage);
      EXPECT_GE(delay, scale * 2.0 * d);
      EXPECT_LE(delay, scale * 4.0 * d);
    }
  }
}

TEST(TimerPolicy, BackoffStageClamped) {
  TimerPolicy p{2.0, 2.0, 1.0, 1.0};
  sim::Rng rng(3);
  // Very large and negative stages must not overflow or misbehave.
  const double hi = p.request_delay(rng, 0.01, 1000);
  EXPECT_LE(hi, (1 << 16) * 4.0 * 0.01 + 1e-9);
  const double lo = p.request_delay(rng, 0.01, -5);
  EXPECT_GE(lo, 2.0 * 0.01);
  EXPECT_LE(lo, 4.0 * 0.01);
}

TEST(TimerPolicy, ReplyDelayWithinWindow) {
  TimerPolicy p{2.0, 2.0, 1.0, 1.0};
  sim::Rng rng(4);
  const double d = 0.02;
  for (int i = 0; i < 1000; ++i) {
    const double delay = p.reply_delay(rng, d);
    EXPECT_GE(delay, d);
    EXPECT_LE(delay, 2.0 * d);
  }
}

TEST(TimerPolicy, CustomConstants) {
  TimerPolicy p{0.5, 1.0, 3.0, 2.0};
  sim::Rng rng(5);
  const double d = 0.1;
  for (int i = 0; i < 200; ++i) {
    const double rq = p.request_delay(rng, d, 0);
    EXPECT_GE(rq, 0.05);
    EXPECT_LE(rq, 0.15);
    const double rp = p.reply_delay(rng, d);
    EXPECT_GE(rp, 0.3);
    EXPECT_LE(rp, 0.5);
  }
}

TEST(SessionStagger, StartupThenSteady) {
  sim::Rng rng(6);
  for (int sent = 0; sent < 3; ++sent) {
    for (int i = 0; i < 100; ++i) {
      const double d = session_stagger(rng, sent);
      EXPECT_GE(d, 0.05);
      EXPECT_LE(d, 0.25);
    }
  }
  for (int i = 0; i < 100; ++i) {
    const double d = session_stagger(rng, 3);
    EXPECT_GE(d, 0.9);
    EXPECT_LE(d, 1.1);
  }
}

TEST(SessionStagger, PaperConstants) {
  EXPECT_DOUBLE_EQ(kSteadyStaggerLo, 0.9);
  EXPECT_DOUBLE_EQ(kSteadyStaggerHi, 1.1);
  EXPECT_DOUBLE_EQ(kStartupStaggerLo, 0.05);
  EXPECT_DOUBLE_EQ(kStartupStaggerHi, 0.25);
  EXPECT_EQ(kStartupSessionMsgs, 3);
}

}  // namespace
}  // namespace sharq::rm
