// sim::Rng is the only randomness source in the simulator, and its draws
// are specified in sim/random.hpp rather than by a standard library. These
// tests pin that specification: known answers for the raw stream and for
// fork(), the exact arithmetic of each draw shape, and its statistics.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/random.hpp"

namespace sharq::sim {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(Rng, DeterministicWithSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRateRoughlyCorrect) {
  Rng r(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, ForkDiverges) {
  Rng a(42);
  Rng b = a.fork();
  // Parent and child streams should not be identical.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 32);
}

// Known answers, computed by an independent implementation of splitmix64
// seeding and xoshiro256** (checked against the reference generators'
// published outputs: splitmix64 from 0 gives 0xe220a8397b1dcdaf, and
// xoshiro256** from state {1, 2, 3, 4} gives 11520, 0, 1509978240).
TEST(Rng, KnownAnswerSeedAndFork) {
  const std::uint64_t seed0[] = {0x99ec5f36cb75f2b4ull, 0xbf6e1f784956452aull,
                                 0x1a5f849d4933e6e0ull, 0x6aa594f1262d2d2cull};
  const std::uint64_t seed42[] = {0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull,
                                  0xae17533239e499a1ull, 0xecb8ad4703b360a1ull};
  Rng a(0), b(42);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.next_u64(), seed0[i]) << "seed 0, draw " << i;
    EXPECT_EQ(b.next_u64(), seed42[i]) << "seed 42, draw " << i;
  }

  // fork() seeds the child from the parent's next draw, and that draw is
  // the only one the parent spends.
  const std::uint64_t child42[] = {0x0d4b5f807a652875ull, 0x7a9b2206d935a85bull,
                                   0xdfe3d22aa46fcc2dull, 0xc85237791de0bf5full};
  Rng parent(42);
  Rng child = parent.fork();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(child.next_u64(), child42[i]) << "fork of seed 42, draw " << i;
  }
  EXPECT_EQ(parent.next_u64(), seed42[1]);
}

TEST(Rng, UnitIsTop53BitsOfOneDraw) {
  Rng r(7), twin(7);
  EXPECT_DOUBLE_EQ(r.unit(), 0.7005764821796896);
  twin.next_u64();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t raw = twin.next_u64();
    EXPECT_EQ(r.unit(), static_cast<double>(raw >> 11) * 0x1.0p-53);
  }
}

TEST(Rng, UniformIsAffineInUnitAndHalfOpen) {
  Rng r(11), twin(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = twin.unit();
    EXPECT_EQ(r.uniform(-3.0, 5.0), -3.0 + u * 8.0);
  }
  // Doubles near 1e16 are 2 apart, so lo + unit·2 rounds onto hi for about
  // half the draws: the draw must still stay below hi.
  const double lo = 1e16, hi = lo + 2.0;
  bool saw_lo = false;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(lo, hi);
    EXPECT_GE(v, lo);
    ASSERT_LT(v, hi);
    saw_lo |= v == lo;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_EQ(r.uniform(4.0, 4.0), 4.0);  // empty range: lo, one draw spent
}

TEST(Rng, UniformIntIsInclusive) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(r.uniform_int(9, 9), 9);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t top = r.uniform_int(kMax - 1, kMax);
    EXPECT_TRUE(top == kMax - 1 || top == kMax);
    const std::int64_t bottom = r.uniform_int(kMin, kMin + 1);
    EXPECT_TRUE(bottom == kMin || bottom == kMin + 1);
  }
}

TEST(Rng, UniformIntCoversFullInt64Range) {
  // The whole range is one raw draw, reinterpreted as signed.
  Rng r(5), twin(5);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 256; ++i) {
    const std::int64_t v = r.uniform_int(kMin, kMax);
    EXPECT_EQ(v, static_cast<std::int64_t>(twin.next_u64()));
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  // One short of the full range: span 2^64 − 1, so only a raw 0 is
  // rejected and the result is lo + raw mod span.
  const std::int64_t v = r.uniform_int(kMin + 1, kMax);
  const std::uint64_t raw = twin.next_u64();
  EXPECT_GT(v, kMin);
  EXPECT_EQ(static_cast<std::uint64_t>(v),
            static_cast<std::uint64_t>(kMin + 1) + raw % UINT64_MAX);
}

TEST(Rng, UniformIntPassesChiSquareOverSmallRanges) {
  // Critical values of the chi-square distribution at p = 0.001 for
  // span − 1 degrees of freedom; the seeds are fixed, so this never flakes.
  struct Case {
    std::int64_t lo, hi;
    double critical;
  };
  const Case cases[] = {{0, 1, 10.83}, {1, 6, 20.52}, {-3, 3, 22.46},
                        {0, 9, 27.88}, {100, 116, 39.25}};
  Rng r(2024);
  for (const Case& c : cases) {
    const std::int64_t span = c.hi - c.lo + 1;
    const int n = 20000 * static_cast<int>(span);
    std::vector<int> counts(static_cast<std::size_t>(span), 0);
    for (int i = 0; i < n; ++i) {
      const std::int64_t v = r.uniform_int(c.lo, c.hi);
      ASSERT_GE(v, c.lo);
      ASSERT_LE(v, c.hi);
      ++counts[static_cast<std::size_t>(v - c.lo)];
    }
    const double expected = static_cast<double>(n) / static_cast<double>(span);
    double chi2 = 0.0;
    for (int k : counts) chi2 += (k - expected) * (k - expected) / expected;
    EXPECT_LT(chi2, c.critical) << "[" << c.lo << ", " << c.hi << "]";
  }
}

TEST(Rng, BernoulliDrawsOnlyInsideTheOpenInterval) {
  // p ≤ 0 and p ≥ 1 decide without a draw: a lossless link or a zero
  // conditioner rate leaves its stream untouched.
  Rng r(9), twin(9);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_FALSE(r.bernoulli(-0.5));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_TRUE(r.bernoulli(1.5));
  EXPECT_EQ(r.next_u64(), twin.next_u64());
  // Inside (0, 1) it is exactly unit < p: one draw each.
  for (int i = 0; i < 1000; ++i) {
    const double p = 0.001 * i + 0.0005;
    EXPECT_EQ(r.bernoulli(p), twin.unit() < p);
  }
  EXPECT_EQ(r.next_u64(), twin.next_u64());
}

}  // namespace
}  // namespace sharq::sim
