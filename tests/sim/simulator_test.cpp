#include "sim/simulator.hpp"

#include <gtest/gtest.h>

namespace mpciot::sim {
namespace {

TEST(Simulator, SeedIsStored) {
  Simulator sim(12345);
  EXPECT_EQ(sim.seed(), 12345u);
}

TEST(Simulator, ChannelRngDeterministicPerSeed) {
  Simulator a(7);
  Simulator b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.channel_rng().next_u64(), b.channel_rng().next_u64());
  }
}

TEST(Simulator, DifferentSeedsGiveDifferentChannels) {
  Simulator a(7);
  Simulator b(8);
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.channel_rng().next_u64() == b.channel_rng().next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Simulator, SecretRngIsDomainSeparatedByNode) {
  Simulator sim(7);
  auto a = sim.secret_rng(1);
  auto b = sim.secret_rng(2);
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Simulator, SecretRngIndependentOfChannelDraws) {
  Simulator a(7);
  Simulator b(7);
  // Consuming channel randomness must not shift the secret stream.
  for (int i = 0; i < 10; ++i) a.channel_rng().next_u64();
  EXPECT_EQ(a.secret_rng(3).next_u64(), b.secret_rng(3).next_u64());
}

}  // namespace
}  // namespace mpciot::sim
