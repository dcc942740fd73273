// The extracted single-node roles (core/roles.hpp) must compose into
// exactly the round the simulator runs: dealing, share transport,
// point-sum accumulation and reconstruction through the roles yields
// the same aggregate the full-topology engine computes for the same
// secrets. This is the contract the distributed runtime builds on.
#include "core/roles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/prng.hpp"
#include "net/testbeds.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core::roles {
namespace {

using field::Fp61;

constexpr std::uint64_t kSeed = 0x52304C45ull;  // "R0LE"

RoundSpec make_spec(std::size_t n, std::size_t degree) {
  RoundSpec spec;
  for (std::size_t i = 0; i < n; ++i) {
    spec.sources.push_back(static_cast<NodeId>(i));
    spec.holders.push_back(static_cast<NodeId>(i));
  }
  spec.degree = degree;
  return spec;
}

/// Holder roles for every spec holder, reset to `round`.
std::vector<HolderRole> make_holders(const RoundSpec& spec,
                                     std::uint16_t round) {
  std::vector<HolderRole> holders;
  for (std::size_t h = 0; h < spec.holders.size(); ++h) {
    holders.emplace_back(spec, h);
    holders.back().reset(round);
  }
  return holders;
}

/// Run round `round` through the roles over a loss-free "wire": every
/// source deals, every holder collects every share, `aggregator`
/// collects the sums `holder_filter` lets through.
std::optional<AggregateOutcome> run_roles_round(
    const RoundSpec& spec, std::uint16_t round,
    const std::vector<Fp61>& secrets, const crypto::KeyStore& keys,
    AggregatorRole& aggregator,
    const std::vector<char>* holder_filter = nullptr) {
  std::vector<HolderRole> holders = make_holders(spec, round);
  aggregator.reset(round);

  Bytes wire;
  for (std::size_t s = 0; s < spec.sources.size(); ++s) {
    crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 1, s), round);
    const SourceRole src(spec, spec.sources[s], round, secrets[s], drbg);
    for (std::size_t h = 0; h < spec.holders.size(); ++h) {
      if (src.encode_share_for(h, keys, wire)) {
        EXPECT_TRUE(holders[h].accept_wire(wire, keys));
      } else {
        EXPECT_TRUE(
            holders[h].accept_local(spec.sources[s], src.self_share()));
      }
    }
  }
  for (std::size_t h = 0; h < holders.size(); ++h) {
    if (holder_filter && !(*holder_filter)[h]) continue;
    EXPECT_TRUE(holders[h].complete());
    EXPECT_TRUE(aggregator.accept(holders[h].sum_packet()));
  }
  field::LagrangeScratch scratch;
  return aggregator.try_reconstruct(scratch);
}

TEST(Roles, FullRoundReconstructsTheSumOfSecrets) {
  const RoundSpec spec = make_spec(9, 2);
  const crypto::KeyStore keys(11, 9);
  std::vector<Fp61> secrets;
  Fp61 expected{0};
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 2, 0));
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    secrets.push_back(rng.next_fp61());
    expected += secrets.back();
  }
  AggregatorRole agg(spec);
  const auto out = run_roles_round(spec, 7, secrets, keys, agg);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->aggregate, expected);
  EXPECT_EQ(out->contributor_mask, (1ull << 9) - 1);
  EXPECT_EQ(out->sums_used, 3u);
  EXPECT_EQ(out->consistent_sums, 9u);
  EXPECT_TRUE(agg.full_mask_threshold());
}

TEST(Roles, AnyThresholdSubsetOfHoldersReconstructsTheSameValue) {
  const RoundSpec spec = make_spec(6, 2);
  const crypto::KeyStore keys(5, 6);
  std::vector<Fp61> secrets;
  Fp61 expected{0};
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 3, 0));
  for (std::size_t i = 0; i < 6; ++i) {
    secrets.push_back(rng.next_fp61());
    expected += secrets.back();
  }
  // Drop different holder subsets down to the threshold: same value.
  for (int drop = 0; drop < 3; ++drop) {
    std::vector<char> filter(6, 1);
    filter[drop] = 0;
    filter[5 - drop] = 0;
    filter[(drop + 2) % 6] = 0;  // leaves 3 = degree+1 holders
    AggregatorRole agg(spec);
    const auto out = run_roles_round(spec, 1, secrets, keys, agg, &filter);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->aggregate, expected);
  }
}

TEST(Roles, MatchesTheSimulatorForTheSameSecrets) {
  // The cross-check the distributed harness relies on: a simulator
  // round over a loss-free deployment and a roles round over a perfect
  // wire agree on expected sum AND reconstructed aggregate.
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;  // loss-free short links
  const net::Topology topo = net::testbeds::grid(3, 3, 8.0, 0x9D, radio);
  const crypto::KeyStore keys(21, topo.size());
  std::vector<NodeId> all;
  for (NodeId i = 0; i < topo.size(); ++i) all.push_back(i);
  const auto cfg = make_s3_config(topo, all, /*degree=*/2, /*ntx_full=*/8);
  const SssProtocol protocol(topo, keys, cfg);

  std::vector<Fp61> secrets;
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 4, 0));
  for (std::size_t i = 0; i < all.size(); ++i) {
    secrets.push_back(rng.next_fp61());
  }

  sim::Simulator sim(3);
  Session session(protocol);
  const AggregationResult& sim_result =
      *session.run_round(secrets, sim).flat;
  ASSERT_EQ(sim_result.success_ratio(), 1.0);

  RoundSpec spec;
  spec.sources = cfg.sources;
  spec.holders = cfg.share_holders;
  spec.degree = cfg.degree;
  AggregatorRole agg(spec);
  const auto out = run_roles_round(
      spec, /*round=*/0, secrets, keys, agg);  // the session's first round
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->aggregate, sim_result.expected_sum);
  EXPECT_EQ(out->aggregate, sim_result.nodes[0].aggregate);
}

TEST(Roles, HolderRejectsForeignWrongRoundAndDuplicateShares) {
  const RoundSpec spec = make_spec(4, 1);
  const crypto::KeyStore keys(7, 4);
  crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 5, 0), 0);
  const SourceRole src(spec, 0, 3, Fp61{123}, drbg);

  HolderRole h1(spec, 1);
  HolderRole h2(spec, 2);
  h1.reset(3);
  h2.reset(3);
  Bytes wire;
  ASSERT_TRUE(src.encode_share_for(1, keys, wire));
  EXPECT_FALSE(h2.accept_wire(wire, keys));  // addressed to holder 1
  EXPECT_TRUE(h1.accept_wire(wire, keys));
  EXPECT_FALSE(h1.accept_wire(wire, keys));  // duplicate source

  crypto::CtrDrbg drbg2(crypto::derive_seed(kSeed, 5, 1), 0);
  const SourceRole src_other(spec, 0, 4, Fp61{123}, drbg2);
  h1.reset(3);  // a fresh round 3: the earlier share is forgotten
  EXPECT_EQ(h1.contributions(), 0u);
  ASSERT_TRUE(src_other.encode_share_for(1, keys, wire));
  EXPECT_FALSE(h1.accept_wire(wire, keys));  // round mismatch
  EXPECT_EQ(h1.contributions(), 0u);
}

TEST(Roles, AggregatorRejectsBadSumsAndKeepsFirstPerHolder) {
  const RoundSpec spec = make_spec(4, 1);
  AggregatorRole agg(spec);
  agg.reset(9);
  SumPacket pkt;
  pkt.holder = 2;
  pkt.contribution_count = 2;
  pkt.round = 9;
  pkt.sum = Fp61{5};
  pkt.contributors = 0b0011;
  EXPECT_TRUE(agg.accept(pkt));
  EXPECT_FALSE(agg.accept(pkt));  // duplicate holder
  pkt.holder = 99;
  EXPECT_FALSE(agg.accept(pkt));  // unknown holder
  pkt.holder = 3;
  pkt.round = 8;
  EXPECT_FALSE(agg.accept(pkt));  // wrong round
  pkt.round = 9;
  pkt.contribution_count = 5;
  pkt.contributors = 0b10011;  // bit beyond the 4-source list
  EXPECT_FALSE(agg.accept(pkt));
  EXPECT_EQ(agg.sums_received(), 1u);
  field::LagrangeScratch scratch;
  EXPECT_FALSE(agg.try_reconstruct(scratch).has_value());  // below threshold
  agg.reset(9);
  EXPECT_EQ(agg.sums_received(), 0u);
}

TEST(Roles, ReducedButConsistentMaskWinsOverFragmentedFullMasks) {
  // Threshold recovery: three holders agree on a reduced mask (a source
  // crashed), one straggler carries a different partial mask. The
  // consistent trio reconstructs; the aggregate covers its mask.
  const RoundSpec spec = make_spec(5, 2);
  const crypto::KeyStore keys(13, 5);
  std::vector<Fp61> secrets;
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 6, 0));
  Fp61 reduced_sum{0};
  for (std::size_t i = 0; i < 5; ++i) {
    secrets.push_back(rng.next_fp61());
    if (i != 4) reduced_sum += secrets[i];
  }

  std::vector<HolderRole> holders = make_holders(spec, 0);
  Bytes wire;
  for (std::size_t s = 0; s < 5; ++s) {
    crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 7, s), 0);
    const SourceRole src(spec, spec.sources[s], 0, secrets[s], drbg);
    for (std::size_t h = 0; h < 5; ++h) {
      if (s == 4 && h != 1) continue;  // source 4 "crashed" mid-deal:
                                       // only holder 1 got its share
      if (src.encode_share_for(h, keys, wire)) {
        holders[h].accept_wire(wire, keys);
      } else {
        holders[h].accept_local(spec.sources[s], src.self_share());
      }
    }
  }
  AggregatorRole agg(spec);
  agg.reset(0);
  for (auto& h : holders) agg.accept(h.sum_packet());
  field::LagrangeScratch scratch;
  const auto out = agg.try_reconstruct(scratch);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->contributor_mask, 0b01111ull);
  EXPECT_EQ(out->aggregate, reduced_sum);
  EXPECT_FALSE(agg.full_mask_threshold());
}

TEST(Roles, EqualContributorCountsBreakTiesByMoreSumsThenSmallerMask) {
  // Two reduced masks of two sources each compete. Each mask's sums are
  // points of its own degree-1 polynomial P_m(x) = c_m + d_m * x, so the
  // reconstructed value names the winner. Every case is fed in both
  // arrival orders: the pick must not depend on it.
  RoundSpec spec = make_spec(4, 1);
  spec.holders.push_back(4);
  const Fp61 c_low{1000};   // P_0b0011(0)
  const Fp61 c_high{2000};  // P_0b0101(0)
  const auto sum_for = [&](NodeId holder) {
    const bool low = holder < 2;
    SumPacket pkt;
    pkt.holder = holder;
    pkt.contribution_count = 2;
    pkt.round = 5;
    pkt.sum = (low ? c_low : c_high) +
              (low ? Fp61{7} : Fp61{9}) * public_point(holder);
    pkt.contributors = low ? 0b0011 : 0b0101;
    return pkt;
  };
  struct Case {
    std::vector<NodeId> holders;
    std::uint64_t mask;
    std::uint32_t consistent;
    Fp61 aggregate;
  };
  const std::vector<Case> cases = {
      // More sums wins: 0b0101 has three sums, the smaller 0b0011 two.
      {{0, 1, 2, 3, 4}, 0b0101, 3, c_high},
      // Equal sums: the numerically smaller mask wins.
      {{0, 1, 2, 3}, 0b0011, 2, c_low}};
  field::LagrangeScratch scratch;
  AggregatorRole agg(spec);
  for (const Case& c : cases) {
    for (const bool reversed : {false, true}) {
      std::vector<NodeId> order = c.holders;
      if (reversed) std::reverse(order.begin(), order.end());
      agg.reset(5);
      for (const NodeId h : order) ASSERT_TRUE(agg.accept(sum_for(h)));
      const auto out = agg.try_reconstruct(scratch);
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->contributor_mask, c.mask);
      EXPECT_EQ(out->consistent_sums, c.consistent);
      EXPECT_EQ(out->sums_used, 2u);
      EXPECT_EQ(out->aggregate, c.aggregate);
    }
  }
}

TEST(Roles, ChooseMaskRuleTable) {
  // The one mask rule, on (present, mask) columns. Masks are listed so
  // that a count-first rule, or one broken by first-seen order, would
  // pick differently.
  struct Case {
    const char* name;
    std::vector<char> present;
    std::vector<std::uint64_t> masks;
    std::size_t threshold;
    std::optional<MaskChoice> want;
  };
  const std::vector<Case> cases = {
      {"no mask reaches the threshold",
       {1, 1, 1, 1, 0},
       {0b011, 0b011, 0b101, 0b111, 0b011},
       3,
       std::nullopt},
      {"popcount beats count",
       {1, 1, 1, 1, 1, 1, 1},
       {0b0111, 0b0111, 0b1111, 0b0111, 0b1111, 0b0111, 0b1111},
       3,
       MaskChoice{0b1111, 3}},
      {"equal count and popcount: smaller mask",
       {1, 1, 1, 1, 1, 1},
       {0b110, 0b011, 0b110, 0b011, 0b110, 0b011},
       3,
       MaskChoice{0b011, 3}},
      {"every holder has the same mask",
       {1, 1, 1, 1, 1},
       {0b111, 0b111, 0b111, 0b111, 0b111},
       3,
       MaskChoice{0b111, 5}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::optional<MaskChoice> got =
        choose_mask(c.present, c.masks, c.threshold);
    ASSERT_EQ(got.has_value(), c.want.has_value());
    if (!got) continue;
    EXPECT_EQ(got->mask, c.want->mask);
    EXPECT_EQ(got->count, c.want->count);
  }
}

TEST(Roles, InterpolatesTheSmallestHolderIdsOfTheWinningMask) {
  // Holder 5 sits first in schedule order but carries a polluted sum
  // (off the polynomial). With degree 1 the two smallest ids, 1 and 3,
  // are interpolated, so the pollution stays out of the aggregate.
  RoundSpec spec;
  spec.sources = {0, 1};
  spec.holders = {5, 3, 1};
  spec.degree = 1;
  const Fp61 c{4242};
  const Fp61 d{17};
  AggregatorRole agg(spec);
  agg.reset(2);
  for (const NodeId holder : spec.holders) {
    SumPacket pkt;
    pkt.holder = holder;
    pkt.contribution_count = 2;
    pkt.round = 2;
    pkt.sum = c + d * public_point(holder) + (holder == 5 ? Fp61{1} : Fp61{0});
    pkt.contributors = 0b11;
    ASSERT_TRUE(agg.accept(pkt));
  }
  field::LagrangeScratch scratch;
  const auto out = agg.try_reconstruct(scratch);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->aggregate, c);
  EXPECT_EQ(out->consistent_sums, 3u);
}

TEST(Roles, EmptyMaskSumsReconstructZeroCoveringNobody) {
  // Holders that collected no share still broadcast the zero sum. When
  // no mask with contributors reaches the threshold, those agree on the
  // empty set; any contributing mask that does reach it wins instead.
  const RoundSpec spec = make_spec(4, 1);
  AggregatorRole agg(spec);
  agg.reset(1);
  for (const NodeId h : {0, 1, 2}) {
    SumPacket pkt;
    pkt.holder = h;
    pkt.round = 1;
    pkt.sum = h == 2 ? Fp61{99} : Fp61{0};
    pkt.contributors = h == 2 ? 0b0100 : 0;
    pkt.contribution_count = h == 2 ? 1 : 0;
    ASSERT_TRUE(agg.accept(pkt));
  }
  field::LagrangeScratch scratch;
  auto out = agg.try_reconstruct(scratch);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->contributor_mask, 0u);
  EXPECT_EQ(out->aggregate, Fp61{0});

  SumPacket pkt;
  pkt.holder = 3;
  pkt.round = 1;
  pkt.sum = Fp61{99};
  pkt.contributors = 0b0100;
  pkt.contribution_count = 1;
  ASSERT_TRUE(agg.accept(pkt));
  out = agg.try_reconstruct(scratch);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->contributor_mask, 0b0100u);
  EXPECT_EQ(out->aggregate, Fp61{99});
}

TEST(Roles, SpecContractsAreChecked) {
  RoundSpec spec = make_spec(3, 1);
  spec.degree = 0;
  EXPECT_THROW(validate(spec), ContractViolation);
  spec = make_spec(3, 3);  // degree+1 > holders
  EXPECT_THROW(validate(spec), ContractViolation);
  spec = make_spec(3, 1);
  spec.sources.push_back(0);  // duplicate
  EXPECT_THROW(validate(spec), ContractViolation);
  crypto::CtrDrbg drbg(1, 0);
  spec = make_spec(3, 1);
  EXPECT_THROW(SourceRole(spec, 99, 0, Fp61{1}, drbg), ContractViolation);
  EXPECT_THROW(HolderRole(spec, 99), ContractViolation);
}

}  // namespace
}  // namespace mpciot::core::roles
