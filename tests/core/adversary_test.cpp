#include "core/adversary.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "crypto/prng.hpp"
#include "ct/glossy.hpp"
#include "net/testbeds.hpp"
#include "sim/dynamics.hpp"

namespace mpciot::core {
namespace {

using field::Fp61;

TEST(CanReconstruct, ThresholdPredicate) {
  EXPECT_FALSE(can_reconstruct(3, 0));
  EXPECT_FALSE(can_reconstruct(3, 3));
  EXPECT_TRUE(can_reconstruct(3, 4));
  EXPECT_TRUE(can_reconstruct(3, 10));
  static_assert(can_reconstruct(1, 2));
  static_assert(!can_reconstruct(1, 1));
}

TEST(ConsistentPolynomial, UnderdeterminedViewMatchesAnySecret) {
  // A coalition of `degree` holders: for every candidate secret there is
  // a polynomial agreeing with the whole view — the view leaks nothing.
  constexpr std::size_t kDegree = 4;
  crypto::CtrDrbg drbg(1, 0);
  const Fp61 true_secret{1234567};
  const ShamirDealer dealer(true_secret, kDegree, drbg);

  CollusionView view;
  view.dealer = 0;
  for (NodeId h : {2u, 5u, 9u, 11u}) {  // exactly degree = 4 shares
    view.observed_shares.push_back(dealer.share_for(h));
  }

  for (std::uint64_t candidate : {0ull, 1ull, 999ull, 1234567ull}) {
    const auto poly =
        consistent_polynomial_for(view, kDegree, Fp61{candidate});
    ASSERT_TRUE(poly.has_value()) << "candidate " << candidate;
    EXPECT_EQ(poly->constant_term().value(), candidate);
    EXPECT_LE(poly->degree(), static_cast<int>(kDegree));
    // It agrees with every observed share.
    for (const Share& s : view.observed_shares) {
      EXPECT_EQ(poly->evaluate(public_point(s.holder)), s.value);
    }
  }
}

TEST(ConsistentPolynomial, OverdeterminedViewPinsTheSecret) {
  constexpr std::size_t kDegree = 3;
  crypto::CtrDrbg drbg(2, 0);
  const Fp61 secret{42};
  const ShamirDealer dealer(secret, kDegree, drbg);

  CollusionView view;
  for (NodeId h = 0; h < kDegree + 1; ++h) {  // degree+1 shares
    view.observed_shares.push_back(dealer.share_for(h));
  }
  // The true secret is consistent...
  EXPECT_TRUE(consistent_polynomial_for(view, kDegree, secret).has_value());
  // ...and any other candidate is not.
  EXPECT_FALSE(
      consistent_polynomial_for(view, kDegree, Fp61{43}).has_value());
}

TEST(ConsistentPolynomial, EmptyViewTriviallyConsistent) {
  CollusionView view;
  const auto poly = consistent_polynomial_for(view, 2, Fp61{77});
  ASSERT_TRUE(poly.has_value());
  EXPECT_EQ(poly->constant_term().value(), 77u);
}

TEST(ConsistentPolynomial, SingleShareOfHighDegreeLeaksNothing) {
  crypto::CtrDrbg drbg(3, 0);
  const ShamirDealer dealer(Fp61{500}, 8, drbg);
  CollusionView view;
  view.observed_shares.push_back(dealer.share_for(3));
  for (std::uint64_t candidate = 0; candidate < 20; ++candidate) {
    EXPECT_TRUE(
        consistent_polynomial_for(view, 8, Fp61{candidate}).has_value());
  }
}

TEST(AttemptReconstruction, MatchesThresholdPredicate) {
  constexpr std::size_t kDegree = 3;
  crypto::CtrDrbg drbg(4, 0);
  const Fp61 secret{987654321};
  const ShamirDealer dealer(secret, kDegree, drbg);
  CollusionView view;
  for (NodeId h = 0; h < 6; ++h) {
    view.observed_shares.push_back(dealer.share_for(h));
    const ReconstructionAttempt attempt =
        attempt_reconstruction(view, kDegree);
    EXPECT_EQ(attempt.meets_threshold,
              can_reconstruct(kDegree, view.observed_shares.size()));
    EXPECT_EQ(attempt.value == secret, attempt.meets_threshold);
  }
}

TEST(AdversaryEngine, InactiveConfigurationsDoNothing) {
  // kNone with attackers, and an attack kind with no attackers, are
  // both inert — the byte-identity guarantee for every frozen scenario.
  AdversaryConfig with_nodes;
  with_nodes.kind = AttackKind::kNone;
  with_nodes.attackers = {1, 2};
  EXPECT_FALSE(with_nodes.active());
  AdversaryConfig no_nodes;
  no_nodes.kind = AttackKind::kMalformedShares;
  EXPECT_FALSE(no_nodes.active());
  const AdversaryEngine engine(with_nodes, 8);
  EXPECT_FALSE(engine.active());
  EXPECT_TRUE(engine.is_attacker(1));  // membership still answers
}

TEST(AdversaryEngine, DrawsAreDeterministicAndDomainSeparated) {
  AdversaryConfig cfg;
  cfg.kind = AttackKind::kMalformedShares;
  cfg.attackers = {3};
  cfg.seed = 77;
  const AdversaryEngine a(cfg, 16);
  const AdversaryEngine b(cfg, 16);
  const Fp61 honest{1000};

  // Same (trial, round, attacker, holder) -> same draw, across engine
  // instances: the engine is stateless.
  EXPECT_EQ(a.malformed_share(5, 0, 3, 7, honest),
            b.malformed_share(5, 0, 3, 7, honest));
  EXPECT_EQ(a.sum_pollution(5, 0, 3), b.sum_pollution(5, 0, 3));
  // Different coordinates -> (overwhelmingly) different draws.
  EXPECT_NE(a.malformed_share(5, 0, 3, 7, honest),
            a.malformed_share(6, 0, 3, 7, honest));
  EXPECT_NE(a.malformed_share(5, 0, 3, 7, honest),
            a.malformed_share(5, 0, 3, 8, honest));
  // The malformed value never equals the honest share it replaces, and
  // pollution offsets are never zero — detection must be guaranteed.
  for (std::uint64_t t = 0; t < 200; ++t) {
    EXPECT_NE(a.malformed_share(t, 1, 3, 2, honest), honest);
    EXPECT_NE(a.sum_pollution(t, 1, 3), Fp61{0});
  }
}

TEST(AdversaryEngine, EquivocationSplitsHoldersAndKeepsTheSecret) {
  AdversaryConfig cfg;
  cfg.kind = AttackKind::kInconsistentShares;
  cfg.attackers = {0};
  cfg.seed = 9;
  const AdversaryEngine engine(cfg, 32);

  // The target set is a fixed, engine-independent function: some but
  // not all of a reasonable holder list gets the second polynomial.
  std::size_t targeted = 0;
  for (std::size_t h = 0; h < 20; ++h) {
    if (engine.equivocation_target(0, h)) ++targeted;
  }
  EXPECT_GT(targeted, 0u);
  EXPECT_LT(targeted, 20u);

  // The equivocation polynomial shares the secret and degree but not
  // the coefficients: below-threshold shares differ, reconstruction
  // from either polynomial yields the same secret.
  const Fp61 secret{321};
  constexpr std::size_t kDegree = 2;
  crypto::CtrDrbg honest_drbg(10, 0);
  const ShamirDealer honest(secret, kDegree, honest_drbg);
  const ShamirDealer equiv =
      engine.equivocation_dealer(55, 0, 0, secret, kDegree);
  EXPECT_EQ(equiv.degree(), kDegree);
  std::vector<Share> shares = equiv.shares_for({1, 2, 3});
  EXPECT_EQ(reconstruct(shares, kDegree), secret);
  EXPECT_NE(equiv.share_for(1).value, honest.share_for(1).value);
}

TEST(SlotJammer, JamDeafensEveryoneInRangeDuringActiveEpochs) {
  const net::Topology topo = net::testbeds::flocklab();
  const NodeId jammer = 5;
  // duty 1.0: always jamming. Every receiver that could hear the
  // jammer statically — including the jammer itself — goes deaf, and
  // nobody goes down.
  const SlotJammer always(topo, nullptr, {jammer}, /*seed=*/3, /*duty=*/1.0);
  EXPECT_TRUE(always.jam_active(jammer, 0));
  const SlotJammer never(topo, nullptr, {jammer}, /*seed=*/3, /*duty=*/0.0);
  EXPECT_FALSE(never.jam_active(jammer, 0));

  const std::size_t n = topo.size();
  std::size_t deafened = 0;
  for (NodeId rx = 0; rx < n; ++rx) {
    const bool audible =
        ((topo.audible_words(rx)[jammer / 64] >> (jammer % 64)) & 1) != 0;
    EXPECT_EQ(always.is_deaf(rx, 0), audible || rx == jammer) << "rx " << rx;
    EXPECT_FALSE(never.is_deaf(rx, 0)) << "rx " << rx;
    EXPECT_FALSE(always.is_down(rx, 0)) << "rx " << rx;
    if (always.is_deaf(rx, 0)) ++deafened;
  }
  EXPECT_GT(deafened, 1u);   // the jammer reaches someone
  EXPECT_LT(deafened, n);    // but not the whole testbed
}

TEST(SlotJammer, DutyCycleGatesJamEpochsDeterministically) {
  const net::Topology topo = net::testbeds::flocklab();
  const SlotJammer jam(topo, nullptr, {2}, /*seed=*/11, /*duty=*/0.3);
  const SlotJammer same(topo, nullptr, {2}, /*seed=*/11, /*duty=*/0.3);
  const SimTime epoch_us = AdversaryConfig{}.jam_epoch_us;
  std::size_t active = 0;
  for (std::uint64_t e = 0; e < 400; ++e) {
    EXPECT_EQ(jam.jam_active(2, e), same.jam_active(2, e));
    // The jammer's own radio is deaf exactly in its active epochs.
    EXPECT_EQ(jam.is_deaf(2, static_cast<SimTime>(e) * epoch_us),
              jam.jam_active(2, e));
    if (jam.jam_active(2, e)) ++active;
  }
  // ~120 of 400 expected; wide deterministic band.
  EXPECT_GT(active, 70u);
  EXPECT_LT(active, 180u);
}

TEST(SlotJammer, DeafSetFlipsOnJamEpochsUnderAnyChannelModel) {
  // Node 1 jams at duty 0.5 over 10 ms epochs; node 0, 1 m away, opens
  // a one-slot Glossy flood at t. Node 1 hears it iff it is not jamming
  // in epoch t / 10 ms — in the static world and under LinkDynamics
  // alike, whose 50 ms epochs must not coarsen the jam schedule.
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  radio.prr_width_db = 0.1;  // a step curve: close links are perfect
  const net::Topology topo({net::Position{0.0, 0.0}, net::Position{1.0, 0.0}},
                           radio, 1);
  ASSERT_EQ(topo.prr(0, 1), 1.0);
  sim::dynamics::LinkDynamicsParams lp;
  lp.p_good_to_bad = 0.0;  // the link stays perfect, epoch after epoch
  lp.drift_sigma_db = 0.0;
  const sim::dynamics::LinkDynamics links(lp);
  ASSERT_EQ(links.epoch_us(), 50 * kMillisecond);
  const SimTime jam_epoch_us = 10 * kMillisecond;
  const SlotJammer jam(topo, nullptr, {1}, /*seed=*/7, /*duty=*/0.5,
                       jam_epoch_us);

  // The schedule must change inside some 50 ms link epoch for the check
  // below to tell the two granularities apart.
  constexpr std::uint64_t kJamEpochs = 40;
  std::size_t inner_flips = 0;
  for (std::uint64_t e = 1; e < kJamEpochs; ++e) {
    if (e % 5 != 0 && jam.jam_active(1, e) != jam.jam_active(1, e - 1)) {
      ++inner_flips;
    }
  }
  ASSERT_GT(inner_flips, 0u);

  for (const net::ChannelModel* model :
       {static_cast<const net::ChannelModel*>(nullptr),
        static_cast<const net::ChannelModel*>(&links)}) {
    for (SimTime t = 0; t < static_cast<SimTime>(kJamEpochs) * jam_epoch_us;
         t += jam_epoch_us / 2) {
      ct::GlossyConfig cfg;
      cfg.initiator = 0;
      cfg.max_slots = 1;
      cfg.start_time_us = t;
      cfg.channel_model = model;
      cfg.liveness = &jam;
      crypto::Xoshiro256 rng(1);
      const ct::GlossyResult flood = ct::run_glossy(topo, cfg, rng);
      const auto epoch = static_cast<std::uint64_t>(t / jam_epoch_us);
      EXPECT_EQ(flood.first_rx_slot[1] == 0, !jam.jam_active(1, epoch))
          << "t " << t << (model != nullptr ? " under LinkDynamics" : "");
    }
  }
}

TEST(SlotJammer, RejectsOutOfRangeJammersAndBadParameters) {
  const net::Topology topo = net::testbeds::flocklab();
  const auto n = static_cast<NodeId>(topo.size());
  EXPECT_THROW(SlotJammer(topo, nullptr, {n}, 1, 0.5), ContractViolation);
  EXPECT_THROW(SlotJammer(topo, nullptr, {0}, 1, 1.5), ContractViolation);
  EXPECT_THROW(SlotJammer(topo, nullptr, {0}, 1, -0.1), ContractViolation);
  EXPECT_THROW(SlotJammer(topo, nullptr, {0}, 1, 0.5, 0), ContractViolation);
}

TEST(SlotJammer, RejectsJammerIdsThatWouldAliasTheJamDraw) {
  // The jam draw is indexed by (epoch << 16) | jammer: on a sparse-tier
  // line of 2^16 + 1 nodes, jammer 2^16 would reuse jammer 0's draws,
  // so the decorator refuses it; 2^16 - 1 is fine.
  std::vector<net::Position> line;
  for (std::size_t i = 0; i <= (std::size_t{1} << 16); ++i) {
    line.push_back(net::Position{static_cast<double>(i) * 15.0, 0.0});
  }
  net::TopologyOptions options;
  options.storage = net::TopologyStorage::kSparse;
  options.draw = net::LinkDraw::kKeyed;
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  const net::Topology topo(std::move(line), radio, 1, {}, options);
  ASSERT_EQ(topo.size(), (std::size_t{1} << 16) + 1);
  EXPECT_NO_THROW(SlotJammer(topo, nullptr, {0xFFFF}, 1, 0.5));
  EXPECT_THROW(SlotJammer(topo, nullptr, {0x10000}, 1, 0.5),
               ContractViolation);
}

}  // namespace
}  // namespace mpciot::core
