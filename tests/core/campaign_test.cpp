// core::Campaign: streaming rounds over one warm Session — determinism
// of the pipelined stream, equivalence of pipelined and sequential
// round results in a static world, genuine pipeline overlap, recovery
// from churn mid-campaign without poisoning the warm state, and the
// warm channel views under bursty links and jammers.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/assert.hpp"
#include "core/adversary.hpp"
#include "core/hierarchical.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "net/channel_model.hpp"
#include "net/partition.hpp"
#include "net/testbeds.hpp"
#include "sim/dynamics.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {
namespace {

using field::Fp61;

net::Topology lossless_grid16() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      pos.push_back(net::Position{c * 8.0, r * 8.0});
    }
  }
  return net::Topology(std::move(pos), radio, 5);
}

HierarchicalProtocol make_hier(const net::Topology& topo) {
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  cfg.num_channels = 4;
  return HierarchicalProtocol(topo, std::move(cfg));
}

/// Round r's secrets: node i contributes i + 1 + r (deterministic and
/// round-dependent, so cross-round state bleed would change a sum).
void fill_round(std::uint32_t r, std::vector<Fp61>& secrets) {
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    secrets[i] = Fp61(i + 1 + r);
  }
}

TEST(Campaign, PipelinedStreamIsDeterministic) {
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const auto run_campaign = [&] {
    Session session(proto);
    Campaign campaign(session, CampaignConfig{/*rounds=*/6,
                                              /*pipelined=*/true});
    sim::Simulator sim(91);
    return campaign.run(sim, fill_round);
  };
  const CampaignResult a = run_campaign();
  const CampaignResult b = run_campaign();
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.serial_us, b.serial_us);
  EXPECT_EQ(a.rounds_ok, b.rounds_ok);
  EXPECT_EQ(a.round_latency_us, b.round_latency_us);
  EXPECT_EQ(a.round_ok, b.round_ok);
}

TEST(Campaign, PipelinedRoundsMatchSequentialRoundsInAStaticWorld) {
  // Pipelining only moves rounds earlier on the trial clock; in a
  // static world the protocol work itself must be identical round for
  // round — same ok flags, same per-round work duration (the latency
  // differs: pipelined rounds wait on the flood lane).
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const auto run_campaign = [&](bool pipelined) {
    Session session(proto);
    Campaign campaign(session,
                      CampaignConfig{/*rounds=*/6, pipelined});
    sim::Simulator sim(91);
    return campaign.run(sim, fill_round);
  };
  const CampaignResult seq = run_campaign(false);
  const CampaignResult pip = run_campaign(true);
  EXPECT_EQ(seq.round_ok, pip.round_ok);
  EXPECT_EQ(seq.rounds_ok, pip.rounds_ok);
  EXPECT_EQ(seq.serial_us, pip.serial_us);
  EXPECT_EQ(seq.mean_success_ratio, pip.mean_success_ratio);
}

TEST(Campaign, PipeliningOverlapsRoundsAndBeatsTheSequentialStream) {
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const auto run_campaign = [&](bool pipelined) {
    Session session(proto);
    Campaign campaign(session,
                      CampaignConfig{/*rounds=*/6, pipelined});
    sim::Simulator sim(91);
    return campaign.run(sim, fill_round);
  };
  const CampaignResult seq = run_campaign(false);
  const CampaignResult pip = run_campaign(true);
  // Sequential streams by definition: makespan == sum of round work.
  EXPECT_EQ(seq.makespan_us, seq.serial_us);
  EXPECT_EQ(seq.pipeline_speedup(), 1.0);
  // The pipelined stream overlaps round r+1's group phase with round
  // r's recombination + result floods: strictly shorter makespan.
  EXPECT_LT(pip.makespan_us, seq.makespan_us);
  EXPECT_GT(pip.pipeline_speedup(), 1.0);
  EXPECT_GT(pip.aggregates_per_sec(), seq.aggregates_per_sec());
  // All rounds still correct.
  EXPECT_EQ(pip.rounds_ok, 6u);
}

TEST(Campaign, FlatSessionsStreamSequentiallyEvenWhenAskedToPipeline) {
  // One chain occupies the whole band: nothing to overlap.
  const net::Topology topo = lossless_grid16();
  const crypto::KeyStore keys(3, topo.size());
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const SssProtocol flat(
      topo, keys, make_s3_config(topo, sources, paper_degree(16), 6));
  Session session(flat);
  Campaign campaign(session, CampaignConfig{/*rounds=*/3,
                                            /*pipelined=*/true});
  sim::Simulator sim(7);
  const CampaignResult& res = campaign.run(sim, fill_round);
  EXPECT_EQ(res.makespan_us, res.serial_us);
  EXPECT_EQ(res.pipeline_speedup(), 1.0);
  EXPECT_EQ(res.rounds_ok, 3u);
}

/// Test double: one node is down on [0, until) of the trial clock.
class DownUntil final : public net::LivenessModel {
 public:
  DownUntil(NodeId victim, SimTime until) : victim_(victim), until_(until) {}
  bool is_down(NodeId node, SimTime t) const override {
    return node == victim_ && t < until_;
  }

 private:
  NodeId victim_;
  SimTime until_;
};

TEST(Campaign, ChurnMidCampaignRecoversWithoutPoisoningWarmState) {
  // The precomputed leader of group 2 is down when round 0 starts (its
  // group re-elects) and back up for every later round. The stream must
  // absorb the churn — every round ok — and the session's warm state
  // (deputy buffers, elected-leader bookkeeping) must not leak round
  // 0's degraded view into later rounds: an extra round run on the same
  // warm session afterwards aggregates every node again.
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const NodeId victim = proto.group_leader(2);
  const DownUntil churn(victim, 50 * kMillisecond);

  Session session(proto);
  Campaign campaign(session, CampaignConfig{/*rounds=*/3,
                                            /*pipelined=*/true});
  sim::Simulator sim(41);
  sim.set_liveness(&churn);
  const CampaignResult& res = campaign.run(sim, fill_round);
  EXPECT_EQ(res.rounds_ok, 3u);
  for (const char ok : res.round_ok) EXPECT_EQ(ok, 1);

  // One more warm round, long after recovery: the full sum — victim
  // included — reconstructs at every node. The round is placed past the
  // churn window on the trial clock.
  std::vector<Fp61> secrets(topo.size());
  fill_round(9, secrets);
  Fp61 expected;
  for (const Fp61& s : secrets) expected += s;
  RoundEnv env;
  env.start_time_us = 200 * kMillisecond;
  env.liveness = &churn;
  const RoundReport& rep = session.run_round_at(secrets, sim, env);
  ASSERT_NE(rep.hier, nullptr);
  ASSERT_TRUE(rep.hier->has_aggregate);
  EXPECT_EQ(rep.hier->aggregate, expected);
  EXPECT_TRUE(rep.hier->aggregate_correct);
  EXPECT_EQ(rep.hier->success_ratio(), 1.0);
}

/// Bursty links for the dynamic-world campaigns below: mean burst 8
/// epochs, 10% stationary bad fraction, mild drift.
sim::dynamics::LinkDynamicsParams bursty_links() {
  sim::dynamics::LinkDynamicsParams lp;
  lp.seed = 0xB0057ull;
  lp.p_bad_to_good = 1.0 / 8.0;
  lp.p_good_to_bad = lp.p_bad_to_good * 0.1 / 0.9;
  lp.bad_extra_loss_db = 12.0;
  lp.drift_sigma_db = 0.3;
  return lp;
}

/// Test double: forwards to an inner model and counts the chain epochs
/// its callers make it step — epoch - tables.epoch per call, epoch + 1
/// on a fresh view — and the calls that re-materialize an epoch the
/// tables already hold (or an earlier one) without a fresh view.
/// Single-threaded use only.
class CountingChannel final : public net::ChannelModel {
 public:
  explicit CountingChannel(const net::ChannelModel& inner) : inner_(inner) {}
  SimTime epoch_us() const override { return inner_.epoch_us(); }
  void materialize(const net::Topology& topo, std::uint64_t epoch,
                   net::LinkEpochTables& tables) const override {
    const bool fresh = tables.epoch == net::LinkEpochTables::kNoEpoch;
    if (!fresh && epoch <= tables.epoch) ++repeats_;
    steps_ += fresh ? epoch + 1 : epoch - tables.epoch;
    final_epoch_ = std::max(final_epoch_, epoch);
    inner_.materialize(topo, epoch, tables);
  }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t repeats() const { return repeats_; }
  std::uint64_t final_epoch() const { return final_epoch_; }

 private:
  const net::ChannelModel& inner_;
  mutable std::uint64_t steps_ = 0;
  mutable std::uint64_t repeats_ = 0;
  mutable std::uint64_t final_epoch_ = 0;
};

TEST(Campaign, EachTopologyWalksTheLinkChainOnce) {
  // Every group keeps its own channel view for the whole campaign and
  // the full-topology floods keep another, so no view ever replays the
  // Gilbert–Elliott chain from epoch 0: the epochs stepped stay within
  // one walk per view. A single view rebound group -> group -> full
  // topology walks ~(groups + 1) chains per round instead.
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const sim::dynamics::LinkDynamics links(bursty_links());
  const CountingChannel counting(links);
  Session session(proto);
  Campaign campaign(session, CampaignConfig{/*rounds=*/16,
                                            /*pipelined=*/true});
  sim::Simulator sim(57);
  sim.set_channel_model(&counting);
  const CampaignResult& res = campaign.run(sim, fill_round);
  ASSERT_EQ(res.round_ok.size(), 16u);
  ASSERT_GT(counting.final_epoch(), 16u);  // the walk spans many epochs
  EXPECT_LE(counting.steps(),
            (proto.num_groups() + 1) * (counting.final_epoch() + 1));
  // A warm view rebound for the next round keeps its tables: no call
  // re-materializes an epoch they already hold.
  EXPECT_EQ(counting.repeats(), 0u);
}

/// A 12-round hierarchical campaign on the 4-group grid with nodes 5 and
/// 10 jamming (kJamSlots) at `duty`, in the static world or under
/// bursty links.
CampaignResult run_jammed_campaign(double duty, bool dynamic,
                                   bool pipelined) {
  const net::Topology topo = lossless_grid16();
  HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  cfg.num_channels = 4;
  cfg.adversary.kind = AttackKind::kJamSlots;
  cfg.adversary.attackers = {5, 10};
  cfg.adversary.seed = 0x4A414Dull;
  cfg.adversary.jam_duty = duty;
  const HierarchicalProtocol proto(topo, std::move(cfg));
  std::optional<sim::dynamics::LinkDynamics> links;
  sim::Simulator sim(61);
  if (dynamic) {
    links.emplace(bursty_links());
    sim.set_channel_model(&*links);
  }
  Session session(proto);
  Campaign campaign(session, CampaignConfig{/*rounds=*/12, pipelined});
  return campaign.run(sim, fill_round);
}

TEST(Campaign, JammedHierarchicalCampaignsArePinnedRoundByRound) {
  // Every round re-creates its jammers with fresh seeds while the warm
  // channel views persist; the jammers only deafen receivers through
  // the liveness seam and never touch a view's tables. The jam schedule
  // switches every jam_epoch_us (10 ms) in both worlds, not at the
  // 50 ms epochs of the bursty links.
  struct Case {
    double duty;
    bool dynamic;
    bool pipelined;
    std::uint32_t rounds_ok;
    std::vector<SimTime> latency_us;
  };
  const std::vector<Case> cases = {
      {0.3, false, false, 0,
       {527280, 554848, 518768, 575056, 602096, 509072, 690496, 489616,
        496944, 512672, 543424, 531008}},
      {0.3, false, true, 1,
       {527280, 597840, 525568, 612800, 495184, 506880, 680976, 556080,
        537344, 557392, 580448, 504880}},
      {0.3, true, false, 2,
       {527280, 676368, 548448, 565536, 545440, 436992, 680976, 530720,
        515760, 575248, 648800, 441312}},
      {0.3, true, true, 0,
       {527280, 597840, 574112, 678720, 571280, 472592, 690496, 469088,
        512976, 629168, 812256, 464896}},
      {0.6, false, false, 0,
       {622496, 1285424, 1909984, 583232, 731824, 549584, 730064, 544144,
        638288, 576896, 628944, 593936}},
      {0.6, false, true, 0,
       {622496, 643728, 604816, 560464, 691376, 524864, 698656, 548272,
        722480, 694224, 549584, 639824}},
      {0.6, true, false, 0,
       {622496, 611792, 769504, 577792, 739584, 550048, 680976, 558976,
        626400, 633312, 626224, 623376}},
      {0.6, true, true, 0,
       {622496, 643728, 1404592, 660048, 649392, 1106624, 680976, 600912,
        700496, 551408, 608720, 629296}},
  };
  for (const Case& c : cases) {
    const CampaignResult res =
        run_jammed_campaign(c.duty, c.dynamic, c.pipelined);
    EXPECT_EQ(res.rounds_ok, c.rounds_ok)
        << "duty " << c.duty << " dynamic " << c.dynamic << " pipelined "
        << c.pipelined;
    EXPECT_EQ(res.round_latency_us, c.latency_us)
        << "duty " << c.duty << " dynamic " << c.dynamic << " pipelined "
        << c.pipelined;
  }
}

TEST(Campaign, RequiresAtLeastOneRound) {
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  Session session(proto);
  EXPECT_THROW(Campaign(session, CampaignConfig{/*rounds=*/0, true}),
               ContractViolation);
}

}  // namespace
}  // namespace mpciot::core
