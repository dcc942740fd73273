// The non-CT baseline: the same SSS round (SssProtocol through a
// core::Session) over ct::UnicastTransport, the routed stop-and-wait
// unicast substrate a duty-cycled collection-tree stack would use.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/keystore.hpp"
#include "ct/transport.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {
namespace {

using field::Fp61;

net::Topology make_grid9() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) pos.push_back({c * 12.0, r * 12.0});
  }
  return net::Topology(std::move(pos), radio, 7);
}

std::vector<Fp61> fixed_secrets(std::size_t n) {
  std::vector<Fp61> secrets;
  for (std::size_t i = 0; i < n; ++i) secrets.emplace_back(11 * (i + 1));
  return secrets;
}

std::vector<NodeId> all_nodes(const net::Topology& topo) {
  std::vector<NodeId> nodes;
  for (NodeId i = 0; i < topo.size(); ++i) nodes.push_back(i);
  return nodes;
}

/// One session round of `cfg` over the unicast substrate.
AggregationResult unicast_round(const net::Topology& topo,
                                const ProtocolConfig& cfg,
                                const std::vector<Fp61>& secrets,
                                std::uint64_t seed) {
  const crypto::KeyStore keys(1, topo.size());
  const ct::UnicastTransport unicast;
  const SssProtocol protocol(topo, keys, cfg, &unicast);
  Session session(protocol);
  sim::Simulator sim(seed);
  return *session.run_round(secrets, sim).flat;
}

TEST(UnicastBaseline, AggregatesCorrectlyOnGrid) {
  const net::Topology topo = make_grid9();
  const auto cfg = make_s3_config(topo, all_nodes(topo), 2, /*ntx unused*/ 1);
  const auto secrets = fixed_secrets(9);
  const AggregationResult res = unicast_round(topo, cfg, secrets, 3);

  Fp61 expected;
  for (const auto& s : secrets) expected += s;
  EXPECT_GT(res.share_delivery_ratio, 0.99);
  EXPECT_EQ(res.success_ratio(), 1.0);
  for (const auto& node : res.nodes) {
    EXPECT_TRUE(node.has_aggregate);
    EXPECT_EQ(node.aggregate, expected);
  }
}

TEST(UnicastBaseline, DurationGrowsWithMessageCount) {
  const net::Topology topo = make_grid9();
  const AggregationResult small = unicast_round(
      topo, make_s3_config(topo, {0, 4, 8}, 1, 1), fixed_secrets(3), 3);
  const AggregationResult large = unicast_round(
      topo, make_s3_config(topo, all_nodes(topo), 2, 1), fixed_secrets(9), 3);
  EXPECT_GT(large.total_duration_us, small.total_duration_us);
}

TEST(UnicastBaseline, PinnedRegressionOnGrid9) {
  // Same seed, same round — a tripwire for nondeterminism anywhere under
  // the seam (routing, retries, timing).
  const net::Topology topo = make_grid9();
  const auto cfg = make_s3_config(topo, all_nodes(topo), 2, 1);
  const AggregationResult res = unicast_round(topo, cfg, fixed_secrets(9), 3);
  const AggregationResult res2 =
      unicast_round(topo, cfg, fixed_secrets(9), 3);
  EXPECT_EQ(res.total_duration_us, res2.total_duration_us);
  EXPECT_EQ(res.share_delivery_ratio, res2.share_delivery_ratio);
  ASSERT_EQ(res.nodes.size(), res2.nodes.size());
  for (std::size_t i = 0; i < res.nodes.size(); ++i) {
    EXPECT_EQ(res.nodes[i].radio_on_us, res2.nodes[i].radio_on_us);
    EXPECT_EQ(res.nodes[i].latency_us, res2.nodes[i].latency_us);
  }
}

TEST(UnicastBaseline, SecretCountMismatchViolatesContract) {
  const net::Topology topo = make_grid9();
  EXPECT_THROW(unicast_round(topo, make_s3_config(topo, {0, 1, 2}, 1, 1),
                             fixed_secrets(2), 1),
               ContractViolation);
}

}  // namespace
}  // namespace mpciot::core
