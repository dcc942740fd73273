// Steady-state allocation audit: after the warm-up rounds, the flat
// static hot path — Session::run_round end to end, sharing and
// reconstruction chains included — must perform ZERO heap allocations,
// and so must the round kernel's warm reconstructor on its own.
// This is the warm-workspace contract the Session API exists for; any
// regression (a std::function that outgrew its small-object buffer, a
// vector rebuilt instead of reused, a map insert on the fast path)
// trips the counting allocator below.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/protocol.hpp"
#include "core/roles.hpp"
#include "core/session.hpp"
#include "crypto/keystore.hpp"
#include "net/testbeds.hpp"
#include "sim/simulator.hpp"

namespace {

/// Global allocation counter. Only the delta around the measured loop
/// matters; gtest's own bookkeeping between tests is irrelevant.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpciot::core {
namespace {

using field::Fp61;

net::Topology make_grid9() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      pos.push_back(net::Position{c * 12.0, r * 12.0});
    }
  }
  return net::Topology(std::move(pos), radio, 7);
}

TEST(SessionAllocation, SteadyStateFlatRoundsAllocateNothing) {
  const net::Topology topo = make_grid9();
  const crypto::KeyStore keys(1, topo.size());
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const SssProtocol s4(topo, keys, make_s4_config(topo, sources, 2, 5));
  Session session(s4);
  sim::Simulator sim(11);
  std::vector<Fp61> secrets;
  secrets.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    secrets.emplace_back(100 * (i + 1) + 7);
  }

  // Two warm-up rounds grow every workspace buffer to its steady size.
  for (int r = 0; r < 2; ++r) {
    const RoundReport& rep = session.run_round(secrets, sim);
    ASSERT_TRUE(rep.ok);
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int r = 0; r < 4; ++r) {
    const RoundReport& rep = session.run_round(secrets, sim);
    ASSERT_TRUE(rep.ok);
    EXPECT_EQ(rep.flat->success_ratio(), 1.0);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state flat rounds must not touch the heap";
}

TEST(SessionAllocation, S3SteadyStateAllocatesNothingToo) {
  // S3 exercises the all-sources-are-holders shape (bigger holder-need
  // masks, different chain schedules) on the same zero-alloc contract.
  const net::Topology topo = make_grid9();
  const crypto::KeyStore keys(1, topo.size());
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const SssProtocol s3(topo, keys, make_s3_config(topo, sources, 2, 6));
  Session session(s3);
  sim::Simulator sim(13);
  std::vector<Fp61> secrets(sources.size(), Fp61{42});

  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(session.run_round(secrets, sim).ok);
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(session.run_round(secrets, sim).ok);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

/// Churn schedule with one node down for good.
class DownForGood final : public net::LivenessModel {
 public:
  explicit DownForGood(NodeId node) : node_(node) {}
  bool is_down(NodeId node, SimTime /*t*/) const override {
    return node == node_;
  }

 private:
  NodeId node_;
};

TEST(SessionAllocation, SplitHolderMasksAllocateNothing) {
  // A holder that is churn-down all round collects no share, so its
  // broadcast mask differs from every other holder's: stage 2 picks the
  // done-predicate mask among mixed masks on every round.
  const net::Topology topo = make_grid9();
  const crypto::KeyStore keys(1, topo.size());
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const ProtocolConfig cfg = make_s4_config(topo, sources, 2, 5);
  const SssProtocol s4(topo, keys, cfg);
  const NodeId down =
      cfg.share_holders.front() != cfg.initiator ? cfg.share_holders.front()
                                                 : cfg.share_holders.back();
  const DownForGood churn(down);
  sim::Simulator sim(11);
  sim.set_liveness(&churn);
  Session session(s4);
  std::vector<Fp61> secrets(sources.size(), Fp61{42});

  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(session.run_round(secrets, sim).ok);
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int r = 0; r < 4; ++r) {
    const RoundReport& rep = session.run_round(secrets, sim);
    ASSERT_TRUE(rep.ok);
    // Every holder but the down one completes: two masks in play.
    EXPECT_EQ(rep.flat->complete_holders, cfg.share_holders.size() - 1);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "a warm round over split holder masks must not touch the heap";
}

TEST(RoleAllocation, WarmAggregatorReconstructsMixedMasksWithoutAllocating) {
  // reset -> accept -> try_reconstruct on a warm AggregatorRole over a
  // mixed-mask set (a source missing at two of five holders, holders out
  // of id order), so the mask selection and the smallest-id pick both
  // run. Every sum is a point of the sum polynomial P(x) = 77 + 5x + 3x^2
  // restricted to its mask, so the value is checkable too.
  roles::RoundSpec spec;
  spec.sources = {0, 1, 2, 3, 4, 5};
  spec.holders = {7, 2, 5, 0, 3};
  spec.degree = 2;
  std::vector<SumPacket> pkts;
  for (const NodeId holder : spec.holders) {
    const bool partial = holder == 2 || holder == 0;
    const Fp61 x = public_point(holder);
    SumPacket pkt;
    pkt.holder = holder;
    pkt.contributors = partial ? 0b011111 : 0b111111;
    pkt.contribution_count = partial ? 5 : 6;
    pkt.sum = Fp61{partial ? 70u : 77u} + Fp61{5} * x + Fp61{3} * x * x;
    pkts.push_back(pkt);
  }
  roles::AggregatorRole aggregator(spec);
  field::LagrangeScratch scratch;
  const auto round = [&](std::uint16_t r) {
    aggregator.reset(r);
    for (SumPacket& pkt : pkts) {
      pkt.round = r;
      aggregator.accept(pkt);
    }
    return aggregator.try_reconstruct(scratch);
  };
  ASSERT_TRUE(round(0).has_value());  // warm-up sizes the scratch

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint16_t r = 1; r <= 4; ++r) {
    const std::optional<roles::AggregateOutcome> out = round(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->contributor_mask, 0b111111u);
    EXPECT_EQ(out->consistent_sums, 3u);
    EXPECT_EQ(out->aggregate, Fp61{77});
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "a warm AggregatorRole must not touch the heap";
}

}  // namespace
}  // namespace mpciot::core
