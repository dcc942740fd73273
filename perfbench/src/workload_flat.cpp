// flat_dcube_s4 — the paper's headline setting, the `ct` workload.
//
// DCube-like 45-node testbed, every node a source, S4 (degree 15,
// 18 elected holders, NTX 5, early radio-off), static world, one
// core::Session streaming closed-loop rounds with fresh secrets. The
// testbed is the fixed net::testbeds::dcube() floor (a physical
// deployment does not move between experiments); the seed drives the
// keystore, the channel randomness and every round's secrets. Chain
// rounds dominate the round (the chain engine is most of it, core self
// time the rest), and the static world never touches `sim`.
#include <optional>
#include <vector>

#include "calibrate.hpp"
#include "common.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/keystore.hpp"
#include "crypto/prng.hpp"
#include "field/fp61.hpp"
#include "net/testbeds.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace mpciot;

constexpr std::uint64_t kStreamKeys = 0x50424B59ull;    // "PBKY"
constexpr std::uint64_t kStreamSim = 0x5042534Dull;     // "PBSM"
constexpr std::uint64_t kStreamSecret = 0x50425345ull;  // "PBSE"
constexpr std::uint64_t kStreamWarmup = 0x50425755ull;  // "PBWU"

/// Set-ups per run; the median is reported and the last one is timed.
constexpr int kSetups = 5;
/// Timed rounds per second of --seconds (the workload ran ~95-120
/// rounds/s on a 4-vCPU x86-64 host), in blocks of kBlockRounds.
constexpr std::uint32_t kRoundsPerSecond = 80;
constexpr std::uint32_t kBlockRounds = 40;
constexpr std::uint32_t kNtx = 5;
/// Share of rounds that must end with a correct aggregate somewhere.
/// Seeds give 88-92% on this testbed; a run far below that means the
/// protocol stopped producing aggregates, not that the radio was lossy.
constexpr double kMinCorrectShare = 0.5;

void fill_secrets(std::uint64_t seed, std::uint64_t stream,
                  std::uint32_t round, std::vector<field::Fp61>& secrets) {
  crypto::Xoshiro256 rng(crypto::derive_seed(seed, stream, round));
  for (field::Fp61& s : secrets) s = rng.next_fp61();
}

/// Everything the timed phase runs on, in dependency order.
struct Deployment {
  std::optional<net::Topology> topo;
  std::optional<crypto::KeyStore> keys;
  std::optional<core::SssProtocol> protocol;
  std::optional<core::Session> session;
  std::optional<sim::Simulator> sim;

  void reset() {
    sim.reset();
    session.reset();
    protocol.reset();
    keys.reset();
    topo.reset();
  }
};

}  // namespace

RunOutput run_flat_dcube_s4(const Options& opt, Tracer* tracer) {
  RunOutput out;
  std::optional<TracedTransport> traced;
  if (tracer != nullptr) traced.emplace(*tracer);

  std::vector<double> topo_ms;
  std::vector<double> protocol_ms;
  std::vector<double> warmup_ms;
  std::vector<field::Fp61> secrets;
  Deployment d;
  for (int s = 0; s < kSetups; ++s) {
    d.reset();
    const std::int64_t t0 = now_ns();
    d.topo.emplace(net::testbeds::dcube());
    const std::int64_t t1 = now_ns();
    const std::size_t n = d.topo->size();
    std::vector<NodeId> sources(n);
    for (NodeId i = 0; i < n; ++i) sources[i] = i;
    d.keys.emplace(crypto::derive_seed(opt.seed, kStreamKeys, 0),
                   static_cast<std::uint32_t>(n));
    d.protocol.emplace(
        *d.topo, *d.keys,
        core::make_s4_config(*d.topo, sources,
                             core::paper_degree(sources.size()), kNtx),
        traced ? &*traced : nullptr);
    d.session.emplace(*d.protocol);
    d.sim.emplace(crypto::derive_seed(opt.seed, kStreamSim, 0));
    const std::int64_t t2 = now_ns();
    // Warm-up round: sizes the session's workspace so timed rounds run
    // on the allocation-free path.
    secrets.assign(n, field::Fp61{});
    fill_secrets(opt.seed, kStreamWarmup, 0, secrets);
    d.session->run_round(secrets, *d.sim);
    const std::int64_t t3 = now_ns();
    topo_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    protocol_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    warmup_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    out.add_setup(static_cast<double>(t3 - t0) / 1e9,
                  host_speed(Kernel::kCompute));
  }
  out.set_layer("net.topology_build_ms", median(topo_ms));
  out.set_layer("core.protocol_build_ms", median(protocol_ms));
  out.set_layer("core.warmup_round_ms", median(warmup_ms));

  const std::uint32_t rounds = kRoundsPerSecond * opt.seconds;
  const std::size_t n = d.topo->size();
  const std::uint64_t full_mask =
      n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  Digest digest;
  out.round_ms.reserve(rounds);
  if (tracer != nullptr) tracer->set_active(true);
  std::int64_t block_start = now_ns();
  for (std::uint32_t r = 0; r < rounds; ++r) {
    fill_secrets(opt.seed, kStreamSecret, r, secrets);
    const std::int64_t t0 = now_ns();
    const core::RoundReport* report = nullptr;
    {
      ScopedSpan span(tracer, "round");
      report = &d.session->run_round(secrets, *d.sim);
    }
    out.round_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    ++out.attempted;

    // Independent check. Without an adversary, every aggregate a node
    // reconstructed is the sum of this round's secrets over its
    // contributor mask; it is correct when that mask covers every source
    // (static world). The node's and the round's verdicts must agree
    // with this recomputation.
    const core::AggregationResult& res = *report->flat;
    bool any_correct = false;
    bool wrong = false;
    for (const core::NodeOutcome& node : res.nodes) {
      digest.add((node.has_aggregate ? 1u : 0u) |
                 (node.aggregate_correct ? 2u : 0u));
      digest.add(node.aggregate.value());
      digest.add(node.contributor_mask);
      digest.add(node.sums_used);
      digest.add(static_cast<std::uint64_t>(node.latency_us));
      digest.add(static_cast<std::uint64_t>(node.radio_on_us));
      bool correct = false;
      if (node.has_aggregate) {
        field::Fp61 sum;
        for (std::size_t i = 0; i < n; ++i) {
          if ((node.contributor_mask >> i) & 1u) sum = sum + secrets[i];
        }
        if (sum != node.aggregate) {
          wrong = true;
          out.fail("flat_dcube_s4: a node's aggregate differs from the sum "
                   "of the secrets over its contributor mask");
        }
        correct = sum == node.aggregate && node.contributor_mask == full_mask;
      }
      if (correct != node.aggregate_correct) {
        wrong = true;
        out.fail("flat_dcube_s4: a node's aggregate_correct flag disagrees "
                 "with the recomputed sum");
      }
      any_correct = any_correct || correct;
    }
    if (any_correct != report->ok) {
      wrong = true;
      out.fail("flat_dcube_s4: round ok flag disagrees with the recomputed "
               "node outcomes");
    }
    if (wrong) ++out.failed;
    if (!any_correct) ++out.no_aggregate;
    const SimTime latency = report->end_us - report->start_us;
    digest.add(static_cast<std::uint64_t>(latency));
    out.sim_latency_ms.push_back(static_cast<double>(latency) / 1e3);
    if ((r + 1) % kBlockRounds == 0 || r + 1 == rounds) {
      out.add_block((r % kBlockRounds) + 1,
                    static_cast<double>(now_ns() - block_start) / 1e9,
                    host_speed(Kernel::kCompute));
      block_start = now_ns();
    }
  }
  if (tracer != nullptr) tracer->set_active(false);
  out.require_aggregate_share(kMinCorrectShare, "flat_dcube_s4");
  out.digest = digest.value();
  out.peak_rss_mb = self_peak_rss_mb();
  return out;
}

}  // namespace perfbench
