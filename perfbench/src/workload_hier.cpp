// hier_grid_dynamic — the `sim` + core::hierarchical workload.
//
// The sustained_load configuration with the weakest success rate: an
// 8x8 grid at 12 m, 16 grid-block groups on 16 channels, NTX 8/8,
// Gilbert–Elliott bursty links plus node churn, streamed through a
// pipelined core::Campaign so the simulated clock advances round after
// round as in a deployment. Host time goes almost entirely into
// sim.materialize, nested inside the ct floods and chains: every group
// round binds a fresh ChannelView that replays the link chain from
// epoch 0, so a round's cost grows with its index in the campaign.
// A run is therefore a fixed number of fixed-length campaigns (each a
// fresh deployment with its own set-up), never a wall-clock budget,
// which would cut campaigns at a varying round index and shift the
// per-round mix.
#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "common.hpp"
#include "core/campaign.hpp"
#include "core/hierarchical.hpp"
#include "core/session.hpp"
#include "crypto/prng.hpp"
#include "field/fp61.hpp"
#include "net/partition.hpp"
#include "net/testbeds.hpp"
#include "sim/dynamics.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace mpciot;

constexpr std::uint64_t kStreamCampaign = 0x50424341ull;  // "PBCA"
constexpr std::uint64_t kStreamTopo = 0x544F504Full;      // "TOPO"
constexpr std::uint64_t kStreamLink = 0x44594E4Cull;      // "DYNL"
constexpr std::uint64_t kStreamChurn = 0x44594E43ull;     // "DYNC"
constexpr std::uint64_t kStreamSecret = 0x524F554Eull;    // "ROUN"
constexpr std::uint64_t kStreamVerify = 0x50425646ull;    // "PBVF"

/// Rounds per campaign (sustained_load's default), and campaigns per
/// two seconds of --seconds (a campaign took ~0.55 s on a 4-vCPU x86-64
/// host).
constexpr std::uint32_t kRoundsPerCampaign = 16;
constexpr std::uint32_t kCampaignsPerTwoSeconds = 3;

/// Share of timed rounds that must end with a correct aggregate. Seeds
/// give 46-58% in this lossy, churning world; a run far below that means
/// the protocol stopped producing aggregates.
constexpr double kMinCorrectShare = 0.2;

/// Runs one untimed round of `protocol` on a fresh session in a static
/// world (no bursts, no churn, so no node's secret is left out for
/// being down) with the benchmark's own secrets, and checks the global
/// aggregate against their recomputed total: the round is ok exactly
/// when the root holds that total.
void verify_round(const core::HierarchicalProtocol& protocol,
                  std::uint64_t cseed, RunOutput& out, Digest& digest,
                  std::uint32_t& verified_ok) {
  core::Session session(protocol);
  sim::Simulator sim(crypto::derive_seed(cseed, kStreamVerify, 0));
  std::vector<field::Fp61> secrets(session.secret_count());
  crypto::Xoshiro256 rng(crypto::derive_seed(cseed, kStreamVerify, 1));
  field::Fp61 total;
  for (field::Fp61& s : secrets) {
    s = rng.next_fp61();
    total += s;
  }
  const core::RoundReport& rep = session.run_round(secrets, sim);
  const core::HierarchicalResult& h = *rep.hier;
  const bool ok = h.has_aggregate && h.aggregate == total;
  if (ok != rep.ok) {
    ++out.failed;
    out.fail("hier_grid_dynamic: verification round's ok flag disagrees "
             "with the recomputed total");
  }
  if (ok) ++verified_ok;
  digest.add(h.has_aggregate ? h.aggregate.value() : ~std::uint64_t{0});
  digest.add(rep.ok ? 1u : 0u);
}

/// One campaign's deployment, in dependency order.
struct Deployment {
  std::optional<net::Topology> grid;
  std::optional<core::HierarchicalProtocol> protocol;
  std::optional<sim::Simulator> sim;
  std::optional<sim::dynamics::LinkDynamics> link;
  std::optional<sim::dynamics::NodeChurn> churn;
  std::optional<TracedChannel> traced_link;
  std::optional<CountingLiveness> counted_churn;
  std::optional<core::Session> session;
  std::optional<core::Campaign> campaign;
};

}  // namespace

RunOutput run_hier_grid_dynamic(const Options& opt, Tracer* tracer) {
  RunOutput out;
  std::optional<TracedTransport> traced;
  if (tracer != nullptr) traced.emplace(*tracer);

  const std::uint32_t campaigns =
      std::max<std::uint32_t>(1, kCampaignsPerTwoSeconds * opt.seconds / 2);
  std::vector<double> topo_ms;
  std::vector<double> partition_ms;
  std::vector<double> protocol_ms;
  Digest digest;
  std::uint32_t verified_ok = 0;
  for (std::uint32_t c = 0; c < campaigns; ++c) {
    const std::uint64_t cseed =
        crypto::derive_seed(opt.seed, kStreamCampaign, c);
    Deployment d;
    const std::int64_t t0 = now_ns();
    d.grid.emplace(net::testbeds::retry_topology(
        "hier_grid_dynamic: could not build grid", 64,
        [&](std::uint64_t attempt) {
          return net::testbeds::grid(
              8, 8, /*spacing_m=*/12.0,
              crypto::derive_seed(cseed, kStreamTopo, attempt));
        }));
    const std::int64_t t1 = now_ns();
    core::HierarchicalConfig hcfg;
    hcfg.partition = net::partition::grid_blocks(*d.grid, 16);
    const std::int64_t t2 = now_ns();
    hcfg.num_channels = 16;
    hcfg.ntx_sharing = 8;
    hcfg.ntx_reconstruction = 8;
    d.protocol.emplace(*d.grid, std::move(hcfg),
                       traced ? &*traced : nullptr);
    d.sim.emplace(cseed);
    // Mean burst 8 epochs, 10% stationary bad fraction, moderate churn:
    // the sustained_load dynamic world.
    sim::dynamics::LinkDynamicsParams lp;
    lp.seed = crypto::derive_seed(cseed, kStreamLink, 0);
    lp.p_bad_to_good = 1.0 / 8.0;
    lp.p_good_to_bad = lp.p_bad_to_good * 0.1 / 0.9;
    lp.bad_extra_loss_db = 12.0;
    lp.drift_sigma_db = 0.3;
    lp.drift_limit_db = 4.0;
    d.link.emplace(lp);
    sim::dynamics::NodeChurnParams cp;
    cp.seed = crypto::derive_seed(cseed, kStreamChurn, 0);
    cp.crashes_per_sec = 0.5;
    cp.mean_downtime_us = 500 * kMillisecond;
    d.churn.emplace(d.grid->size(), cp);
    if (tracer != nullptr) {
      d.traced_link.emplace(*d.link, *tracer);
      d.counted_churn.emplace(*d.churn, *tracer);
      d.sim->set_channel_model(&*d.traced_link);
      d.sim->set_liveness(&*d.counted_churn);
    } else {
      d.sim->set_channel_model(&*d.link);
      d.sim->set_liveness(&*d.churn);
    }
    d.session.emplace(*d.protocol);
    core::CampaignConfig ccfg;
    ccfg.rounds = kRoundsPerCampaign;
    ccfg.pipelined = true;
    d.campaign.emplace(*d.session, ccfg);
    const std::int64_t t3 = now_ns();
    topo_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    partition_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    protocol_ms.push_back(static_cast<double>(t3 - t2) / 1e6);

    // Per-round host time is the gap between consecutive fill callbacks
    // (the campaign calls fill right before each round runs).
    if (tracer != nullptr) tracer->set_active(true);
    std::int64_t last = 0;
    std::uint32_t round_span = 0;
    const std::int64_t start = now_ns();
    const core::CampaignResult& res = d.campaign->run(
        *d.sim, [&](std::uint32_t r, std::vector<field::Fp61>& secrets) {
          const std::int64_t t = now_ns();
          if (r > 0) out.round_ms.push_back(static_cast<double>(t - last) / 1e6);
          last = t;
          if (tracer != nullptr) {
            if (r > 0) tracer->end(round_span);
            round_span = tracer->begin("round");
          }
          crypto::Xoshiro256 rng(crypto::derive_seed(cseed, kStreamSecret, r));
          for (field::Fp61& s : secrets) s = rng.next_fp61();
        });
    const std::int64_t end = now_ns();
    out.round_ms.push_back(static_cast<double>(end - last) / 1e6);
    if (tracer != nullptr) {
      tracer->end(round_span);
      tracer->set_active(false);
    }
    const double speed = host_speed(Kernel::kCompute);
    out.add_block(kRoundsPerCampaign, static_cast<double>(end - start) / 1e9,
                  speed);
    out.add_setup(static_cast<double>(t3 - t0) / 1e9, speed);

    // The campaign result must be complete. Campaign exposes no
    // per-round aggregate, so its rounds are checked through their ok
    // flags (a floor over the run, below) and the protocol's output
    // through one verification round per campaign.
    out.attempted += kRoundsPerCampaign;
    if (res.rounds != kRoundsPerCampaign ||
        res.round_latency_us.size() != kRoundsPerCampaign ||
        res.round_ok.size() != kRoundsPerCampaign) {
      out.failed += kRoundsPerCampaign;
      out.fail("hier_grid_dynamic: incomplete campaign result");
      break;
    }
    for (std::size_t r = 0; r < kRoundsPerCampaign; ++r) {
      const SimTime latency = res.round_latency_us[r];
      if (latency <= 0) {
        ++out.failed;
        out.fail("hier_grid_dynamic: non-positive latency");
      }
      if (res.round_ok[r] == 0) ++out.no_aggregate;
      digest.add(static_cast<std::uint64_t>(latency));
      digest.add(static_cast<std::uint64_t>(res.round_ok[r]));
      out.sim_latency_ms.push_back(static_cast<double>(latency) / 1e3);
    }
    verify_round(*d.protocol, cseed, out, digest, verified_ok);
  }
  out.require_aggregate_share(kMinCorrectShare, "hier_grid_dynamic");
  out.notes.push_back("verification rounds ok " + std::to_string(verified_ok) +
                      " of " + std::to_string(campaigns));
  if (verified_ok == 0) {
    out.fail("hier_grid_dynamic: no verification round produced the "
             "recomputed total");
  }
  out.set_layer("net.topology_build_ms", median(topo_ms));
  out.set_layer("net.partition_ms", median(partition_ms));
  out.set_layer("core.protocol_build_ms", median(protocol_ms));
  out.digest = digest.value();
  out.peak_rss_mb = self_peak_rss_mb();
  return out;
}

}  // namespace perfbench
