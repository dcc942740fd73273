// Byzantine robustness sweep: attacker fraction x attack kind x testbed
// x transport, with and without Feldman-VSS cheater detection.
//
// Every trial hands the S4 round an AdversaryConfig: a deterministic
// attacker subset (paired across attack kinds — the same nodes turn
// coat at the same fraction) committing one of the active
// misbehaviours: malformed share values, equivocating dealers,
// polluted point-sums, or CT-slot jamming (a SlotJammer decorating
// the trial's liveness schedule, so all four transports inherit it).
// Reported per configuration: the detection rate commitment
// verification achieves against the attackers that actually misdealt,
// aggregate correctness among the honest nodes, the rejection
// counters, and the commitment overhead in sharing-payload bytes.
//
// The two frac-0 rows pin the baselines: VSS off is the frozen
// engine byte for byte, VSS on shows the pure overhead of carrying
// and checking commitments with nobody cheating. The VSS-off malformed
// rows show why verification exists: the same attack with detection
// disabled silently corrupts the aggregate.
//
// Determinism: one unit per (configuration, trial) over
// metrics::parallel_for, every seed derived per unit, rows folded in
// unit order — output is byte-identical for any --jobs value.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/keystore.hpp"
#include "crypto/prng.hpp"
#include "ct/transport.hpp"
#include "fig1_common.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats.hpp"
#include "net/testbeds.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/simulator.hpp"

namespace mpciot::bench {

namespace {

using bench_core::Row;
using bench_core::Rows;
using bench_core::ScenarioContext;

/// derive_seed stream tags.
constexpr std::uint64_t kStreamBench = 0x41445630ull;      // "ADV0"
constexpr std::uint64_t kStreamAttackers = 0x4144564Eull;  // "ADVN"
constexpr std::uint64_t kStreamAdvCfg = 0x41445643ull;     // "ADVC"

/// One cell of the (attack kind, VSS, attacker fraction) axis.
struct AxisPoint {
  core::AttackKind kind = core::AttackKind::kNone;
  bool vss = false;
  double frac = 0.0;
  std::size_t frac_index = 0;  // pairs attacker sets across kinds
};

const char* attack_name(core::AttackKind kind) {
  switch (kind) {
    case core::AttackKind::kNone:
      return "none";
    case core::AttackKind::kMalformedShares:
      return "malformed";
    case core::AttackKind::kInconsistentShares:
      return "inconsistent";
    case core::AttackKind::kPollutedSums:
      return "polluted";
    case core::AttackKind::kJamSlots:
      return "jam";
  }
  return "?";
}

struct TrialRecord {
  double honest_success = 0.0;
  double success = 0.0;
  double latency_max_ms = 0.0;
  double radio_on_max_ms = 0.0;
  std::uint32_t shares_rejected = 0;
  std::uint32_t sums_rejected = 0;
  std::uint32_t detected = 0;
  std::uint32_t detectable = 0;
  std::uint32_t commit_bytes = 0;
};

struct Bench {
  const char* name = nullptr;
  net::Topology topo;
  std::uint32_t ntx = 6;
  std::unique_ptr<crypto::KeyStore> keys;
  core::ProtocolConfig base_cfg;  // S4, mid-size sources, wide holder slack
  std::uint64_t seed = 0;
};

/// The attacker subset of one (testbed, fraction, trial): a partial
/// Fisher–Yates over the node list, so sets are nested-ish across
/// fractions only by accident but identical across attack kinds.
std::vector<NodeId> pick_attackers(const Bench& bench,
                                   const AxisPoint& ax, std::uint32_t trial) {
  const std::size_t n = bench.topo.size();
  const auto count = static_cast<std::size_t>(
      ax.frac * static_cast<double>(n) + 1e-9);
  std::vector<NodeId> ids(n);
  for (NodeId i = 0; i < n; ++i) ids[i] = i;
  crypto::Xoshiro256 rng(crypto::derive_seed(
      bench.seed, kStreamAttackers,
      (static_cast<std::uint64_t>(ax.frac_index) << 32) | trial));
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(ids[i], ids[i + rng.next_below(n - i)]);
  }
  ids.resize(count);
  return ids;
}

TrialRecord run_one(const Bench& bench, const ct::Transport* transport,
                    const AxisPoint& ax, std::size_t axis_index,
                    std::uint32_t trial) {
  core::ProtocolConfig cfg = bench.base_cfg;
  cfg.feldman_vss = ax.vss;
  cfg.adversary.kind = ax.kind;
  cfg.adversary.attackers = pick_attackers(bench, ax, trial);
  cfg.adversary.seed = crypto::derive_seed(
      bench.seed, kStreamAdvCfg,
      (static_cast<std::uint64_t>(axis_index) << 32) | trial);
  const std::vector<NodeId> attackers = cfg.adversary.attackers;
  const core::SssProtocol proto(bench.topo, *bench.keys, std::move(cfg),
                                transport);

  sim::Simulator sim(metrics::trial_sim_seed(bench.seed, trial));
  const std::vector<field::Fp61> secrets = metrics::random_secrets(
      metrics::trial_secret_seed(bench.seed, trial),
      proto.config().sources.size());
  core::Session session(proto);
  const core::AggregationResult& res =
      *session.run_round(secrets, sim).flat;

  // Map attacker node ids onto the round's source-bit positions: bit s
  // of the cheater mask refers to the s-th entry of config().sources,
  // which is a strict subset of the node list here.
  std::vector<char> is_attacker(bench.topo.size(), 0);
  for (const NodeId a : attackers) is_attacker[a] = 1;
  const auto& sources = proto.config().sources;
  std::uint64_t attacker_source_bits = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (is_attacker[sources[s]]) {
      attacker_source_bits |= (std::uint64_t{1} << s);
    }
  }

  TrialRecord rec;
  rec.success = res.success_ratio();
  std::size_t honest = 0;
  std::size_t honest_ok = 0;
  for (NodeId i = 0; i < bench.topo.size(); ++i) {
    if (is_attacker[i]) continue;
    ++honest;
    if (res.nodes[i].has_aggregate && res.nodes[i].aggregate_correct) {
      ++honest_ok;
    }
  }
  rec.honest_success = honest == 0 ? 0.0
                                   : static_cast<double>(honest_ok) /
                                         static_cast<double>(honest);
  rec.latency_max_ms = static_cast<double>(res.max_latency_us()) / 1e3;
  rec.radio_on_max_ms = static_cast<double>(res.max_radio_on_us()) / 1e3;
  rec.shares_rejected = res.shares_rejected;
  rec.sums_rejected = res.sums_rejected;
  rec.commit_bytes = res.vss_commit_bytes;

  // Detection accounting. Misdealing kinds are caught per source;
  // polluted sums per attacker-held collector; jamming never surfaces
  // at the crypto layer (detectable stays 0 and the row reports 0).
  if (ax.kind == core::AttackKind::kMalformedShares ||
      ax.kind == core::AttackKind::kInconsistentShares) {
    // Only attackers that actually deal shares can misdeal.
    rec.detectable =
        static_cast<std::uint32_t>(std::popcount(attacker_source_bits));
    rec.detected = static_cast<std::uint32_t>(
        std::popcount(res.cheater_sources_mask & attacker_source_bits));
  } else if (ax.kind == core::AttackKind::kPollutedSums) {
    const auto& holders = proto.config().share_holders;
    std::uint64_t attacker_holder_bits = 0;
    for (std::size_t h = 0; h < holders.size(); ++h) {
      if (is_attacker[holders[h]]) {
        attacker_holder_bits |= (std::uint64_t{1} << h);
      }
    }
    rec.detectable =
        static_cast<std::uint32_t>(std::popcount(attacker_holder_bits));
    rec.detected = static_cast<std::uint32_t>(
        std::popcount(res.cheater_holders_mask & attacker_holder_bits));
  }
  return rec;
}

Rows run_adversary_sweep(const ScenarioContext& ctx) {
  const std::uint32_t reps = std::max<std::uint32_t>(ctx.reps, 1);

  // FlockLab-like office floor plus the sparser synthetic grid the
  // dynamics sweep uses. Holder slack is wide (12 beyond degree+1): at
  // 30% attackers the honest remainder of the holder set must still
  // reach the degree+1 quorum after cheater exclusion.
  constexpr std::size_t kHolderSlack = 12;
  std::vector<Bench> benches;
  benches.push_back({"flocklab", net::testbeds::flocklab(), 6, {}, {}, 0});
  benches.push_back(
      {"grid6x6",
       net::testbeds::grid(6, 6, /*spacing_m=*/12.0,
                           crypto::derive_seed(ctx.seed, 0x544F504Full, 36)),
       8,
       {},
       {},
       0});
  for (Bench& bench : benches) {
    // A fixed mid-size source set, like transport_matrix: the gossip
    // substrate cannot carry an all-sources S4 round on these testbeds
    // even with nobody cheating, and a dead baseline would make every
    // adversary effect in those cells unreadable.
    const std::vector<NodeId> sources = spread_sources(bench.topo.size(), 16);
    const std::size_t degree = core::paper_degree(sources.size());
    bench.keys = std::make_unique<crypto::KeyStore>(
        ctx.seed, static_cast<std::uint32_t>(bench.topo.size()));
    bench.base_cfg = core::make_s4_config(bench.topo, sources, degree,
                                          bench.ntx, kHolderSlack);
    bench.seed = crypto::derive_seed(
        ctx.seed, kStreamBench, static_cast<std::uint64_t>(bench.topo.size()));
  }

  // The axis: both baselines, the undetected-corruption control
  // (malformed with VSS off), then every attack kind under VSS across
  // the attacker fractions.
  const std::vector<double> fracs = {0.1, 0.2, 0.3};
  std::vector<AxisPoint> axis;
  axis.push_back({core::AttackKind::kNone, false, 0.0, 0});
  axis.push_back({core::AttackKind::kNone, true, 0.0, 0});
  for (std::size_t f = 0; f < fracs.size(); ++f) {
    axis.push_back(
        {core::AttackKind::kMalformedShares, false, fracs[f], f + 1});
  }
  for (const core::AttackKind kind :
       {core::AttackKind::kMalformedShares,
        core::AttackKind::kInconsistentShares,
        core::AttackKind::kPollutedSums, core::AttackKind::kJamSlots}) {
    for (std::size_t f = 0; f < fracs.size(); ++f) {
      axis.push_back({kind, true, fracs[f], f + 1});
    }
  }

  const std::vector<std::string> transport_names = ct::transport_names();
  std::vector<std::unique_ptr<ct::Transport>> transports;
  transports.reserve(transport_names.size());
  for (const std::string& name : transport_names) {
    transports.push_back(ct::make_transport(name));
  }

  struct Point {
    const Bench* bench = nullptr;
    std::size_t transport = 0;
    std::size_t axis = 0;
  };
  std::vector<Point> points;
  for (const Bench& bench : benches) {
    for (std::size_t t = 0; t < transports.size(); ++t) {
      for (std::size_t a = 0; a < axis.size(); ++a) {
        points.push_back(Point{&bench, t, a});
      }
    }
  }

  const std::size_t units = points.size() * reps;
  std::vector<TrialRecord> records(units);
  const unsigned jobs =
      metrics::resolve_jobs(ctx.jobs, static_cast<std::uint32_t>(units));
  metrics::parallel_for(units, jobs, [&](std::size_t unit) {
    const Point& point = points[unit / reps];
    records[unit] = run_one(*point.bench, transports[point.transport].get(),
                            axis[point.axis], point.axis,
                            static_cast<std::uint32_t>(unit % reps));
  });

  Rows rows;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& point = points[p];
    const AxisPoint& ax = axis[point.axis];
    metrics::Summary honest_success;
    metrics::Summary success;
    metrics::Summary latency;
    metrics::Summary radio;
    double shares_rej = 0.0;
    double sums_rej = 0.0;
    std::uint64_t detected = 0;
    std::uint64_t detectable = 0;
    std::uint32_t commit_bytes = 0;
    for (std::uint32_t t = 0; t < reps; ++t) {
      const TrialRecord& rec = records[p * reps + t];
      honest_success.add(rec.honest_success);
      success.add(rec.success);
      latency.add(rec.latency_max_ms);
      radio.add(rec.radio_on_max_ms);
      shares_rej += rec.shares_rejected;
      sums_rej += rec.sums_rejected;
      detected += rec.detected;
      detectable += rec.detectable;
      commit_bytes = rec.commit_bytes;
    }
    Row row;
    row.set("testbed", point.bench->name)
        .set("transport", transport_names[point.transport])
        .set("attack", attack_name(ax.kind))
        .set("vss", static_cast<std::uint64_t>(ax.vss ? 1 : 0))
        .set("attacker_pct", round3(ax.frac * 100))
        .set("detect_pct",
             round3(detectable == 0 ? 0.0
                                    : 100.0 * static_cast<double>(detected) /
                                          static_cast<double>(detectable)))
        .set("honest_success_pct", round3(honest_success.mean() * 100))
        .set("success_pct", round3(success.mean() * 100))
        .set("latency_ms", round3(latency.mean()))
        .set("max_radio_on_ms", round3(radio.mean()))
        .set("shares_rejected", round3(shares_rej / reps))
        .set("sums_rejected", round3(sums_rej / reps))
        .set("commit_bytes", static_cast<std::uint64_t>(commit_bytes));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

void register_adversary_sweep(bench_core::Registry& registry) {
  registry.add(bench_core::ScenarioSpec{
      "adversary_sweep",
      "Byzantine attacks (malformed/equivocating shares, polluted sums, "
      "jamming) vs Feldman-VSS cheater detection across testbeds and "
      "transports",
      /*default_reps=*/10,
      /*deterministic=*/true,
      /*param_names=*/{}, run_adversary_sweep});
}

}  // namespace mpciot::bench
