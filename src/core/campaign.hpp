// Campaign: streaming back-to-back aggregation rounds over one Session.
//
// A single aggregation answers "what is the sum right now"; a deployed
// network asks it continuously — one aggregate per sensing period,
// sustained for the deployment's lifetime. A Campaign drives a Session
// through N such rounds and measures the stream, not the round:
// aggregates per second, per-round submit-to-result latency, and how
// much wall-clock the stream saved over running the rounds strictly
// one after another.
//
// The saving comes from pipelining (hierarchical sessions): group
// phases of consecutive rounds book on the same persistent
// ct::ChannelTimeline, while each round's recombination + result
// floods serialize on a dedicated flood lane. Round r+1's sharing
// chains start the moment the group channels free up — while round r's
// floods are still draining — exactly the overlap a TDMA deployment
// with per-group channel allocations achieves. Flat sessions have a
// single chain occupying the whole band, so their campaign is the
// sequential baseline by construction.
//
// Secrets are produced per round by a caller-supplied fill function
// writing into a campaign-owned buffer, so the steady-state loop adds
// no per-round allocation of its own on top of the Session's
// zero-allocation round path.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "core/session.hpp"
#include "ct/transport.hpp"
#include "field/fp61.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {

struct CampaignConfig {
  /// Rounds to stream.
  std::uint32_t rounds = 16;
  /// Hierarchical sessions: overlap consecutive rounds on a persistent
  /// channel timeline (group lanes + one flood lane). Off = strictly
  /// sequential rounds, the round-at-a-time baseline. Ignored by flat
  /// sessions (one chain occupies the whole band either way).
  bool pipelined = true;
};

struct CampaignResult {
  std::uint32_t rounds = 0;
  std::uint32_t rounds_ok = 0;
  /// Submit of round 0 to result-flood end of the last round.
  SimTime makespan_us = 0;
  /// Sum of per-round work durations (the sequential cost).
  SimTime serial_us = 0;
  double mean_success_ratio = 0.0;
  /// Per round: submit-to-result latency and whether it produced a
  /// correct aggregate.
  std::vector<SimTime> round_latency_us;
  std::vector<char> round_ok;

  /// Sustained throughput of the stream.
  double aggregates_per_sec() const;
  /// Latency quantile over the rounds (q in [0, 1], nearest-rank).
  SimTime latency_percentile_us(double q) const;
  /// serial_us / makespan_us: > 1 iff pipelining overlapped rounds.
  double pipeline_speedup() const;
};

class Campaign {
 public:
  /// The session (and the protocol under it) must outlive the campaign.
  explicit Campaign(Session& session, CampaignConfig config = {});

  /// Stream config.rounds rounds. `fill(round, secrets)` writes round
  /// r's secrets into the campaign-owned buffer (pre-sized to the
  /// session's secret_count) before the round runs. The first round is
  /// submitted at time 0 of the trial clock. Returns the campaign
  /// metrics (valid until the next run on this campaign).
  const CampaignResult& run(
      sim::Simulator& sim,
      const std::function<void(std::uint32_t, std::vector<field::Fp61>&)>&
          fill);

 private:
  Session* session_;
  CampaignConfig config_;
  /// Persistent pipelined timeline: group channels + one flood lane.
  ct::ChannelTimeline timeline_{1};
  std::vector<field::Fp61> secrets_;
  CampaignResult result_;
};

}  // namespace mpciot::core
