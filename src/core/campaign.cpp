#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace mpciot::core {

double CampaignResult::aggregates_per_sec() const {
  if (makespan_us <= 0) return 0.0;
  return static_cast<double>(rounds) /
         (static_cast<double>(makespan_us) * 1e-6);
}

SimTime CampaignResult::latency_percentile_us(double q) const {
  if (round_latency_us.empty()) return 0;
  std::vector<SimTime> sorted = round_latency_us;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const std::size_t rank = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(std::ceil(clamped * sorted.size())) == 0
          ? 0
          : static_cast<std::size_t>(std::ceil(clamped * sorted.size())) - 1);
  return sorted[rank];
}

double CampaignResult::pipeline_speedup() const {
  if (makespan_us <= 0) return 0.0;
  return static_cast<double>(serial_us) / static_cast<double>(makespan_us);
}

Campaign::Campaign(Session& session, CampaignConfig config)
    : session_(&session), config_(config) {
  MPCIOT_REQUIRE(config_.rounds >= 1, "campaign: need at least one round");
}

const CampaignResult& Campaign::run(
    sim::Simulator& sim,
    const std::function<void(std::uint32_t, std::vector<field::Fp61>&)>&
        fill) {
  Session& session = *session_;
  result_.rounds = config_.rounds;
  result_.rounds_ok = 0;
  result_.makespan_us = 0;
  result_.serial_us = 0;
  result_.mean_success_ratio = 0.0;
  result_.round_latency_us.clear();
  result_.round_latency_us.reserve(config_.rounds);
  result_.round_ok.clear();
  result_.round_ok.reserve(config_.rounds);

  secrets_.assign(session.secret_count(), field::Fp61{});

  // Pipelined hierarchical streams book every round on one persistent
  // timeline; its channel ends are absolute trial-clock times, so
  // clearing it aligns lane zero-points with the campaign start.
  ct::ChannelTimeline* timeline = nullptr;
  const bool pipelined = config_.pipelined && session.hierarchical();
  if (pipelined) {
    timeline_.resize(static_cast<std::uint16_t>(
        session.hier_->config().num_channels + 1));
    timeline = &timeline_;
  }

  SimTime submit = 0;
  SimTime end = 0;
  double success_accum = 0.0;
  for (std::uint32_t r = 0; r < config_.rounds; ++r) {
    fill(r, secrets_);
    RoundEnv env;
    env.start_time_us = submit;
    env.channel_model = sim.channel_model();
    env.liveness = sim.liveness();
    env.timeline = timeline;
    const RoundReport& rep = session.run_round_at(secrets_, sim, env);
    result_.round_latency_us.push_back(rep.end_us - submit);
    result_.round_ok.push_back(rep.ok ? 1 : 0);
    if (rep.ok) ++result_.rounds_ok;
    success_accum += rep.success_ratio;
    result_.serial_us += rep.duration_us;
    end = std::max(end, rep.end_us);
    // Next round's submit time. Sequential: when this round's result
    // flood finished. Pipelined: when this round's group phase freed
    // the group lanes — its floods keep draining on the flood lane
    // while the next round's sharing chains run.
    if (pipelined && rep.hier != nullptr) {
      submit = rep.hier->round_start_us + rep.hier->group_phase_us;
    } else {
      submit = rep.end_us;
    }
  }
  result_.makespan_us = end;
  result_.mean_success_ratio =
      success_accum / static_cast<double>(config_.rounds);
  return result_;
}

}  // namespace mpciot::core
