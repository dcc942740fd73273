#include "core/session.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "crypto/prng.hpp"

namespace mpciot::core {

namespace {

/// derive_seed stream tag of the flat session's rotated keystores.
constexpr std::uint64_t kStreamSessionKeys = 0x53455353ull;  // "SESS"

}  // namespace

Session::Session(const SssProtocol& protocol, SessionConfig config)
    : flat_(&protocol),
      config_(config),
      next_round_(config.first_round),
      flat_ws_(std::make_unique<RoundWorkspace>()) {
  config_.rounds_per_epoch = std::clamp<std::uint32_t>(
      config_.rounds_per_epoch, 1, 1u << 16);
}

Session::Session(const HierarchicalProtocol& protocol, SessionConfig config)
    : hier_(&protocol),
      config_(config),
      next_round_(config.first_round),
      hier_ws_(std::make_unique<HierWorkspace>()) {
  const std::uint32_t batches = protocol.max_round_batches();
  MPCIOT_REQUIRE(batches <= (1u << 16),
                 "session: group batch count exceeds the wire-round window");
  const std::uint32_t cap = std::max(1u, (1u << 16) / batches);
  config_.rounds_per_epoch =
      std::clamp<std::uint32_t>(config_.rounds_per_epoch, 1, cap);
}

std::size_t Session::secret_count() const {
  return flat_ != nullptr ? flat_->config().sources.size()
                          : hier_->topo_->size();
}

const crypto::KeyStore* Session::flat_epoch_keys(std::uint32_t epoch) {
  if (epoch == 0) return nullptr;  // the construction keystore
  if (epoch_keys_ == nullptr || cached_epoch_ != epoch) {
    epoch_keys_ = std::make_unique<crypto::KeyStore>(
        crypto::derive_seed(config_.rotation_seed, kStreamSessionKeys, epoch),
        flat_->keys_->node_count());
    cached_epoch_ = epoch;
  }
  return epoch_keys_.get();
}

const RoundReport& Session::run_round(const std::vector<field::Fp61>& secrets,
                                      sim::Simulator& sim) {
  RoundEnv env;
  env.channel_model = sim.channel_model();
  env.liveness = sim.liveness();
  return run_round_at(secrets, sim, env);
}

const RoundReport& Session::run_round_at(
    const std::vector<field::Fp61>& secrets, sim::Simulator& sim,
    RoundEnv env) {
  const std::uint32_t round = next_round_;
  ++next_round_;
  MPCIOT_REQUIRE(next_round_ != 0, "session: round counter exhausted");
  const std::uint32_t epoch = round / config_.rounds_per_epoch;
  const std::uint32_t r_in_epoch = round % config_.rounds_per_epoch;

  // A (key epoch, round) pair keys the AES-CTR nonces; reissuing one
  // would replay a keystream. The counter above is monotone by
  // construction — this guard pins that invariant in debug builds.
  const std::uint64_t issued =
      (static_cast<std::uint64_t>(epoch) << 32) | r_in_epoch;
  MPCIOT_DCHECK(last_issued_ == kNoneIssued || issued > last_issued_,
                "session: (key epoch, round) id reused");
  last_issued_ = issued;

  env.round = r_in_epoch;
  env.key_epoch = epoch;
  report_.round = round;
  report_.key_epoch = epoch;
  report_.start_us = env.start_time_us;
  if (flat_ != nullptr) {
    env.keys = flat_epoch_keys(epoch);
    const AggregationResult& r = flat_->run_round(secrets, sim, env, *flat_ws_);
    report_.flat = &r;
    report_.hier = nullptr;
    report_.success_ratio = r.success_ratio();
    report_.ok = report_.success_ratio > 0.0;
    report_.duration_us = r.total_duration_us;
    report_.end_us = env.start_time_us + r.total_duration_us;
  } else {
    const HierarchicalResult& r =
        hier_->run_round(secrets, sim, env, *hier_ws_);
    report_.flat = nullptr;
    report_.hier = &r;
    report_.success_ratio = r.success_ratio();
    report_.ok = r.has_aggregate && r.aggregate_correct;
    report_.duration_us = r.total_duration_us;
    report_.end_us = r.round_end_us;
  }
  return report_;
}

}  // namespace mpciot::core
