// Simulation context of one experiment run: the run's RNG streams plus
// its dynamics environment (channel model, churn schedule).
//
// Protocol code takes a Simulator& and never touches wall-clock time or
// global RNGs, which keeps runs deterministic and parallelizable at the
// process level. Rounds carry their own start time on the trial clock
// (core::RoundEnv); the simulator holds no clock of its own.
#pragma once

#include <cstdint>

#include "crypto/prng.hpp"
#include "net/channel_model.hpp"

namespace mpciot::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  /// Channel/link randomness (statistical PRNG).
  crypto::Xoshiro256& channel_rng() { return channel_rng_; }

  /// Per-node secret randomness stream, domain-separated by node id.
  crypto::CtrDrbg secret_rng(std::uint32_t node_id) const {
    return crypto::CtrDrbg{seed_, 0x5EC0000000000000ull | node_id};
  }

  std::uint64_t seed() const { return seed_; }

  /// Time-varying channel model of this run; null = the frozen static
  /// snapshot. Owned by the caller (typically a per-trial
  /// sim::dynamics::LinkDynamics) and must outlive the run. Protocols
  /// read it here and thread it into every transport round.
  void set_channel_model(const net::ChannelModel* model) {
    channel_model_ = model;
  }
  const net::ChannelModel* channel_model() const { return channel_model_; }

  /// Node crash/recover schedule of this run; null = no churn. Owned by
  /// the caller (typically a per-trial sim::dynamics::NodeChurn).
  void set_liveness(const net::LivenessModel* liveness) {
    liveness_ = liveness;
  }
  const net::LivenessModel* liveness() const { return liveness_; }

 private:
  std::uint64_t seed_;
  crypto::Xoshiro256 channel_rng_;
  const net::ChannelModel* channel_model_ = nullptr;
  const net::LivenessModel* liveness_ = nullptr;
};

}  // namespace mpciot::sim
