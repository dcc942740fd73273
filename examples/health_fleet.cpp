// Hospital-ward wearables: privacy-preserving vitals statistics.
//
// A 26-node ward (FlockLab-class) of wearable sensors computes the *mean
// heart rate* of the ward without any device, gateway or nurse station
// learning an individual patient's reading — HIPAA-style aggregate
// monitoring. Demonstrates:
//   * sub-selection of sources (only 10 wearables participate; the other
//     nodes relay),
//   * computing a mean from the private sum (public divisor),
//   * what a collusion of `degree` holders can and cannot learn, using
//     the adversary module.
//
//   $ ./health_fleet [seed]
#include <cstdio>
#include <cstdlib>

#include "core/adversary.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/keystore.hpp"
#include "net/testbeds.hpp"
#include "sim/simulator.hpp"

using namespace mpciot;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  const net::Topology ward = net::testbeds::flocklab();
  const crypto::KeyStore keys(seed, ward.size());

  // Ten wearables spread across the ward; the rest are relays/infra.
  const std::vector<NodeId> wearables{0, 3, 5, 8, 11, 14, 17, 20, 22, 23};
  const std::size_t degree = core::paper_degree(wearables.size());

  auto cfg = core::make_s4_config(ward, wearables, degree, /*ntx_low=*/6);
  const core::SssProtocol vitals(ward, keys, cfg);
  std::printf("ward: %zu nodes, %zu wearables, degree %zu, %zu holders\n",
              ward.size(), wearables.size(), degree,
              cfg.share_holders.size());

  // Heart rates (bpm).
  crypto::Xoshiro256 body_rng(seed * 13);
  std::vector<field::Fp61> heart_rates;
  std::uint64_t true_sum = 0;
  std::printf("readings (private): ");
  for (std::size_t i = 0; i < wearables.size(); ++i) {
    const std::uint64_t bpm = 58 + body_rng.next_below(50);
    true_sum += bpm;
    heart_rates.emplace_back(bpm);
    std::printf("%llu ", static_cast<unsigned long long>(bpm));
  }
  std::printf("\n");

  sim::Simulator sim(seed);
  core::Session session(vitals);
  const core::AggregationResult& res =
      *session.run_round(heart_rates, sim).flat;

  const auto& station = res.nodes[ward.center_node()];
  if (!station.has_aggregate) {
    std::printf("nurse station did not obtain the aggregate this round\n");
    return 1;
  }
  const double mean_bpm = static_cast<double>(station.aggregate.value()) /
                          static_cast<double>(wearables.size());
  std::printf("nurse station: ward mean heart rate %.1f bpm "
              "(true mean %.1f) after %.0f ms\n",
              mean_bpm,
              static_cast<double>(true_sum) /
                  static_cast<double>(wearables.size()),
              static_cast<double>(station.latency_us) / 1e3);

  // What could `degree` colluding share-holders learn about patient 0?
  // (The dealer stream of round 0, the session's first round.)
  crypto::CtrDrbg drbg(sim.seed(), 0x5EC0000000000000ull | wearables[0]);
  const core::ShamirDealer patient0(heart_rates[0], degree, drbg);
  core::CollusionView coalition;
  coalition.dealer = wearables[0];
  for (std::size_t i = 0; i < degree; ++i) {
    coalition.observed_shares.push_back(
        patient0.share_for(cfg.share_holders[i]));
  }
  const bool consistent_with_60 =
      core::consistent_polynomial_for(coalition, degree, field::Fp61{60})
          .has_value();
  const bool consistent_with_180 =
      core::consistent_polynomial_for(coalition, degree, field::Fp61{180})
          .has_value();
  std::printf(
      "coalition of %zu holders: patient 0 could be at 60 bpm (%s) or "
      "180 bpm (%s) — the shares reveal nothing.\n",
      degree, consistent_with_60 ? "consistent" : "inconsistent",
      consistent_with_180 ? "consistent" : "inconsistent");
  std::printf("a coalition of %zu holders, however, would reconstruct "
              "exactly (threshold k+1 = %zu).\n",
              degree + 1, degree + 1);
  return 0;
}
