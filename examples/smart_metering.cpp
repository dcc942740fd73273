// Smart-metering district: the classic PPDA motivating scenario.
//
// 45 meters (DCube-class deployment) report 15-minute consumption
// readings. The utility needs the *district total* for load forecasting;
// individual readings reveal occupancy patterns and must stay private.
// The example runs several consecutive S4 billing rounds, shows that the
// utility-visible aggregate matches the true total while no single point
// of the system ever holds a plaintext reading, and prints the energy
// bill of privacy (radio-on per round).
//
//   $ ./smart_metering [rounds] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/keystore.hpp"
#include "metrics/experiment.hpp"
#include "net/testbeds.hpp"
#include "sim/simulator.hpp"

using namespace mpciot;

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2024;

  const net::Topology district = net::testbeds::dcube();
  const crypto::KeyStore keys(seed, district.size());
  std::vector<NodeId> meters(district.size());
  for (NodeId i = 0; i < district.size(); ++i) meters[i] = i;

  // Collusion threshold n/3: even 15 compromised meters learn nothing.
  const std::size_t degree = core::paper_degree(meters.size());
  std::printf("district: %zu meters, privacy threshold: %zu colluders\n",
              meters.size(), degree);

  // One protocol + one session for the whole billing stream: the
  // session issues the monotone round ids (fresh AES-CTR nonces every
  // round) that used to require rebuilding the protocol per round.
  const core::SssProtocol billing(
      district, keys,
      core::make_s4_config(district, meters, degree, /*ntx_low=*/5));
  core::Session session(billing);

  double total_radio_ms = 0.0;
  for (int round = 0; round < rounds; ++round) {
    // Simulated consumption in watt-hours for this 15-minute window.
    sim::Simulator sim(seed + static_cast<std::uint64_t>(round));
    std::vector<field::Fp61> readings;
    crypto::Xoshiro256 load_rng(seed * 31 + static_cast<std::uint64_t>(round));
    std::uint64_t true_total = 0;
    for (std::size_t i = 0; i < meters.size(); ++i) {
      const std::uint64_t wh = 50 + load_rng.next_below(400);
      true_total += wh;
      readings.emplace_back(wh);
    }

    const core::AggregationResult& res =
        *session.run_round(readings, sim).flat;
    const auto& head_end = res.nodes[district.center_node()];
    std::printf(
        "round %d: utility sees %llu Wh (true %llu) | %.0f%% of nodes "
        "aggregated | %.1f ms latency | %.1f ms radio-on (max node)\n",
        round,
        head_end.has_aggregate
            ? static_cast<unsigned long long>(head_end.aggregate.value())
            : 0ull,
        static_cast<unsigned long long>(true_total),
        res.success_ratio() * 100.0,
        static_cast<double>(res.max_latency_us()) / 1e3,
        static_cast<double>(res.max_radio_on_us()) / 1e3);
    total_radio_ms += static_cast<double>(res.max_radio_on_us()) / 1e3;
  }

  // The energy bill of privacy: radio-on translated to charge.
  const double per_round_ms = total_radio_ms / rounds;
  constexpr double kRxCurrentMa = 6.5;  // nRF52840 radio RX @ 0 dBm class
  const double charge_mc = per_round_ms / 1e3 * kRxCurrentMa;
  std::printf(
      "\nprivacy overhead: ~%.0f ms radio-on per 15-min round (~%.2f mC, "
      "~%.4f%% duty cycle) — sustainable on a coin cell.\n",
      per_round_ms, charge_mc, per_round_ms / (15.0 * 60.0 * 1000.0) * 100.0);
  return 0;
}
