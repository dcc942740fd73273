// Radio timing and propagation model for an nRF52840-class
// IEEE 802.15.4 radio (250 kbit/s, 32 us per byte), which is what the
// paper's Contiki port runs on.
//
// Propagation is log-distance path loss with per-link lognormal
// shadowing; packet reception rate (PRR) follows a logistic curve on
// received power, which reproduces the sharp-but-soft reception edge of
// real testbed links (good core, unstable fringe).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace mpciot::net {

struct RadioParams {
  // --- timing (802.15.4 @ 250 kbit/s) ---
  SimTime us_per_byte = 32;
  /// PHY overhead: 4B preamble + 1B SFD + 1B length.
  std::uint32_t phy_overhead_bytes = 6;
  /// MAC/CRC overhead carried by every sub-slot packet.
  std::uint32_t mac_overhead_bytes = 9;
  /// RX/TX turnaround + guard between sub-slots (12 symbols = 192 us,
  /// padded for software latency, per Glossy/MiniCast slot budgets).
  SimTime turnaround_us = 208;

  // --- propagation ---
  double tx_power_dbm = 0.0;        // nRF52840 default
  double path_loss_at_1m_db = 40.0; // 2.4 GHz reference loss
  double path_loss_exponent = 3.5;  // indoor office with walls
  double shadowing_sigma_db = 4.5;  // per-link, frozen at deployment
  /// Logistic PRR curve: PRR(rssi) = 1 / (1 + exp(-(rssi - mid)/width)).
  double prr_mid_dbm = -87.0;
  double prr_width_db = 1.5;
  /// Links with static PRR below this are treated as nonexistent.
  double link_floor_prr = 0.05;

  // --- concurrent transmissions ---
  /// Extra success probability factor when >= 2 synchronized transmitters
  /// send identical bytes (constructive interference / capture): the
  /// effective loss is the product of per-link losses, scaled by this
  /// correlation factor (1 = fully independent, > 1 = worse than
  /// independent because timing offsets correlate failures).
  double ct_loss_correlation = 1.2;
  /// Power advantage (dB) required for capture when payloads differ.
  double capture_threshold_db = 3.0;
  /// Probability that a trigger-ready node misses its transmit slot
  /// (packet-detection failure / Rx-Tx turnaround miss) and listens
  /// instead. Besides being physically real, this is what breaks the
  /// phase-locked cliques dense CT networks otherwise fall into (whole
  /// neighbourhoods transmitting on the same parity never hear each
  /// other).
  double tx_defer_prob = 0.15;

  /// Airtime of a packet with `payload_bytes` of MAC payload.
  SimTime airtime_us(std::uint32_t payload_bytes) const {
    return static_cast<SimTime>(
        (phy_overhead_bytes + mac_overhead_bytes + payload_bytes) *
        static_cast<std::uint32_t>(us_per_byte));
  }

  /// Full sub-slot duration (airtime + turnaround/guard).
  SimTime subslot_us(std::uint32_t payload_bytes) const {
    return airtime_us(payload_bytes) + turnaround_us;
  }

  /// Received power over a link of length `distance_m` with frozen
  /// shadowing `shadow_db`.
  double rx_power_dbm(double distance_m, double shadow_db) const;

  /// Static PRR for a given received power.
  double prr_from_rssi(double rssi_dbm) const;
};

}  // namespace mpciot::net
