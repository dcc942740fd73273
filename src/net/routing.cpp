#include "net/routing.hpp"

namespace mpciot::net::routing {

namespace {

/// next_hop that steers around blocked relays: first unblocked
/// equal-cost candidate on the good-link shortest path, kInvalidNode
/// when every candidate is blocked. Identical to next_hop for a null
/// or empty mask. `down_at` (with `env`) additionally skips relays that
/// are churn-down at that instant — but never the destination itself,
/// whose downness is resolved per attempt by the ack.
NodeId next_hop_avoiding(const Topology& topo, NodeId from, NodeId dst,
                         const std::vector<char>* blocked,
                         const WalkEnv* env = nullptr, SimTime down_at = 0) {
  if (from == dst) return dst;
  const std::uint32_t d = topo.hops(from, dst);
  if (d == Topology::kInvalidHops) return kInvalidNode;
  for (NodeId nb : topo.neighbors(from)) {
    if (topo.prr(from, nb) < 0.5) continue;
    // Guard before the +1: a good-link-partitioned neighbour reports
    // kInvalidHops (UINT32_MAX), which the arithmetic would wrap to 0.
    const std::uint32_t nb_hops = topo.hops(nb, dst);
    if (nb_hops == Topology::kInvalidHops || nb_hops + 1 != d) continue;
    if (blocked != nullptr && !blocked->empty() && (*blocked)[nb] != 0) {
      continue;
    }
    if (env != nullptr && env->liveness != nullptr && nb != dst &&
        env->liveness->is_down(nb, down_at)) {
      continue;
    }
    return nb;
  }
  return kInvalidNode;
}

}  // namespace

NodeId next_hop(const Topology& topo, NodeId from, NodeId dst) {
  return next_hop_avoiding(topo, from, dst, nullptr);
}

HopTiming hop_timing(const RadioParams& radio, std::uint32_t payload_bytes,
                     const MacParams& mac) {
  const SimTime data_us = radio.airtime_us(payload_bytes);
  const SimTime ack_us = radio.airtime_us(mac.ack_payload_bytes);
  HopTiming timing;
  timing.exchange_us =
      data_us + radio.turnaround_us + ack_us + radio.turnaround_us;
  timing.hop_us = mac.wakeup_interval_us / 2 + timing.exchange_us;
  return timing;
}

bool walk_route(const Topology& topo, NodeId src, NodeId dst,
                const HopTiming& timing, std::uint32_t max_retries_per_hop,
                crypto::Xoshiro256& rng, std::vector<SimTime>& radio_on_us,
                SimTime& elapsed_us, std::vector<std::uint32_t>* tx_count,
                const std::vector<char>* blocked, const WalkEnv* env) {
  const LivenessModel* churn = env != nullptr ? env->liveness : nullptr;
  const auto now = [&] {
    return (env != nullptr ? env->base_us : 0) + elapsed_us;
  };
  NodeId at = src;
  while (at != dst) {
    // A sender that crashed mid-walk drops the message where it stands.
    if (churn != nullptr && churn->is_down(at, now())) return false;
    const NodeId hop = next_hop_avoiding(topo, at, dst, blocked, env, now());
    if (hop == kInvalidNode) return false;
    const double prr = topo.prr(at, hop);
    bool hop_ok = false;
    for (std::uint32_t attempt = 0; attempt <= max_retries_per_hop;
         ++attempt) {
      // One attempt occupies the (single) channel for the rendezvous
      // strobe plus data + ack airtime; the receiver's radio only opens
      // for the actual exchange.
      elapsed_us += timing.hop_us;
      radio_on_us[at] += timing.hop_us;
      if (tx_count != nullptr) ++(*tx_count)[at];
      if (churn != nullptr && churn->is_down(hop, now())) {
        // Dead ear: no exchange, no ack, no randomness consumed — the
        // sender just burns the strobe and retries.
        continue;
      }
      radio_on_us[hop] += timing.exchange_us;
      double p = prr;
      if (env != nullptr && env->view != nullptr) {
        env->view->seek(now());
        p = env->view->prr(at, hop);
      }
      // A deaf receiver opens its radio but decodes nothing: p = 0 draws
      // no randomness.
      if (churn != nullptr && churn->is_deaf(hop, now())) p = 0.0;
      if (rng.next_bool(p)) {
        hop_ok = true;
        break;
      }
    }
    if (!hop_ok) return false;
    at = hop;
  }
  return true;
}

}  // namespace mpciot::net::routing
