// Multi-hop unicast routing over the topology's good-link shortest
// paths, with the stop-and-wait ARQ + duty-cycled rendezvous timing of a
// ContikiMAC-class low-power stack. Used by the unicast transport behind
// the ct::Transport seam, which carries the non-CT SSS baseline.
//
// Single collision domain: transmissions serialize network-wide, so a
// walk simply accumulates elapsed airtime (conservative for dense indoor
// testbeds, documented in DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "crypto/prng.hpp"
#include "net/channel_model.hpp"
#include "net/topology.hpp"

namespace mpciot::net::routing {

/// Next hop on a shortest good-link (prr >= 0.5) path from `from` to
/// `dst`, or kInvalidNode when unreachable over good links.
NodeId next_hop(const Topology& topo, NodeId from, NodeId dst);

/// MAC parameters of the duty-cycled unicast stack.
struct MacParams {
  std::uint32_t max_retries_per_hop = 8;
  std::uint32_t ack_payload_bytes = 2;
  /// Receiver wake-up interval (ContikiMAC default: 8 Hz). A sender
  /// strobes for half of it on average before the receiver's ear opens.
  SimTime wakeup_interval_us = 125000;
};

/// Timing of one hop attempt, derived from radio + MAC parameters.
struct HopTiming {
  /// Data + ack airtime with turnarounds: the span the receiver's radio
  /// is actually open.
  SimTime exchange_us = 0;
  /// Rendezvous strobe plus the exchange: the span the sender is busy
  /// (and the channel occupied) per attempt.
  SimTime hop_us = 0;
};
HopTiming hop_timing(const RadioParams& radio, std::uint32_t payload_bytes,
                     const MacParams& mac);

/// Walk one message src -> dst hop by hop. Every attempt draws
/// Bernoulli(link PRR) from `rng`, charges the hop sender `hop_us` and
/// the hop receiver `exchange_us` of radio-on time, advances
/// `elapsed_us` by `hop_us`, and (when `tx_count` is non-null) counts
/// one transmission for the hop sender. Gives up after
/// `max_retries_per_hop` failed retries on any hop, or when no good-link
/// route exists (which consumes neither time nor randomness). Returns
/// true on delivery.
///
/// Dynamics environment of a walk: maps the walk's local `elapsed_us`
/// onto the trial clock (base_us + elapsed) and supplies the
/// time-varying PRR view and/or churn schedule there. Per hop attempt,
/// the view is seeked to the current time and the link PRR re-read; a
/// hop receiver that is down cannot ack (the attempt fails without
/// consuming randomness, the sender still pays strobe + retry time),
/// down relays are routed around like `blocked` ones, and a deaf hop
/// receiver opens its radio for the exchange but decodes with p = 0.
struct WalkEnv {
  SimTime base_us = 0;
  ChannelView* view = nullptr;
  const LivenessModel* liveness = nullptr;
};

/// `blocked` (optional, one flag per node) marks dead relays: a blocked
/// next hop is skipped in favour of an equal-cost alternative on the
/// good-link shortest path, and the message is dropped when none
/// exists — dead nodes never forward and are never charged radio time.
bool walk_route(const Topology& topo, NodeId src, NodeId dst,
                const HopTiming& timing, std::uint32_t max_retries_per_hop,
                crypto::Xoshiro256& rng, std::vector<SimTime>& radio_on_us,
                SimTime& elapsed_us,
                std::vector<std::uint32_t>* tx_count = nullptr,
                const std::vector<char>* blocked = nullptr,
                const WalkEnv* env = nullptr);

}  // namespace mpciot::net::routing
