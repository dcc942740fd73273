// Deterministic deployment planning shared by the coordinator, the
// node daemons, and the tests: everything is a pure function of
// (deployment_seed, node_count), so every party independently computes
// the same placements, group specs, and per-round secrets — the
// distributed runtime never ships a topology over the wire, only the
// compact Assign lists.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/roles.hpp"
#include "field/fp61.hpp"

namespace mpciot::rt {

/// Seed-derivation stream tags of the rt layer (see crypto::derive_seed).
inline constexpr std::uint64_t kStreamPlacement = 0x52545450ull;  // "RTTP"
inline constexpr std::uint64_t kStreamSecret = 0x52545343ull;     // "RTSC"

/// The plan of one deployment: nodes partitioned into aggregation
/// groups, each group a self-contained share+sum round (sources ==
/// holders, S3 style). Groups are capped at 64 sources (the SumPacket
/// contributor bitmap width) and sized toward ~48 nodes.
struct DeploymentPlan {
  std::vector<core::roles::RoundSpec> groups;
  std::vector<std::uint32_t> group_of;  ///< node -> group index
};

/// Compute the plan for `node_count` nodes: place them uniformly at
/// constant density (seeded by `deployment_seed`), partition with
/// net::partition::grid_blocks, and derive each group's Shamir degree
/// (max(1, min(2, group_size - 2)): at most 3 sums reconstruct, and any
/// group of >= 3 members survives one holder crash).
/// Deterministic: same inputs, same plan, on every host.
DeploymentPlan plan_deployment(std::uint64_t deployment_seed,
                               std::uint32_t node_count);

/// The secret node `node` contributes in round `round` — a pure
/// function all parties compute locally, which is what lets the
/// coordinator (and tests) check the reconstructed aggregate against
/// the exact expected sum without any side channel.
field::Fp61 deterministic_secret(std::uint64_t deployment_seed,
                                 std::uint32_t round, NodeId node);

/// Sum of deterministic_secret over the sources of `spec` selected by
/// `contributor_mask` (bit i -> spec.sources[i]).
field::Fp61 expected_sum(std::uint64_t deployment_seed, std::uint32_t round,
                         const core::roles::RoundSpec& spec,
                         std::uint64_t contributor_mask);

}  // namespace mpciot::rt
