// The round kernel: the single-node phases of one share+sum round. Both
// runtimes drive these roles — SssProtocol plays every node of a
// simulated round through them, while the rt layer's node daemon and
// coordinator each play one role per phase over real sockets — so
// point-sum accumulation, contributor-mask selection and Lagrange
// reconstruction exist exactly once.
//
// The three roles compose into the paper's round:
//   * SourceRole      — deal a Shamir polynomial over the secret and
//                       emit one AES-protected SharePacket per holder;
//   * HolderRole      — authenticate + accumulate incoming shares into
//                       a point-sum, emit one SumPacket;
//   * AggregatorRole  — collect point-sums, pick the best consistent
//                       contributor mask, Lagrange-reconstruct the
//                       aggregate at x = 0.
//
// Roles reference a RoundSpec their owner keeps (and validates once);
// reset(round) starts the next round without touching the heap, so a
// warm simulator session stays allocation-free.
//
// Reconstruction over any degree+1 sums with identical contributor
// masks yields the same field element (exact arithmetic over points of
// one polynomial), so the aggregate value is independent of message
// timing — the property the distributed runtime's determinism tests
// pin against the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/shamir.hpp"
#include "core/wire.hpp"
#include "crypto/keystore.hpp"
#include "crypto/prng.hpp"
#include "field/fp61.hpp"
#include "field/lagrange.hpp"

namespace mpciot::core::roles {

/// One group's round assignment. Sources and holders are global node
/// ids in schedule order; bit i of every contributor mask refers to
/// sources[i]. The round number is not part of the spec: roles take it
/// per round (reset / the SourceRole constructor).
struct RoundSpec {
  std::vector<NodeId> sources;
  std::vector<NodeId> holders;
  std::size_t degree = 1;
};

/// Check the spec invariants (non-empty lists, <= 64 sources, unique
/// ids, 1 <= degree, degree + 1 <= holders). Throws ContractViolation.
/// The roles assume a validated spec; their owner checks it once.
void validate(const RoundSpec& spec);

/// Index of `node` in `list`, or nullopt.
std::optional<std::size_t> index_of(const std::vector<NodeId>& list,
                                    NodeId node);

/// A contributor mask chosen among point-sums, and how many carry it.
struct MaskChoice {
  std::uint64_t mask = 0;
  std::uint32_t count = 0;
};

/// The round's one mask rule, used by both the simulator's stage-2
/// done-predicate and every reconstruction: among the masks carried by
/// >= `threshold` present entries (masks[i] counts iff present[i] is
/// non-zero), the largest popcount, then the most entries, then the
/// numerically smallest mask. nullopt when no mask reaches the
/// threshold. Independent of entry order; allocation-free.
std::optional<MaskChoice> choose_mask(std::span<const char> present,
                                      std::span<const std::uint64_t> masks,
                                      std::size_t threshold);

/// Dealer side: shares `secret` out to the spec's holders.
class SourceRole {
 public:
  /// Deals a fresh degree-`spec.degree` polynomial with constant term
  /// `secret`, coefficients drawn from `drbg`, for round `round`.
  /// Precondition: `self` is one of spec.sources; `spec` outlives the
  /// role.
  SourceRole(const RoundSpec& spec, NodeId self, std::uint16_t round,
             field::Fp61 secret, crypto::CtrDrbg& drbg);

  /// Encode the SharePacket for spec.holders[i] into `wire`. Returns
  /// false (leaving `wire` untouched) when that holder is this node:
  /// self-shares never travel — fetch the value via self_share().
  bool encode_share_for(std::size_t i, const crypto::KeyStore& keys,
                        Bytes& wire) const;

  /// The share destined for this node itself (valid whether or not the
  /// node is a holder this round).
  field::Fp61 self_share() const;

 private:
  const RoundSpec* spec_;
  NodeId self_;
  std::uint16_t round_;
  ShamirDealer dealer_;
};

/// Share-collector side: accumulates authenticated shares into the
/// point-sum at this node's public point.
class HolderRole {
 public:
  /// The collector at spec.holders[holder_index], idle until reset().
  /// Precondition: `spec` outlives the role.
  HolderRole(const RoundSpec& spec, std::size_t holder_index);

  /// Start round `round` with an empty point-sum (allocation-free).
  void reset(std::uint16_t round);

  /// Fold in the share of spec.sources[source_index]. Returns false if
  /// the index is out of range or that source already contributed.
  bool accept(std::size_t source_index, field::Fp61 value);

  /// As accept, by source id: this node's own share, which never
  /// travels on the wire.
  bool accept_local(NodeId source, field::Fp61 value);

  /// Decode + authenticate + validate one SharePacket addressed to this
  /// node. Returns false on any reject: wrong size, failed tag, wrong
  /// destination or round, unknown source, or a duplicate.
  bool accept_wire(const Bytes& wire, const crypto::KeyStore& keys);

  /// Every spec source has contributed.
  bool complete() const;
  std::uint32_t contributions() const;
  std::uint64_t contributor_mask() const { return mask_; }

  /// The current (partial or complete) point-sum. With no contribution
  /// yet it is the zero sum under an empty mask.
  SumPacket sum_packet() const;

 private:
  const RoundSpec* spec_;
  NodeId self_;
  std::uint16_t round_ = 0;
  field::Fp61 sum_;
  std::uint64_t mask_ = 0;
};

/// What a reconstruction produced.
struct AggregateOutcome {
  field::Fp61 aggregate;
  /// Bit i set iff sources[i] is covered by the aggregate.
  std::uint64_t contributor_mask = 0;
  /// Point-sums actually interpolated (always degree + 1).
  std::uint32_t sums_used = 0;
  /// Accepted point-sums carrying the winning mask (>= sums_used).
  std::uint32_t consistent_sums = 0;
};

/// Reconstructor side: collects SumPackets and reconstructs the
/// aggregate from the best consistent subset.
class AggregatorRole {
 public:
  /// Sizes the per-holder buffers; idle until reset(). Precondition:
  /// `spec` outlives the role.
  explicit AggregatorRole(const RoundSpec& spec);

  /// Forget every sum and start round `round`. Re-reads the spec, and
  /// is allocation-free once the buffers have grown to its holder
  /// count.
  void reset(std::uint16_t round);

  /// Accept one point-sum. Returns false on a reject: wrong round,
  /// unknown holder, a mask with bits beyond the source list, or a
  /// duplicate holder (first packet wins). An empty mask is accepted: it
  /// is a point of the zero polynomial and can win only when no mask
  /// with contributors reaches the threshold, reconstructing 0 for
  /// nobody.
  bool accept(const SumPacket& pkt);

  /// As accept, for a caller that already knows the sender is
  /// spec.holders[holder_index] (pkt.holder must name it).
  bool accept(std::size_t holder_index, const SumPacket& pkt);

  std::uint32_t sums_received() const;

  /// True iff >= degree+1 sums carry the full all-sources mask (the
  /// no-failure fast path: reconstruction cannot improve further).
  bool full_mask_threshold() const;

  /// Reconstruct from the choose_mask winner at threshold degree+1: the
  /// degree+1 sums of the winning mask with the smallest holder ids are
  /// interpolated, making the outcome (value AND bookkeeping)
  /// independent of arrival order. nullopt while no mask reaches the
  /// threshold. Allocation-free once `scratch` is warm.
  std::optional<AggregateOutcome> try_reconstruct(
      field::LagrangeScratch& scratch) const;

 private:
  const RoundSpec* spec_;
  std::uint16_t round_ = 0;
  std::uint64_t full_mask_ = 0;
  std::vector<char> seen_;          // per holder index
  std::vector<field::Fp61> sums_;   // per holder index
  std::vector<std::uint64_t> masks_;
};

}  // namespace mpciot::core::roles
