#include "core/roles.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "common/assert.hpp"

namespace mpciot::core::roles {

namespace {

std::uint64_t mask_for(std::size_t source_count) {
  return source_count == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << source_count) - 1;
}

}  // namespace

void validate(const RoundSpec& spec) {
  MPCIOT_REQUIRE(!spec.sources.empty(), "RoundSpec: no sources");
  MPCIOT_REQUIRE(!spec.holders.empty(), "RoundSpec: no holders");
  MPCIOT_REQUIRE(spec.sources.size() <= 64,
                 "RoundSpec: the SumPacket contributor bitmap caps a round "
                 "at 64 sources");
  MPCIOT_REQUIRE(spec.degree >= 1, "RoundSpec: degree 0 would broadcast "
                                   "the secret");
  MPCIOT_REQUIRE(spec.degree + 1 <= spec.holders.size(),
                 "RoundSpec: fewer holders than the reconstruction "
                 "threshold");
  std::unordered_set<NodeId> uniq(spec.sources.begin(), spec.sources.end());
  MPCIOT_REQUIRE(uniq.size() == spec.sources.size(),
                 "RoundSpec: duplicate source");
  uniq.clear();
  uniq.insert(spec.holders.begin(), spec.holders.end());
  MPCIOT_REQUIRE(uniq.size() == spec.holders.size(),
                 "RoundSpec: duplicate holder");
}

std::optional<MaskChoice> choose_mask(std::span<const char> present,
                                      std::span<const std::uint64_t> masks,
                                      std::size_t threshold) {
  MPCIOT_REQUIRE(present.size() == masks.size(),
                 "choose_mask: one mask per presence flag");
  // Holder lists are <= a group, so the quadratic scan is cheap; once a
  // mask has been counted its later entries are skipped, so the common
  // all-equal round is linear.
  std::optional<MaskChoice> best;
  int best_pop = -1;
  for (std::size_t h = 0; h < present.size(); ++h) {
    if (!present[h]) continue;
    const std::uint64_t m = masks[h];
    if (best && m == best->mask) continue;
    std::uint32_t count = 0;
    for (std::size_t k = h; k < present.size(); ++k) {
      if (present[k] && masks[k] == m) ++count;
    }
    if (count < threshold) continue;
    const int pop = std::popcount(m);
    if (!best || pop > best_pop || (pop == best_pop && count > best->count) ||
        (pop == best_pop && count == best->count && m < best->mask)) {
      best = MaskChoice{m, count};
      best_pop = pop;
    }
  }
  return best;
}

std::optional<std::size_t> index_of(const std::vector<NodeId>& list,
                                    NodeId node) {
  const auto it = std::find(list.begin(), list.end(), node);
  if (it == list.end()) return std::nullopt;
  return static_cast<std::size_t>(it - list.begin());
}

SourceRole::SourceRole(const RoundSpec& spec, NodeId self,
                       std::uint16_t round, field::Fp61 secret,
                       crypto::CtrDrbg& drbg)
    : spec_(&spec),
      self_(self),
      round_(round),
      dealer_(secret, spec.degree, drbg) {
  MPCIOT_REQUIRE(index_of(spec.sources, self).has_value(),
                 "SourceRole: node is not a source of this round");
}

bool SourceRole::encode_share_for(std::size_t i, const crypto::KeyStore& keys,
                                  Bytes& wire) const {
  MPCIOT_REQUIRE(i < spec_->holders.size(), "SourceRole: holder index");
  const NodeId holder = spec_->holders[i];
  if (holder == self_) return false;
  SharePacket pkt;
  pkt.source = self_;
  pkt.destination = holder;
  pkt.round = round_;
  pkt.share = dealer_.share_for(holder).value;
  pkt.encode_into(keys, wire);
  return true;
}

field::Fp61 SourceRole::self_share() const {
  return dealer_.share_for(self_).value;
}

HolderRole::HolderRole(const RoundSpec& spec, std::size_t holder_index)
    : spec_(&spec), self_(kInvalidNode), sum_(field::Fp61{0}) {
  MPCIOT_REQUIRE(holder_index < spec.holders.size(),
                 "HolderRole: holder index out of range");
  self_ = spec.holders[holder_index];
}

void HolderRole::reset(std::uint16_t round) {
  round_ = round;
  sum_ = field::Fp61{0};
  mask_ = 0;
}

bool HolderRole::accept(std::size_t source_index, field::Fp61 value) {
  if (source_index >= spec_->sources.size()) return false;
  const std::uint64_t bit = std::uint64_t{1} << source_index;
  if (mask_ & bit) return false;
  mask_ |= bit;
  sum_ += value;
  return true;
}

bool HolderRole::accept_local(NodeId source, field::Fp61 value) {
  const auto idx = index_of(spec_->sources, source);
  return idx.has_value() && accept(*idx, value);
}

bool HolderRole::accept_wire(const Bytes& wire, const crypto::KeyStore& keys) {
  const std::optional<SharePacket> pkt = SharePacket::decode(wire, keys);
  if (!pkt) return false;
  if (pkt->destination != self_) return false;
  if (pkt->round != round_) return false;
  return accept_local(pkt->source, pkt->share);
}

bool HolderRole::complete() const {
  return mask_ == mask_for(spec_->sources.size());
}

std::uint32_t HolderRole::contributions() const {
  return static_cast<std::uint32_t>(std::popcount(mask_));
}

SumPacket HolderRole::sum_packet() const {
  SumPacket pkt;
  pkt.holder = self_;
  pkt.contribution_count = static_cast<std::uint8_t>(std::popcount(mask_));
  pkt.round = round_;
  pkt.sum = sum_;
  pkt.contributors = mask_;
  return pkt;
}

AggregatorRole::AggregatorRole(const RoundSpec& spec) : spec_(&spec) {
  reset(0);
}

void AggregatorRole::reset(std::uint16_t round) {
  const std::size_t holders = spec_->holders.size();
  round_ = round;
  full_mask_ = mask_for(spec_->sources.size());
  seen_.assign(holders, 0);
  sums_.resize(holders);
  masks_.resize(holders);
}

bool AggregatorRole::accept(const SumPacket& pkt) {
  const auto idx = index_of(spec_->holders, pkt.holder);
  return idx.has_value() && accept(*idx, pkt);
}

bool AggregatorRole::accept(std::size_t holder_index, const SumPacket& pkt) {
  if (pkt.round != round_) return false;
  if ((pkt.contributors & ~full_mask_) != 0) return false;
  if (holder_index >= seen_.size()) return false;
  if (spec_->holders[holder_index] != pkt.holder) return false;
  if (seen_[holder_index]) return false;
  seen_[holder_index] = 1;
  sums_[holder_index] = pkt.sum;
  masks_[holder_index] = pkt.contributors;
  return true;
}

std::uint32_t AggregatorRole::sums_received() const {
  std::uint32_t n = 0;
  for (const char s : seen_) n += s != 0;
  return n;
}

bool AggregatorRole::full_mask_threshold() const {
  std::size_t n = 0;
  for (std::size_t h = 0; h < seen_.size(); ++h) {
    if (seen_[h] && masks_[h] == full_mask_) ++n;
  }
  return n >= spec_->degree + 1;
}

std::optional<AggregateOutcome> AggregatorRole::try_reconstruct(
    field::LagrangeScratch& scratch) const {
  const std::size_t threshold = spec_->degree + 1;
  const std::vector<NodeId>& holders = spec_->holders;
  const std::optional<MaskChoice> best =
      choose_mask(seen_, masks_, threshold);
  if (!best) return std::nullopt;
  const std::uint64_t best_mask = best->mask;

  // Interpolate the winning mask's `threshold` sums with the smallest
  // holder ids (spec.holders is not necessarily sorted): repeated
  // minimum selection above the last pick, so no index buffer is built.
  scratch.samples.clear();
  NodeId last = 0;
  for (std::size_t i = 0; i < threshold; ++i) {
    std::size_t pick = holders.size();
    for (std::size_t h = 0; h < seen_.size(); ++h) {
      if (!seen_[h] || masks_[h] != best_mask) continue;
      if (i > 0 && holders[h] <= last) continue;
      if (pick == holders.size() || holders[h] < holders[pick]) pick = h;
    }
    last = holders[pick];
    scratch.samples.push_back(
        field::Sample{public_point(holders[pick]), sums_[pick]});
  }
  AggregateOutcome out;
  out.aggregate = field::interpolate_at_zero(scratch.samples, scratch);
  out.contributor_mask = best_mask;
  out.sums_used = static_cast<std::uint32_t>(threshold);
  out.consistent_sums = best->count;
  return out;
}

}  // namespace mpciot::core::roles
