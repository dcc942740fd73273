#include "ct/minicast.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace mpciot::ct {

std::size_t BitView::count() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < (bits_ + 63) / 64; ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return total;
}

bool BitView::all() const { return count() == bits_; }

bool BitView::covers(const std::uint64_t* mask, std::size_t words) const {
  for (std::size_t w = 0; w < words; ++w) {
    if ((mask[w] & ~words_[w]) != 0) return false;
  }
  return true;
}

std::size_t BitView::count_and(const std::uint64_t* mask,
                               std::size_t words) const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w] & mask[w]));
  }
  return total;
}

double MiniCastResult::delivery_ratio() const {
  std::size_t delivered = 0;
  std::size_t total = 0;
  for (const auto& row : rx_slot) {
    for (std::int32_t s : row) {
      if (s == kOwnEntry) continue;
      ++total;
      if (s != kNever) ++delivered;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(delivered) /
                                static_cast<double>(total);
}

double MiniCastResult::done_ratio() const {
  if (done_slot.empty()) return 1.0;
  std::size_t done = 0;
  for (std::int32_t s : done_slot) {
    if (s != kNever) ++done;
  }
  return static_cast<double>(done) / static_cast<double>(done_slot.size());
}

MiniCastResult run_minicast(const net::Topology& topo,
                            const std::vector<ChainEntry>& entries,
                            const MiniCastConfig& config,
                            crypto::Xoshiro256& rng) {
  RoundContext scratch;
  return run_minicast(topo, entries, config, rng, scratch);
}

MiniCastResult run_minicast(const net::Topology& topo,
                            const std::vector<ChainEntry>& entries,
                            const MiniCastConfig& config,
                            crypto::Xoshiro256& rng, RoundContext& scratch) {
  MiniCastResult result;
  run_minicast_into(topo, entries, config, rng, scratch, result);
  return result;
}

void run_minicast_into(const net::Topology& topo,
                       const std::vector<ChainEntry>& entries,
                       const MiniCastConfig& config, crypto::Xoshiro256& rng,
                       RoundContext& scratch, MiniCastResult& result) {
  const std::size_t n = topo.size();
  const std::size_t num_entries = entries.size();
  MPCIOT_REQUIRE(num_entries > 0, "minicast: empty chain");
  MPCIOT_REQUIRE(config.initiator < n, "minicast: initiator out of range");
  MPCIOT_REQUIRE(config.ntx > 0, "minicast: ntx must be positive");
  for (const ChainEntry& e : entries) {
    MPCIOT_REQUIRE(e.origin < n, "minicast: entry origin out of range");
  }
  MPCIOT_REQUIRE(config.disabled.empty() || config.disabled.size() == n,
                 "minicast: disabled mask size mismatch");
  const auto is_disabled = [&](NodeId i) {
    return !config.disabled.empty() && config.disabled[i] != 0;
  };

  const net::RadioParams& radio = topo.radio();
  const SimTime subslot_us = radio.subslot_us(config.payload_bytes);
  const SimTime chain_slot_us =
      subslot_us * static_cast<SimTime>(num_entries);

  // The default predicate lives in a function-local static so binding it
  // never copies a std::function on the hot path.
  static const std::function<bool(NodeId, BitView)> kAllEntries =
      [](NodeId, BitView have) { return have.all(); };
  const std::function<bool(NodeId, BitView)>& done_fn =
      config.done ? config.done : kAllEntries;

  // Reset the (possibly warm) result in place: resize keeps each row's
  // capacity, so a steady-state round on a fixed shape never allocates.
  result.rx_slot.resize(n);
  for (auto& row : result.rx_slot) {
    row.assign(num_entries, MiniCastResult::kNever);
  }
  result.tx_count.assign(n, 0);
  result.done_slot.assign(n, MiniCastResult::kNever);
  result.radio_on_us.assign(n, 0);
  result.chain_slot_us = chain_slot_us;
  result.channel = config.channel;

  // have: packed reception bitmaps, `words` 64-bit words per node.
  const std::size_t words = (num_entries + 63) / 64;
  const std::size_t nwords = topo.node_words();
  scratch.have.assign(n * words, 0);
  const auto have_row = [&](NodeId i) {
    return scratch.have.data() + static_cast<std::size_t>(i) * words;
  };
  for (std::size_t e = 0; e < num_entries; ++e) {
    bit_set(have_row(entries[e].origin), e);
    result.rx_slot[entries[e].origin][e] = MiniCastResult::kOwnEntry;
  }

  scratch.radio_on.assign(n, 1);
  scratch.tx_this_slot.assign(n, 0);
  scratch.received_any.assign(n, 0);
  scratch.tx_next.assign(n, 0);
  scratch.tx_next[config.initiator] = 1;
  scratch.scheduled.assign(n, 0);
  for (NodeId t : config.scheduled_owners) {
    MPCIOT_REQUIRE(t < n, "minicast: scheduled owner out of range");
    scratch.scheduled[t] = 1;
  }
  scratch.silent_slots.assign(n, 0);
  // Timeout transmissions are for injecting straggler data, not for
  // sustaining the flood: bound them so degenerate everyone-transmits
  // dynamics cannot arise.
  scratch.timeout_budget.assign(n, 4);
  scratch.entry_senders.assign(nwords, 0);
  for (NodeId i = 0; i < n; ++i) {
    if (is_disabled(i)) {
      scratch.radio_on[i] = 0;
      scratch.tx_next[i] = 0;
      scratch.scheduled[i] = 0;
    }
  }

  // Dynamics seams: the view aliases the frozen tables when no channel
  // model is set, and the churn mask and deaf set are only queried when
  // a liveness schedule is present — a static round takes neither
  // branch nor extra RNG draws anywhere below.
  net::ChannelView& view = scratch.view;
  view.bind(topo, config.channel_model);
  const net::LivenessModel* churn = config.liveness;
  if (churn != nullptr) scratch.down.assign(n, 0);

  // Initial done check (origins of everything / trivial predicates).
  for (NodeId i = 0; i < n; ++i) {
    if (is_disabled(i)) continue;
    if (churn != nullptr && churn->is_down(i, config.start_time_us)) continue;
    if (done_fn(i, BitView(have_row(i), num_entries))) {
      result.done_slot[i] = 0;
    }
  }

  // Sparse-tier topologies have no audibility bitmap rows; their
  // listeners scan the per-receiver word runs instead. Hoisted so the
  // dense hot loop below stays branch-free.
  const bool sparse_topo = view.sparse();

  const double inv_corr = 1.0 / radio.ct_loss_correlation;
  // At a correlation of 1.0 the exponent is exactly 1.0, and
  // IEEE-754 guarantees pow(x, 1.0) == x bit-for-bit — so the arbitration
  // loop can skip the libm call entirely without changing a single
  // delivered packet. Any other correlation keeps the pow.
  const bool corr_is_one = inv_corr == 1.0;

  // Success probability of one listener under the sender set marked in
  // scratch.entry_senders; 0 when it hears none of them.
  const auto success_prob = [&](NodeId r) {
    std::size_t heard = 0;
    double fail_product = 1.0;
    double single_prr = 0.0;
    if (sparse_topo) {
      // Sparse tier: only the receiver's stored in-links exist, as word
      // runs over the same ascending-transmitter order the dense row
      // scan visits — the fail_product chain is identical either way.
      const double* in_prr = view.in_prr();
      for (const net::AudWord& aw : view.audible_entries(r)) {
        std::uint64_t m = aw.bits & scratch.entry_senders[aw.word];
        while (m != 0) {
          const std::uint64_t low = m & (~m + 1);
          m &= m - 1;
          const double p =
              in_prr[aw.prr_off + static_cast<std::size_t>(
                                      std::popcount(aw.bits & (low - 1)))];
          ++heard;
          fail_product *= (1.0 - p);
          single_prr = p;
        }
      }
    } else {
      const std::uint64_t* audible = view.audible_words(r);
      const double* prr_in = view.prr_into(r);
      // Scan the sender/audibility masks four words per stride: one OR
      // rejects 256 absent transmitters at a time (the common case —
      // sender sets are sparse). Words within a surviving stride are
      // still visited in ascending order, so the fail_product multiply
      // chain — doubles, order-sensitive — is untouched.
      const auto scan_word = [&](std::size_t w, std::uint64_t m) {
        while (m != 0) {
          const std::size_t t =
              w * 64 + static_cast<std::size_t>(std::countr_zero(m));
          m &= m - 1;
          const double p = prr_in[t];
          ++heard;
          fail_product *= (1.0 - p);
          single_prr = p;
        }
      };
      std::size_t w = 0;
      for (; w + 4 <= nwords; w += 4) {
        const std::uint64_t m0 = scratch.entry_senders[w + 0] & audible[w + 0];
        const std::uint64_t m1 = scratch.entry_senders[w + 1] & audible[w + 1];
        const std::uint64_t m2 = scratch.entry_senders[w + 2] & audible[w + 2];
        const std::uint64_t m3 = scratch.entry_senders[w + 3] & audible[w + 3];
        if ((m0 | m1 | m2 | m3) == 0) continue;
        scan_word(w + 0, m0);
        scan_word(w + 1, m1);
        scan_word(w + 2, m2);
        scan_word(w + 3, m3);
      }
      for (; w < nwords; ++w) {
        scan_word(w, scratch.entry_senders[w] & audible[w]);
      }
    }
    if (heard == 0) return 0.0;
    return heard == 1    ? single_prr
           : corr_is_one ? 1.0 - fail_product
                         : 1.0 - std::pow(fail_product, inv_corr);
  };

  // Sender-set class tables, sized from the round's shape (never from
  // its draws) so a steady-state round on a fixed shape allocates
  // nothing. Reserved pages a round never touches are never resident.
  const std::size_t hit_cap = std::min(
      num_entries * n, std::max(RoundContext::kClassHitBudget, n));
  const std::size_t key_cap =
      std::min(num_entries * nwords,
               std::max(RoundContext::kClassHitBudget / 4, nwords));
  scratch.classes.reserve(num_entries);
  scratch.class_keys.reserve(key_cap);
  scratch.hit_node.reserve(hit_cap);
  scratch.hit_threshold.reserve(hit_cap);
  scratch.class_table.resize(std::bit_ceil(2 * num_entries));
  scratch.entry_key.resize(nwords);
  const auto start_classes = [&] {
    scratch.classes.clear();
    scratch.class_keys.clear();
    scratch.hit_node.clear();
    scratch.hit_threshold.clear();
    std::fill(scratch.class_table.begin(), scratch.class_table.end(), 0);
  };
  std::uint32_t slot = 0;
  const auto deliver = [&](NodeId r, std::size_t e) {
    scratch.received_any[r] = 1;
    if (!bit_test(have_row(r), e)) {
      bit_set(have_row(r), e);
      result.rx_slot[r][e] = static_cast<std::int32_t>(slot);
    }
  };
  // Arbitrates entry e, the first of its sender set `key` (bit j:
  // tx_nodes[j] holds the entry), scanning every listener once and
  // drawing as it goes, and appends the class: its hits are the
  // listeners with p > 0, p >= 1 stored as kAlwaysHit, since next_bool
  // draws for neither p <= 0 nor p >= 1.
  const auto arbitrate_new_class = [&](std::size_t e, const std::uint64_t* key,
                                       std::size_t key_words) {
    std::fill(scratch.entry_senders.begin(), scratch.entry_senders.end(), 0);
    for (std::size_t j = 0; j < scratch.tx_nodes.size(); ++j) {
      if (bit_test(key, j)) {
        bit_set(scratch.entry_senders.data(), scratch.tx_nodes[j]);
      }
    }
    RoundContext::SenderClass cls;
    cls.hit_begin = static_cast<std::uint32_t>(scratch.hit_node.size());
    for (NodeId r : scratch.listeners) {
      const double p = success_prob(r);
      if (p <= 0.0) continue;
      scratch.hit_node.push_back(r);
      scratch.hit_threshold.push_back(
          p >= 1.0 ? RoundContext::kAlwaysHit
                   : crypto::Xoshiro256::bernoulli_threshold(p));
      if (rng.next_bool(p)) deliver(r, e);
    }
    cls.hit_end = static_cast<std::uint32_t>(scratch.hit_node.size());
    scratch.class_keys.insert(scratch.class_keys.end(), key, key + key_words);
    scratch.classes.push_back(cls);
  };
  for (; slot < config.max_chain_slots; ++slot) {
    // Advance the dynamics clock to this slot: re-materialize the link
    // view when the epoch moved, refresh the churn mask. A node that
    // goes down loses any pending trigger (its radio heard nothing).
    const SimTime slot_start_us =
        config.start_time_us + static_cast<SimTime>(slot) * chain_slot_us;
    if (config.channel_model != nullptr) view.seek(slot_start_us);
    if (churn != nullptr) {
      for (NodeId i = 0; i < n; ++i) {
        const bool down = churn->is_down(i, slot_start_us);
        scratch.down[i] = down ? 1 : 0;
        if (down) scratch.tx_next[i] = 0;
      }
    }

    // Who transmits this chain slot? Wave-triggered nodes, plus
    // scheduled owners that timed out of the wave. The timeout path uses
    // a randomized backoff (p = 1/2 per slot once timed out): a
    // deterministic timeout can synchronize all stragglers into an
    // everyone-transmits slot in which nobody listens and the flood dies.
    bool any_tx = false;
    scratch.tx_nodes.clear();
    for (NodeId i = 0; i < n; ++i) {
      if (churn != nullptr && scratch.down[i]) {
        scratch.tx_this_slot[i] = 0;
        scratch.received_any[i] = 0;
        continue;
      }
      // The defer draw models missing a *reception-derived* trigger; the
      // initiator's opening transmission is clock-scheduled and immune.
      const bool scheduled_start = (slot == 0 && i == config.initiator);
      const bool wave =
          scratch.tx_next[i] != 0 &&
          (scheduled_start || !rng.next_bool(radio.tx_defer_prob));
      bool timeout = false;
      if (!wave && scratch.scheduled[i] && scratch.timeout_budget[i] > 0 &&
          scratch.silent_slots[i] >= 2 && result.tx_count[i] < config.ntx &&
          rng.next_bool(0.5)) {
        timeout = true;
        --scratch.timeout_budget[i];
      }
      const bool tx =
          (wave || timeout) && result.tx_count[i] < config.ntx;
      scratch.tx_this_slot[i] = tx ? 1 : 0;
      if (tx) {
        any_tx = true;
        scratch.tx_nodes.push_back(i);
      }
      scratch.received_any[i] = 0;
    }
    if (!any_tx) {
      // Quiescence — unless a scheduled owner still has data credit, in
      // which case the provisioned round idles a slot and lets the
      // owner's timeout fire (its backoff draw may simply have deferred).
      bool pending_owner = false;
      for (NodeId i = 0; i < n; ++i) {
        if (churn != nullptr && scratch.down[i]) continue;  // can't inject now
        if (scratch.scheduled[i] && result.tx_count[i] < config.ntx &&
            scratch.timeout_budget[i] > 0) {
          pending_owner = true;
          break;
        }
      }
      if (!pending_owner) break;
    }

    // Listener set is fixed for the whole chain slot (radio state only
    // changes at slot boundaries). A deaf listener pays its radio-on
    // time here and joins no arbitration: it hears nothing and draws
    // nothing, as if its inbound PRR row were zero.
    scratch.listeners.clear();
    for (NodeId i = 0; i < n; ++i) {
      if (scratch.tx_this_slot[i] || !scratch.radio_on[i]) continue;
      if (churn != nullptr) {
        if (scratch.down[i]) continue;
        if (churn->is_deaf(i, slot_start_us)) {
          result.radio_on_us[i] += chain_slot_us;
          continue;
        }
      }
      scratch.listeners.push_back(i);
    }

    // Sub-slot by sub-slot arbitration. All concurrent copies of entry e
    // carry identical bytes, so this is always the constructive-
    // interference regime of net::ReceptionModel, inlined over the
    // packed transmitter set: a receiver fails only if every audible
    // copy fails, with the correlation knob degrading towards the
    // single-best case.
    //
    // Within one chain slot the transmitters, the listeners and the link
    // tables are fixed, and transmitters do not receive, so an entry's
    // success probability at a listener depends only on which of the
    // slot's transmitters hold it. Entries are therefore interned into
    // sender-set classes; the first entry of a class scans every
    // listener once, drawing as it goes, and stores a hit list
    // (listeners that may decode it, ascending, each with its integer
    // Bernoulli threshold) that every later entry of the class replays.
    // Both draw exactly where a per-(entry, listener) next_bool would:
    // same listeners, same order, same outcomes.
    const std::size_t key_words = (scratch.tx_nodes.size() + 63) / 64;
    start_classes();
    for (std::size_t e = 0; e < num_entries; ++e) {
      std::uint64_t* key = scratch.entry_key.data();
      std::fill(key, key + key_words, 0);
      bool any_sender = false;
      for (std::size_t j = 0; j < scratch.tx_nodes.size(); ++j) {
        if (bit_test(have_row(scratch.tx_nodes[j]), e)) {
          bit_set(key, j);
          any_sender = true;
        }
      }
      if (!any_sender) continue;
      std::uint64_t hash = 0;
      for (std::size_t w = 0; w < key_words; ++w) {
        hash = (hash ^ key[w]) * 0x9E3779B97F4A7C15ull;
        hash ^= hash >> 29;
      }
      const std::size_t table_mask = scratch.class_table.size() - 1;
      std::size_t pos = hash & table_mask;
      const RoundContext::SenderClass* cls = nullptr;
      for (; scratch.class_table[pos] != 0; pos = (pos + 1) & table_mask) {
        const std::size_t c = scratch.class_table[pos] - 1;
        if (std::equal(key, key + key_words,
                       scratch.class_keys.data() + c * key_words)) {
          cls = &scratch.classes[c];
          break;
        }
      }
      if (cls == nullptr) {
        if (scratch.hit_node.size() + scratch.listeners.size() > hit_cap ||
            scratch.class_keys.size() + key_words > key_cap) {
          start_classes();
          pos = hash & table_mask;
        }
        arbitrate_new_class(e, key, key_words);
        scratch.class_table[pos] =
            static_cast<std::uint32_t>(scratch.classes.size());
        continue;
      }
      for (std::uint32_t h = cls->hit_begin; h < cls->hit_end; ++h) {
        const std::uint64_t threshold = scratch.hit_threshold[h];
        if (threshold == RoundContext::kAlwaysHit ||
            rng.next_bool_at(threshold)) {
          deliver(scratch.hit_node[h], e);
        }
      }
    }

    // Accounting: transmitters spend the chain slot sending the filled
    // sub-slots and guard-listening the rest; listeners (deaf ones were
    // charged above) spend the whole chain slot in RX.
    for (NodeId i : scratch.tx_nodes) {
      result.radio_on_us[i] += chain_slot_us;
      ++result.tx_count[i];
    }
    for (NodeId r : scratch.listeners) {
      result.radio_on_us[r] += chain_slot_us;
    }

    // Completion tracking and (optionally) early radio shutdown. Down
    // nodes are skipped: their bitmap cannot have changed, and a crashed
    // radio cannot be switched "more off".
    for (NodeId i = 0; i < n; ++i) {
      if (is_disabled(i)) continue;
      if (churn != nullptr && scratch.down[i]) continue;
      if (result.done_slot[i] == MiniCastResult::kNever &&
          done_fn(i, BitView(have_row(i), num_entries))) {
        result.done_slot[i] = static_cast<std::int32_t>(slot);
      }
      if (config.radio_policy == RadioPolicy::kEarlyOff &&
          scratch.radio_on[i] && result.tx_count[i] >= config.ntx &&
          result.done_slot[i] != MiniCastResult::kNever) {
        scratch.radio_on[i] = 0;
      }
    }

    // Glossy trigger rule: transmit next chain slot iff received in this
    // one. (Transmitters received nothing — half duplex.)
    for (NodeId i = 0; i < n; ++i) {
      scratch.tx_next[i] = scratch.received_any[i];
      if (scratch.tx_this_slot[i] || scratch.received_any[i]) {
        scratch.silent_slots[i] = 0;
      } else {
        ++scratch.silent_slots[i];
      }
    }
  }

  result.chain_slots_used = slot;
  result.duration_us = static_cast<SimTime>(slot) * chain_slot_us;
}

}  // namespace mpciot::ct
