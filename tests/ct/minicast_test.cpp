#include "ct/minicast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "common/assert.hpp"
#include "net/testbeds.hpp"
#include "sim/dynamics.hpp"

namespace mpciot::ct {
namespace {

net::RadioParams ideal_radio() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  radio.tx_defer_prob = 0.0;  // deterministic waves for unit tests
  return radio;
}

/// 5-node line, adjacent links near-perfect.
net::Topology make_line(std::size_t n = 5, double spacing = 14.0) {
  std::vector<net::Position> pos;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back(net::Position{static_cast<double>(i) * spacing, 0.0});
  }
  return net::Topology(std::move(pos), ideal_radio(), 1);
}

TEST(MiniCast, ValidatesConfig) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(1);
  MiniCastConfig cfg;
  EXPECT_THROW(run_minicast(topo, {}, cfg, rng), ContractViolation);
  cfg.initiator = 99;
  EXPECT_THROW(run_minicast(topo, {ChainEntry{0}}, cfg, rng),
               ContractViolation);
  cfg.initiator = 0;
  cfg.ntx = 0;
  EXPECT_THROW(run_minicast(topo, {ChainEntry{0}}, cfg, rng),
               ContractViolation);
  cfg.ntx = 1;
  EXPECT_THROW(run_minicast(topo, {ChainEntry{77}}, cfg, rng),
               ContractViolation);
  cfg.disabled = {1};  // wrong size
  EXPECT_THROW(run_minicast(topo, {ChainEntry{0}}, cfg, rng),
               ContractViolation);
}

TEST(MiniCast, SingleEntryFloodsWholeLine) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(2);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 4;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  EXPECT_EQ(res.rx_slot[0][0], MiniCastResult::kOwnEntry);
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_TRUE(res.node_has(n, 0)) << "node " << n;
    // Reception slot respects hop distance (can't arrive before the wave).
    EXPECT_GE(res.rx_slot[n][0], static_cast<std::int32_t>(n - 1));
  }
  EXPECT_EQ(res.delivery_ratio(), 1.0);
}

TEST(MiniCast, AllToAllOnLineDelivers) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(3);
  std::vector<ChainEntry> entries;
  for (NodeId n = 0; n < 5; ++n) entries.push_back(ChainEntry{n});
  MiniCastConfig cfg;
  cfg.initiator = 2;
  cfg.ntx = 8;
  cfg.scheduled_owners = {0, 1, 2, 3, 4};
  const MiniCastResult res = run_minicast(topo, entries, cfg, rng);
  EXPECT_EQ(res.delivery_ratio(), 1.0);
  EXPECT_EQ(res.done_ratio(), 1.0);
}

TEST(MiniCast, TxCountNeverExceedsNtx) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(4);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 3;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_LE(res.tx_count[n], 3u);
  }
}

TEST(MiniCast, CoverageIsMonotoneInNtxOnAverage) {
  // Property: mean delivery at NTX=6 >= mean delivery at NTX=1 on a
  // lossy random topology.
  const net::Topology topo = net::testbeds::random_uniform(12, 70, 70, 5);
  auto mean_delivery = [&](std::uint32_t ntx) {
    double total = 0;
    for (int t = 0; t < 10; ++t) {
      crypto::Xoshiro256 rng(100 + t);
      std::vector<ChainEntry> entries;
      for (NodeId n = 0; n < topo.size(); ++n) entries.push_back(ChainEntry{n});
      MiniCastConfig cfg;
      cfg.initiator = topo.center_node();
      cfg.ntx = ntx;
      total += run_minicast(topo, entries, cfg, rng).delivery_ratio();
    }
    return total / 10;
  };
  EXPECT_GE(mean_delivery(6) + 0.02, mean_delivery(1));
  EXPECT_GT(mean_delivery(6), 0.5);
}

TEST(MiniCast, DisabledNodeNeverParticipates) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(6);
  std::vector<ChainEntry> entries{ChainEntry{0}, ChainEntry{4}};
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 6;
  cfg.disabled = {0, 0, 1, 0, 0};  // node 2 dead: line is cut
  cfg.scheduled_owners = {0, 4};
  const MiniCastResult res = run_minicast(topo, entries, cfg, rng);
  EXPECT_EQ(res.tx_count[2], 0u);
  EXPECT_EQ(res.radio_on_us[2], 0);
  // Entry 0 cannot cross the dead node to reach node 3 or 4.
  EXPECT_FALSE(res.node_has(3, 0));
  EXPECT_FALSE(res.node_has(4, 0));
  // But node 1 still gets it.
  EXPECT_TRUE(res.node_has(1, 0));
}

TEST(MiniCast, EarlyOffReducesRadioOn) {
  const net::Topology topo = make_line();
  std::vector<ChainEntry> entries{ChainEntry{0}};
  MiniCastConfig base;
  base.initiator = 0;
  base.ntx = 6;
  base.done = [](NodeId, BitView have) { return have.test(0); };

  crypto::Xoshiro256 rng1(7);
  MiniCastConfig on = base;
  on.radio_policy = RadioPolicy::kUntilQuiescence;
  const MiniCastResult full = run_minicast(topo, entries, on, rng1);

  crypto::Xoshiro256 rng2(7);
  MiniCastConfig off = base;
  off.radio_policy = RadioPolicy::kEarlyOff;
  const MiniCastResult early = run_minicast(topo, entries, off, rng2);

  SimTime full_total = 0;
  SimTime early_total = 0;
  for (NodeId n = 0; n < 5; ++n) {
    full_total += full.radio_on_us[n];
    early_total += early.radio_on_us[n];
  }
  EXPECT_LT(early_total, full_total);
}

TEST(MiniCast, DoneSlotRecordsFirstSatisfaction) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(8);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 5;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  // Initiator owns the entry: done at slot 0 (checked before the round).
  EXPECT_EQ(res.done_slot[0], 0);
  // Last node in the line can only be done at or after its rx slot.
  ASSERT_TRUE(res.node_has(4, 0));
  EXPECT_GE(res.done_slot[4], res.rx_slot[4][0]);
}

TEST(MiniCast, ChainSlotDurationScalesWithEntries) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(9);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 2;
  cfg.payload_bytes = 16;
  const MiniCastResult one =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  const MiniCastResult three = run_minicast(
      topo, {ChainEntry{0}, ChainEntry{0}, ChainEntry{0}}, cfg, rng);
  EXPECT_EQ(three.chain_slot_us, 3 * one.chain_slot_us);
  EXPECT_EQ(one.chain_slot_us,
            topo.radio().subslot_us(16));
}

TEST(MiniCast, DeterministicGivenSameRngSeed) {
  const net::Topology topo = make_line();
  std::vector<ChainEntry> entries{ChainEntry{0}, ChainEntry{2}, ChainEntry{4}};
  MiniCastConfig cfg;
  cfg.initiator = 2;
  cfg.ntx = 4;
  cfg.scheduled_owners = {0, 2, 4};
  crypto::Xoshiro256 rng1(77);
  crypto::Xoshiro256 rng2(77);
  const MiniCastResult a = run_minicast(topo, entries, cfg, rng1);
  const MiniCastResult b = run_minicast(topo, entries, cfg, rng2);
  EXPECT_EQ(a.rx_slot, b.rx_slot);
  EXPECT_EQ(a.tx_count, b.tx_count);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(a.chain_slots_used, b.chain_slots_used);
}

TEST(MiniCast, MaxChainSlotsCapsRound) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(10);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 100;
  cfg.max_chain_slots = 3;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  EXPECT_LE(res.chain_slots_used, 3u);
}

TEST(MiniCast, ScheduledOwnerInjectsDespiteDeafness) {
  // Node 4 hangs off the line with a degraded receiver: it rarely hears
  // the wave, but as a scheduled owner it must still get its entry out.
  net::RadioParams radio = ideal_radio();
  std::vector<net::Position> pos;
  for (int i = 0; i < 5; ++i) pos.push_back({i * 14.0, 0.0});
  const net::Topology topo(std::move(pos), radio, 1,
                           {0.0, 0.0, 0.0, 0.0, 9.0});
  // The timeout path is probabilistic; the property is that the entry
  // escapes the deaf owner in (almost) every round, not in a lucky one.
  int escaped = 0;
  for (int t = 0; t < 20; ++t) {
    crypto::Xoshiro256 rng(11 + t);
    std::vector<ChainEntry> entries{ChainEntry{4}};
    MiniCastConfig cfg;
    cfg.initiator = 0;
    cfg.ntx = 6;
    cfg.scheduled_owners = {4};
    const MiniCastResult res = run_minicast(topo, entries, cfg, rng);
    if (res.node_has(3, 0)) ++escaped;
  }
  EXPECT_GE(escaped, 18);
}

// ---------------------------------------------------------------------
// Arbitration oracle. run_minicast_into arbitrates once per sender-set
// class and replays integer Bernoulli thresholds; the function below is
// the per-(entry, listener) engine it replaced, kept verbatim as the
// definition the class path must reproduce draw for draw. With
// `max_slot_hits`, it also reports the most hits one chain slot's
// sender-set classes hold (listeners with p > 0, summed over the slot's
// distinct sender masks), which draws nothing.

void reference_minicast_into(const net::Topology& topo,
                             const std::vector<ChainEntry>& entries,
                             const MiniCastConfig& config,
                             crypto::Xoshiro256& rng, RoundContext& scratch,
                             MiniCastResult& result,
                             std::size_t* max_slot_hits = nullptr) {
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
  // model is set, and the churn mask is only maintained when a liveness
  // schedule is present — a static round takes neither branch nor extra
  // RNG draws anywhere below.
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
  // At the default correlation of 1.0 the exponent is exactly 1.0, and
  // IEEE-754 guarantees pow(x, 1.0) == x bit-for-bit — so the arbitration
  // loop can skip the libm call entirely without changing a single
  // delivered packet. Any other correlation keeps the pow.
  const bool corr_is_one = inv_corr == 1.0;
  std::set<std::vector<std::uint64_t>> slot_classes;
  if (max_slot_hits != nullptr) *max_slot_hits = 0;
  std::uint32_t slot = 0;
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
    // changes at slot boundaries).
    scratch.listeners.clear();
    for (NodeId i = 0; i < n; ++i) {
      if (scratch.tx_this_slot[i] || !scratch.radio_on[i]) continue;
      if (churn != nullptr && scratch.down[i]) continue;
      scratch.listeners.push_back(i);
    }

    // Sub-slot by sub-slot arbitration. All concurrent copies of entry e
    // carry identical bytes, so this is always the constructive-
    // interference regime of net::ReceptionModel, inlined over the
    // packed transmitter set: a receiver fails only if every audible
    // copy fails, with the correlation knob degrading towards the
    // single-best case (same arithmetic, same RNG draws).
    slot_classes.clear();
    std::size_t slot_hits = 0;
    for (std::size_t e = 0; e < num_entries; ++e) {
      std::fill(scratch.entry_senders.begin(), scratch.entry_senders.end(),
                0);
      std::size_t sender_count = 0;
      for (NodeId i : scratch.tx_nodes) {
        if (bit_test(have_row(i), e)) {
          bit_set(scratch.entry_senders.data(), i);
          ++sender_count;
        }
      }
      if (sender_count == 0) continue;
      const bool new_class = max_slot_hits != nullptr &&
                             slot_classes.insert(scratch.entry_senders).second;
      for (NodeId r : scratch.listeners) {
        std::size_t heard = 0;
        double fail_product = 1.0;
        double single_prr = 0.0;
        if (sparse_topo) {
          // Sparse tier: only the receiver's stored in-links exist, as
          // word runs over the same ascending-transmitter order the
          // dense row scan visits — the fail_product chain and the RNG
          // draw below are identical either way.
          const double* in_prr = view.in_prr();
          for (const net::AudWord& aw : view.audible_entries(r)) {
            std::uint64_t m = aw.bits & scratch.entry_senders[aw.word];
            while (m != 0) {
              const std::uint64_t low = m & (~m + 1);
              m &= m - 1;
              const double p =
                  in_prr[aw.prr_off +
                         static_cast<std::size_t>(
                             std::popcount(aw.bits & (low - 1)))];
              ++heard;
              fail_product *= (1.0 - p);
              single_prr = p;
            }
          }
        } else {
          const std::uint64_t* audible = view.audible_words(r);
          const double* prr_in = view.prr_into(r);
          // Scan the sender/audibility masks four words per stride: one
          // OR rejects 256 absent transmitters at a time (the common
          // case — sender sets are sparse). Words within a surviving
          // stride are still visited in ascending order, so the
          // fail_product multiply chain — doubles, order-sensitive — is
          // untouched.
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
            const std::uint64_t m0 =
                scratch.entry_senders[w + 0] & audible[w + 0];
            const std::uint64_t m1 =
                scratch.entry_senders[w + 1] & audible[w + 1];
            const std::uint64_t m2 =
                scratch.entry_senders[w + 2] & audible[w + 2];
            const std::uint64_t m3 =
                scratch.entry_senders[w + 3] & audible[w + 3];
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
        if (heard == 0) continue;
        const double success_prob =
            heard == 1     ? single_prr
            : corr_is_one ? 1.0 - fail_product
                           : 1.0 - std::pow(fail_product, inv_corr);
        if (new_class && success_prob > 0.0) ++slot_hits;
        if (rng.next_bool(success_prob)) {
          scratch.received_any[r] = 1;
          if (!bit_test(have_row(r), e)) {
            bit_set(have_row(r), e);
            result.rx_slot[r][e] = static_cast<std::int32_t>(slot);
          }
        }
      }
    }
    if (max_slot_hits != nullptr) {
      *max_slot_hits = std::max(*max_slot_hits, slot_hits);
    }

    // Accounting: transmitters spend the chain slot sending the filled
    // sub-slots and guard-listening the rest; listeners spend the whole
    // chain slot in RX.
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

/// Jittered grid (6x6 by default) with shadowing: many distinct sender
/// sets per slot.
net::Topology make_oracle_grid(double correlation, bool sparse,
                               int side = 6) {
  net::RadioParams radio;
  radio.ct_loss_correlation = correlation;
  std::vector<net::Position> pos;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      pos.push_back(net::Position{c * 11.0 + (r % 2) * 2.5, r * 11.0});
    }
  }
  net::TopologyOptions options;
  if (sparse) {
    options.storage = net::TopologyStorage::kSparse;
    options.draw = net::LinkDraw::kSequential;
  }
  return net::Topology(std::move(pos), radio, 41, {}, options);
}

void expect_same_round(const net::Topology& topo,
                       const std::vector<ChainEntry>& entries,
                       const MiniCastConfig& cfg, std::uint64_t seed,
                       std::size_t* max_slot_hits = nullptr) {
  crypto::Xoshiro256 want_rng(seed);
  crypto::Xoshiro256 got_rng(seed);
  RoundContext want_ctx;
  RoundContext got_ctx;
  MiniCastResult want;
  MiniCastResult got;
  // Two rounds through the same contexts: the second runs on warm
  // (reused) class tables.
  for (int round = 0; round < 2; ++round) {
    MiniCastConfig round_cfg = cfg;
    round_cfg.start_time_us += static_cast<SimTime>(round) * 40'000;
    std::size_t round_hits = 0;
    reference_minicast_into(topo, entries, round_cfg, want_rng, want_ctx,
                            want, &round_hits);
    if (max_slot_hits != nullptr) {
      *max_slot_hits = std::max(*max_slot_hits, round_hits);
    }
    run_minicast_into(topo, entries, round_cfg, got_rng, got_ctx, got);
    ASSERT_EQ(got.rx_slot, want.rx_slot) << "round " << round;
    ASSERT_EQ(got.tx_count, want.tx_count);
    ASSERT_EQ(got.done_slot, want.done_slot);
    ASSERT_EQ(got.radio_on_us, want.radio_on_us);
    ASSERT_EQ(got.chain_slots_used, want.chain_slots_used);
    ASSERT_EQ(got.duration_us, want.duration_us);
    ASSERT_EQ(got_rng.next_u64(), want_rng.next_u64()) << "rng state";
  }
}

/// Three entries per node, origins interleaved (the sharing-chain shape).
std::vector<ChainEntry> oracle_entries(std::size_t n) {
  std::vector<ChainEntry> entries;
  for (std::size_t j = 0; j < 3; ++j) {
    for (NodeId i = 0; i < n; ++i) entries.push_back(ChainEntry{i});
  }
  return entries;
}

TEST(MiniCastOracle, ClassArbitrationMatchesPerListenerLoop) {
  for (const bool sparse : {false, true}) {
    for (const double correlation : {1.0, 1.2}) {
      SCOPED_TRACE(::testing::Message() << "sparse " << sparse
                                        << " correlation " << correlation);
      const net::Topology topo = make_oracle_grid(correlation, sparse);
      ASSERT_EQ(topo.sparse(), sparse);
      const auto entries = oracle_entries(topo.size());
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        MiniCastConfig cfg;
        cfg.initiator = 14;
        cfg.ntx = 4;
        expect_same_round(topo, entries, cfg, seed);

        // Dead nodes, slot-synchronized owners and early radio-off.
        cfg.disabled.assign(topo.size(), 0);
        cfg.disabled[3] = cfg.disabled[22] = 1;
        for (NodeId i = 0; i < topo.size(); i += 2) {
          cfg.scheduled_owners.push_back(i);
        }
        cfg.radio_policy = RadioPolicy::kEarlyOff;
        expect_same_round(topo, entries, cfg, seed);
      }
    }
  }
}

TEST(MiniCastOracle, ClassArbitrationMatchesUnderLinkDynamicsAndChurn) {
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "sparse " << sparse);
    const net::Topology topo = make_oracle_grid(1.2, sparse);
    sim::dynamics::LinkDynamicsParams link;
    link.seed = 5;
    link.epoch_us = 5 * kMillisecond;
    link.p_good_to_bad = 0.2;
    const sim::dynamics::LinkDynamics dynamics(link);
    sim::dynamics::NodeChurnParams churn_params;
    churn_params.seed = 6;
    churn_params.crashes_per_sec = 4.0;
    churn_params.mean_downtime_us = 30 * kMillisecond;
    churn_params.horizon_us = 10 * kSecond;
    const sim::dynamics::NodeChurn churn(topo.size(), churn_params);
    const auto entries = oracle_entries(topo.size());
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      MiniCastConfig cfg;
      cfg.initiator = 20;
      cfg.ntx = 4;
      cfg.start_time_us = 100 * kMillisecond;
      cfg.channel_model = &dynamics;
      cfg.liveness = &churn;
      for (NodeId i = 0; i < topo.size(); i += 3) {
        cfg.scheduled_owners.push_back(i);
      }
      expect_same_round(topo, entries, cfg, seed);
    }
  }
}

TEST(MiniCastOracle, FullClassTablesStartOverWithoutChangingTheRound) {
  // A 12x12 grid with three entries per node puts more hits in one
  // chain slot than the class tables hold, so that slot starts its
  // classes over at least once.
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "sparse " << sparse);
    const net::Topology topo = make_oracle_grid(1.2, sparse, 12);
    MiniCastConfig cfg;
    cfg.initiator = 66;
    cfg.ntx = 4;
    std::size_t max_slot_hits = 0;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      std::size_t hits = 0;
      expect_same_round(topo, oracle_entries(topo.size()), cfg, seed, &hits);
      max_slot_hits = std::max(max_slot_hits, hits);
    }
    EXPECT_GT(max_slot_hits, RoundContext::kClassHitBudget);
  }
}

}  // namespace
}  // namespace mpciot::ct
