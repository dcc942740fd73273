#include "net/channel_model.hpp"

#include "common/assert.hpp"
#include "net/topology.hpp"

namespace mpciot::net {

void ChannelView::bind(const Topology& topo, const ChannelModel* model) {
  // Rebinding the same (topo, model) keeps the walked chain state: a
  // trial's rounds on one topology have increasing start times, so the
  // next round's first seek continues the walk instead of replaying it
  // from epoch 0. (A backwards seek after such a rebind restarts the
  // walk — see seek().)
  const bool same = topo_ == &topo && model_ == model;
  topo_ = &topo;
  model_ = model;
  sparse_ = topo.sparse();
  n_ = topo.size();
  words_ = topo.node_words();
  if (model_ == nullptr) {
    // Static channel: alias the frozen tables, nothing ever re-fills.
    tables_.epoch = LinkEpochTables::kNoEpoch;
    if (sparse_) {
      out_prr_base_ = topo.out_prr_data();
      in_prr_base_ = topo.in_prr_data();
    } else {
      prr_base_ = topo.prr_data();
      prr_in_base_ = topo.prr_into(0);
      rx_words_base_ = topo.audible_words(0);
    }
    return;
  }
  MPCIOT_REQUIRE(model_->epoch_us() > 0,
                 "ChannelView: model epoch must be positive");
  if (same && tables_.epoch != LinkEpochTables::kNoEpoch) return;
  tables_.epoch = LinkEpochTables::kNoEpoch;
  tables_.state_bits.clear();
  tables_.state_keys.clear();
  tables_.state_reals.clear();
  seek(0);
}

void ChannelView::seek(SimTime t) {
  if (model_ == nullptr) return;
  const std::uint64_t epoch =
      t <= 0 ? 0 : static_cast<std::uint64_t>(t / model_->epoch_us());
  if (tables_.epoch != LinkEpochTables::kNoEpoch) {
    if (epoch == tables_.epoch) return;
    if (epoch < tables_.epoch) {
      // Backwards seek (a rebound view serving a round that starts
      // before the last one it served): restart the walk from scratch.
      // Epoch state is a pure function of (seed, epoch, link), so this
      // reproduces the exact same tables — it only costs the re-walk.
      tables_.epoch = LinkEpochTables::kNoEpoch;
      tables_.state_bits.clear();
      tables_.state_keys.clear();
      tables_.state_reals.clear();
    }
  }
  model_->materialize(*topo_, epoch, tables_);
  tables_.epoch = epoch;
  point_at_tables();
}

void ChannelView::point_at_tables() {
  if (sparse_) {
    out_prr_base_ = tables_.out_prr.data();
    in_prr_base_ = tables_.in_prr.data();
  } else {
    prr_base_ = tables_.prr.data();
    prr_in_base_ = tables_.prr_in.data();
    rx_words_base_ = tables_.rx_words.data();
  }
}

}  // namespace mpciot::net
