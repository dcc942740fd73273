// The channel dimension of the CT layer: configs carry a channel, the
// engines echo it into their results, and ChannelTimeline lays
// same-channel rounds out sequentially while distinct channels overlap.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "ct/glossy.hpp"
#include "ct/minicast.hpp"
#include "ct/transport.hpp"
#include "net/testbeds.hpp"

namespace mpciot::ct {
namespace {

net::Topology make_grid9() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      pos.push_back(net::Position{c * 12.0, r * 12.0});
    }
  }
  return net::Topology(std::move(pos), radio, 7);
}

TEST(Channel, MiniCastEchoesChannel) {
  const net::Topology topo = make_grid9();
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.channel = 11;
  crypto::Xoshiro256 rng(1);
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  EXPECT_EQ(res.channel, 11u);
}

TEST(Channel, GlossyEchoesChannel) {
  const net::Topology topo = make_grid9();
  GlossyConfig cfg;
  cfg.initiator = 0;
  cfg.channel = 5;
  crypto::Xoshiro256 rng(1);
  EXPECT_EQ(run_glossy(topo, cfg, rng).channel, 5u);
}

TEST(Channel, EveryTransportEchoesChannel) {
  const net::Topology topo = make_grid9();
  for (const std::string& name : transport_names()) {
    const auto transport = make_transport(name);
    GlossyConfig fcfg;
    fcfg.initiator = 0;
    fcfg.channel = 3;
    crypto::Xoshiro256 rng(2);
    EXPECT_EQ(transport->flood(topo, fcfg, rng).channel, 3u) << name;

    MiniCastConfig ccfg;
    ccfg.initiator = 0;
    ccfg.channel = 9;
    crypto::Xoshiro256 rng2(3);
    EXPECT_EQ(transport
                  ->chain_round(topo, {ChainEntry{0}, ChainEntry{4}}, ccfg,
                                rng2)
                  .channel,
              9u)
        << name;
  }
}

TEST(Channel, ChannelDoesNotPerturbTheRound) {
  // The channel is layout metadata: the same rng must produce the same
  // round regardless of the channel number.
  const net::Topology topo = make_grid9();
  MiniCastConfig a;
  a.initiator = 0;
  MiniCastConfig b = a;
  b.channel = 7;
  crypto::Xoshiro256 rng_a(9);
  crypto::Xoshiro256 rng_b(9);
  const MiniCastResult ra =
      run_minicast(topo, {ChainEntry{0}, ChainEntry{8}}, a, rng_a);
  const MiniCastResult rb =
      run_minicast(topo, {ChainEntry{0}, ChainEntry{8}}, b, rng_b);
  EXPECT_EQ(ra.rx_slot, rb.rx_slot);
  EXPECT_EQ(ra.duration_us, rb.duration_us);
  EXPECT_EQ(ra.radio_on_us, rb.radio_on_us);
}

TEST(ChannelTimeline, SameChannelSerializes) {
  ChannelTimeline timeline(1);
  EXPECT_EQ(timeline.book(0, 100), 0);
  EXPECT_EQ(timeline.book(0, 50), 100);
  EXPECT_EQ(timeline.channel_end_us(0), 150);
  EXPECT_EQ(timeline.end_us(), 150);
}

TEST(ChannelTimeline, DistinctChannelsOverlap) {
  ChannelTimeline timeline(3);
  EXPECT_EQ(timeline.book(0, 100), 0);
  EXPECT_EQ(timeline.book(1, 70), 0);
  EXPECT_EQ(timeline.book(2, 30), 0);
  EXPECT_EQ(timeline.book(2, 10), 30);
  EXPECT_EQ(timeline.end_us(), 100);
}

TEST(ChannelTimeline, EarliestConstraintDelaysBooking) {
  ChannelTimeline timeline(2);
  EXPECT_EQ(timeline.book(0, 10, /*earliest_us=*/500), 500);
  EXPECT_EQ(timeline.book(0, 10, /*earliest_us=*/100), 510);
  EXPECT_EQ(timeline.channel_end_us(1), 0);
}

TEST(ChannelTimeline, ZeroDurationBookingsTakeNoTime) {
  // A zero-duration op books the current end and moves nothing: later
  // bookings (same or other channel) must be unaffected, including a
  // zero-duration op under an `earliest` constraint beyond the end.
  ChannelTimeline timeline(2);
  EXPECT_EQ(timeline.book(0, 0), 0);
  EXPECT_EQ(timeline.channel_end_us(0), 0);
  EXPECT_EQ(timeline.book(0, 100), 0);
  EXPECT_EQ(timeline.book(0, 0), 100);
  EXPECT_EQ(timeline.channel_end_us(0), 100);
  EXPECT_EQ(timeline.book(0, 0, /*earliest_us=*/250), 250);
  EXPECT_EQ(timeline.channel_end_us(0), 250);
  EXPECT_EQ(timeline.book(1, 0), 0);
  EXPECT_EQ(timeline.channel_end_us(1), 0);
  EXPECT_EQ(timeline.end_us(), 250);
}

TEST(ChannelTimeline, SameChannelInterleaveKeepsBookingOrder) {
  // Bookings alternating across channels: each channel's sequence must
  // stay contiguous and ordered exactly as booked, with the other
  // channel's bookings invisible to it.
  ChannelTimeline timeline(3);
  SimTime c0 = 0;
  SimTime c1 = 0;
  for (int i = 1; i <= 6; ++i) {
    const std::uint16_t ch = i % 2;
    const SimTime dur = 10 * i;
    const SimTime start = timeline.book(ch, dur);
    SimTime& cursor = ch == 0 ? c0 : c1;
    EXPECT_EQ(start, cursor) << "booking " << i;
    cursor += dur;
  }
  EXPECT_EQ(timeline.channel_end_us(0), 20 + 40 + 60);
  EXPECT_EQ(timeline.channel_end_us(1), 10 + 30 + 50);
  EXPECT_EQ(timeline.channel_end_us(2), 0);  // untouched channel stays empty
  EXPECT_EQ(timeline.end_us(), 120);

  // An earliest-constraint on one channel must not leak into the other.
  EXPECT_EQ(timeline.book(0, 5, /*earliest_us=*/500), 500);
  EXPECT_EQ(timeline.channel_end_us(1), 90);
  EXPECT_EQ(timeline.end_us(), 505);
}

TEST(ChannelTimeline, RejectsBadArguments) {
  ChannelTimeline timeline(2);
  EXPECT_THROW(timeline.book(2, 10), ContractViolation);
  EXPECT_THROW(timeline.channel_end_us(5), ContractViolation);
  EXPECT_THROW(ChannelTimeline(0), ContractViolation);
}

}  // namespace
}  // namespace mpciot::ct
