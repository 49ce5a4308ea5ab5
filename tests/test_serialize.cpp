#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "core/delta.h"
#include "core/matcher.h"
#include "core/serialize.h"
#include "net/protocol.h"
#include "util/crc32c.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::core {
namespace {

using model::Op;
using model::Schema;
using model::SubId;
using model::SubIdCodec;
using model::Subscription;
using model::SubscriptionBuilder;

Schema schema_v() { return workload::stock_schema(); }

WireConfig wire8(const Schema& s) {
  return {SubIdCodec(24, 1u << 20, s.attr_count()), 8};
}

BrokerSummary sample_summary(const Schema& s) {
  BrokerSummary summary(s);
  const Subscription s1 = SubscriptionBuilder(s)
                              .where("price", Op::kGt, 8.30)
                              .where("price", Op::kLt, 8.70)
                              .where("symbol", Op::kEq, "OTE")
                              .build();
  const Subscription s2 = SubscriptionBuilder(s)
                              .where("price", Op::kEq, 8.20)
                              .where("volume", Op::kGt, int64_t{130000})
                              .where("symbol", Op::kPrefix, "OT")
                              .where("exchange", Op::kNe, "NASDAQ")
                              .build();
  const Subscription s3 = SubscriptionBuilder(s)
                              .where("when", Op::kNe, int64_t{0})
                              .where("sector", Op::kContains, "tech")
                              .build();
  summary.add(s1, SubId{3, 7, s1.mask()});
  summary.add(s2, SubId{3, 8, s2.mask()});
  summary.add(s3, SubId{11, 2, s3.mask()});
  return summary;
}

TEST(Serialize, RoundTripWidth8IsExact) {
  const Schema s = schema_v();
  const BrokerSummary summary = sample_summary(s);
  const auto bytes = encode_summary(summary, wire8(s));
  const BrokerSummary back = decode_summary(bytes, s);
  EXPECT_EQ(back, summary);
}

TEST(Serialize, RoundTripWidth4PreservesFloat32Values) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  // Values chosen exactly representable in float32.
  const Subscription sub = SubscriptionBuilder(s)
                               .where("price", Op::kGt, 8.5)
                               .where("price", Op::kLt, 10.25)
                               .where("volume", Op::kEq, int64_t{131072})
                               .build();
  summary.add(sub, SubId{0, 0, sub.mask()});
  WireConfig cfg{SubIdCodec(24, 1u << 20, s.attr_count()), 4};
  const BrokerSummary back = decode_summary(encode_summary(summary, cfg), s);
  EXPECT_EQ(back, summary);
}

TEST(Serialize, Width4RejectsOversizedIntegrals) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  const Subscription sub =
      SubscriptionBuilder(s).where("volume", Op::kEq, int64_t{1} << 40).build();
  summary.add(sub, SubId{0, 0, sub.mask()});
  WireConfig cfg{SubIdCodec(24, 1u << 20, s.attr_count()), 4};
  EXPECT_THROW(encode_summary(summary, cfg), std::range_error);
}

TEST(Serialize, Width4IsSmallerThanWidth8) {
  const Schema s = schema_v();
  const BrokerSummary summary = sample_summary(s);
  WireConfig cfg4{SubIdCodec(24, 1000, s.attr_count()), 4};
  EXPECT_LT(wire_size(summary, cfg4), wire_size(summary, wire8(s)));
}

TEST(Serialize, DecodedSummaryMatchesSameEvents) {
  const Schema s = schema_v();
  workload::SubscriptionGenerator gen(s, {}, 5);
  workload::EventGenerator events(s, gen.pools(), {}, 6);
  BrokerSummary summary(s);
  for (uint32_t i = 0; i < 100; ++i) {
    const Subscription sub = gen.next();
    summary.add(sub, SubId{2, i, sub.mask()});
  }
  const BrokerSummary back = decode_summary(encode_summary(summary, wire8(s)), s);
  for (int i = 0; i < 100; ++i) {
    const auto e = events.next();
    EXPECT_EQ(match(back, e), match(summary, e));
  }
}

TEST(Serialize, EmptySummaryRoundTrips) {
  const Schema s = schema_v();
  const BrokerSummary empty(s);
  const auto bytes = encode_summary(empty, wire8(s));
  EXPECT_EQ(decode_summary(bytes, s), empty);
  EXPECT_LT(bytes.size(), 40u);  // header + one varint 0 per attribute
}

TEST(Serialize, MalformedInputsThrow) {
  const Schema s = schema_v();
  const auto good = encode_summary(sample_summary(s), wire8(s));

  // Truncations at every prefix length must throw, never crash or accept.
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<std::byte> cut(good.begin(), good.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_summary(cut, s), util::DecodeError) << "prefix " << len;
  }

  // Bad version byte.
  auto bad = good;
  bad[0] = std::byte{99};
  EXPECT_THROW(decode_summary(bad, s), util::DecodeError);

  // Trailing garbage.
  bad = good;
  bad.push_back(std::byte{0});
  EXPECT_THROW(decode_summary(bad, s), util::DecodeError);

  // A c1 width no uint32 broker count produces (version, epoch and numeric
  // width precede it in the header), in a full image and in a delta, whose
  // header has five u64 fields where the image has its epoch.
  const auto good_delta = encode_delta(
      diff_images(extract_image(BrokerSummary(s)), extract_image(sample_summary(s))), s,
      wire8(s), {});
  for (const uint8_t c1 : {33, 40, 63, 64, 255}) {
    bad = good;
    bad[1 + 8 + 1] = std::byte{c1};
    EXPECT_THROW(decode_summary(bad, s), util::DecodeError) << "c1 " << int{c1};
    bad = good_delta;
    bad[1 + 5 * 8 + 1] = std::byte{c1};
    EXPECT_THROW(decode_delta(bad, s), util::DecodeError) << "delta c1 " << int{c1};
  }
}

/// Pins the summary-plane wire bytes: full images at both numeric widths
/// (±inf, open, closed and point pieces; SACS eq and pattern rows), a
/// delta with drop, add and del edits, and the kSummary / kSummaryDelta
/// frames that carry them. A mismatch is a wire-format change, which peers
/// and data dirs written by older builds cannot read (docs/PROTOCOL.md).
TEST(Serialize, WireBytesAreStable) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  const Subscription open_and_eq = SubscriptionBuilder(s)
                                       .where("price", Op::kGt, 8.25)
                                       .where("price", Op::kLt, 8.75)
                                       .where("symbol", Op::kEq, "OTE")
                                       .build();
  const Subscription point_and_pattern = SubscriptionBuilder(s)
                                             .where("price", Op::kEq, 8.5)
                                             .where("volume", Op::kGe, int64_t{131072})
                                             .where("symbol", Op::kPrefix, "OT")
                                             .where("exchange", Op::kNe, "NASDAQ")
                                             .build();
  const Subscription infinite = SubscriptionBuilder(s)
                                    .where("when", Op::kNe, int64_t{0})
                                    .where("low", Op::kLe, 10.5)
                                    .where("sector", Op::kContains, "tech")
                                    .where("currency", Op::kSuffix, "D")
                                    .build();
  summary.add(open_and_eq, SubId{3, 7, open_and_eq.mask()});
  summary.add(point_and_pattern, SubId{3, 8, point_and_pattern.mask()});
  summary.add(infinite, SubId{11, 2, infinite.mask()});
  const WireConfig w8 = wire8(s);
  const WireConfig w4{SubIdCodec(24, 1u << 20, s.attr_count()), 4};

  SummaryDelta delta;
  delta.arith.resize(s.attr_count());
  delta.strings.resize(s.attr_count());
  delta.arith[s.id_of("price")] = {
      {Interval{Pos::at(8.5), Pos::at(8.5)}, true, {}, {}},
      {Interval{Pos::at(1.0).succ(), Pos::pos_inf()}, false, {SubId{3, 9, 0x60}}, {}},
      {Interval{Pos::neg_inf(), Pos::at(2.0)}, false, {}, {SubId{11, 2, 0x31c}}}};
  delta.strings[s.id_of("symbol")] = {
      {StringPattern{Op::kEq, "OTE"}, true, {}, {}},
      {StringPattern{Op::kPrefix, "OT"}, false, {SubId{3, 9, 0x60}}, {SubId{3, 8, 0x63}}}};
  DeltaHeader hdr{5, 17, 18, 0x1234'5678'9abc'def0ull, 0x0fed'cba9'8765'4321ull};
  const auto delta_bytes = encode_delta(delta, s, w8, hdr);

  net::SummaryMsg full_frame;
  full_frame.from = 3;
  full_frame.merged_brokers = {3, 11};
  full_frame.epochs = {5, 0};
  full_frame.removals = {SubId{3, 6, 0x21}};
  full_frame.summary = encode_summary(summary, w8, 5);
  full_frame.version = 18;
  full_frame.digest = summary_digest(summary);
  net::SummaryDeltaMsg delta_frame;
  delta_frame.from = 3;
  delta_frame.merged_brokers = {3, 11};
  delta_frame.epochs = {5, 0};
  delta_frame.removals = {SubId{3, 6, 0x21}};
  delta_frame.delta = delta_bytes;

  const std::vector<std::pair<const char*, std::vector<std::byte>>> corpus = {
      {"summary_w8", encode_summary(summary, w8, 5)},
      {"summary_w4", encode_summary(summary, w4, 5)},
      {"delta", delta_bytes},
      {"kSummary", net::encode(full_frame)},
      {"kSummaryDelta", net::encode(delta_frame)},
  };
  const std::vector<uint32_t> want = {0xacb692db, 0xcb3caa19, 0x259a0178, 0xa94a78a2,
                                      0x597f7d42};
  ASSERT_EQ(corpus.size(), want.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::ostringstream got;
    got << "0x" << std::hex << std::setw(8) << std::setfill('0')
        << util::crc32c(corpus[i].second) << " over " << std::dec
        << corpus[i].second.size() << " bytes";
    EXPECT_EQ(util::crc32c(corpus[i].second), want[i]) << corpus[i].first << ": " << got.str();
  }
}

TEST(Serialize, WireSizeEqualsEncodedSize) {
  const Schema s = schema_v();
  const BrokerSummary summary = sample_summary(s);
  EXPECT_EQ(wire_size(summary, wire8(s)), encode_summary(summary, wire8(s)).size());
}

TEST(PaperSize, EquationsOnKnownCounts) {
  // Equation (1): (2*nsr + ne)*sst + La*sid; equation (2): nr*ssv + Ls*sid.
  SummaryStats st;
  st.nsr = 3;
  st.ne = 2;
  st.la_entries = 10;
  st.nr = 4;
  st.ls_entries = 6;
  st.value_bytes = 17;
  const PaperSizeParams p{4, 4, 10};
  const PaperSize sz = paper_size(st, p);
  EXPECT_EQ(sz.aacs_bytes, (2 * 3 + 2) * 4 + 10 * 4);
  EXPECT_EQ(sz.sacs_bytes, 4 * 10 + 6 * 4);
  EXPECT_EQ(sz.total(), sz.aacs_bytes + sz.sacs_bytes);

  const PaperSize measured = paper_size(st, p, /*measured_ssv=*/true);
  EXPECT_EQ(measured.sacs_bytes, 17 + 6 * 4);
}

TEST(PaperSize, TracksWireSizeWithinConstantFactor) {
  // The analytic model and the real encoding should agree within a small
  // factor (the wire adds flags/varints; the model adds ssv estimation).
  const Schema s = schema_v();
  workload::SubGenParams sp;
  sp.subsumption = 0.5;
  workload::SubscriptionGenerator gen(s, sp, 9);
  BrokerSummary summary(s);
  for (uint32_t i = 0; i < 500; ++i) {
    const Subscription sub = gen.next();
    summary.add(sub, SubId{0, i, sub.mask()});
  }
  WireConfig cfg{SubIdCodec(24, 1000, s.attr_count()), 4};
  const double wire = static_cast<double>(wire_size(summary, cfg));
  const double model =
      static_cast<double>(paper_size(summary.stats(), {4, 4, 10}, true).total());
  EXPECT_GT(wire / model, 0.5);
  EXPECT_LT(wire / model, 2.0);
}

}  // namespace
}  // namespace subsum::core
