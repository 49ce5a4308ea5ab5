// Soft-state delta machinery (core/delta.h, PROTOCOL v4): canonical image
// extraction, order-independent digests, diff/apply round trips under
// randomized churn, wire round trips, and the digest-mismatch detection the
// anti-entropy repair path (kNeedFull, answered with a full image) is built
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/delta.h"
#include "core/matcher.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::core {
namespace {

using model::Schema;
using model::SubId;
using model::Subscription;

struct Fixture {
  Schema schema = workload::stock_schema();
  workload::SubscriptionGenerator gen;
  uint32_t next_local = 0;

  explicit Fixture(uint64_t seed, double subsumption = 0.6) : gen(schema, params(subsumption), seed) {}

  static workload::SubGenParams params(double subsumption) {
    workload::SubGenParams sp;
    sp.subsumption = subsumption;
    sp.range_tightness = 0.3;  // exercise AACS splitting in the images
    return sp;
  }

  /// Adds `count` generated subscriptions to `s`, returning their ids.
  std::vector<SubId> grow(BrokerSummary& s, size_t count, uint32_t broker = 0) {
    std::vector<SubId> ids;
    for (size_t i = 0; i < count; ++i) {
      const Subscription sub = gen.next();
      const SubId id{broker, next_local++, sub.mask()};
      s.add(sub, id);
      ids.push_back(id);
    }
    return ids;
  }
};

TEST(Delta, ImageRoundTripAndMergeRebuild) {
  Fixture fx(11);
  BrokerSummary s(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
  fx.grow(s, 80);

  const SummaryImage img = extract_image(s);
  EXPECT_FALSE(img.empty());
  const BrokerSummary rebuilt = build_summary(img, fx.schema);
  EXPECT_EQ(extract_image(rebuilt), img);
  EXPECT_EQ(summary_digest(rebuilt), image_digest(img));

  // merge_into_summary on an empty summary is build_summary.
  BrokerSummary merged(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
  merge_into_summary(img, merged);
  EXPECT_EQ(extract_image(merged), img);
}

TEST(Delta, DigestIsOrderIndependent) {
  Fixture fx(23);
  BrokerSummary a(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
  std::vector<Subscription> subs;
  std::vector<SubId> ids;
  for (size_t i = 0; i < 60; ++i) {
    subs.push_back(fx.gen.next());
    ids.push_back(SubId{0, static_cast<uint32_t>(i), subs.back().mask()});
    a.add(subs[i], ids[i]);
  }
  // Same set inserted in reverse order: same digest, regardless of the
  // insertion-history-dependent internals.
  BrokerSummary b(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
  for (size_t i = subs.size(); i-- > 0;) b.add(subs[i], ids[i]);
  EXPECT_EQ(summary_digest(a), summary_digest(b));

  // Removing one subscription changes it.
  b.remove(ids[17]);
  EXPECT_NE(summary_digest(a), summary_digest(b));
}

TEST(Delta, DiffOfEqualImagesIsEmpty) {
  Fixture fx(31);
  BrokerSummary s(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
  fx.grow(s, 40);
  const SummaryImage img = extract_image(s);
  const SummaryDelta d = diff_images(img, img);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.edit_count(), 0u);
}

/// Fuzz: random churn (adds + removes) on a summary; diff against the
/// previous image must apply to exactly the new image, digest included —
/// the invariant the delta-announcement path stakes its correctness on.
TEST(Delta, FuzzDiffApplyEqualsRebuild) {
  for (const uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    Fixture fx(seed);
    util::Rng rng(seed * 977 + 5);
    BrokerSummary s(fx.schema, GeneralizePolicy::kSafe,
                    seed % 2 ? AacsMode::kExact : AacsMode::kCoarse);
    std::vector<SubId> live = fx.grow(s, 50);

    SummaryImage shadow = extract_image(s);
    for (int round = 0; round < 12; ++round) {
      // Random adds and removes, occasionally drastic.
      const size_t adds = rng.below(20);
      const size_t removes = std::min<size_t>(rng.below(25), live.size());
      for (const SubId id : fx.grow(s, adds)) live.push_back(id);
      for (size_t i = 0; i < removes; ++i) {
        const size_t victim = rng.below(live.size());
        s.remove(live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }

      const SummaryImage target = extract_image(s);
      const SummaryDelta d = diff_images(shadow, target);
      apply_delta(shadow, d);
      ASSERT_EQ(shadow, target) << "seed " << seed << " round " << round;
      ASSERT_EQ(image_digest(shadow), image_digest(target));
    }
  }
}

TEST(Delta, WireRoundTripWithHeader) {
  Fixture fx(55);
  BrokerSummary s(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
  const std::vector<SubId> first = fx.grow(s, 30);
  const SummaryImage before = extract_image(s);
  fx.grow(s, 10);
  for (int i = 0; i < 5; ++i) s.remove(first[static_cast<size_t>(i) * 3]);
  const SummaryImage after = extract_image(s);

  const SummaryDelta d = diff_images(before, after);
  // Width 8: the generator draws arbitrary f64 bounds (range_tightness),
  // which a 4-byte numeric wire would quantize.
  const WireConfig cfg{model::SubIdCodec(4, 4096, fx.schema.attr_count()), 8};
  DeltaHeader hdr;
  hdr.epoch = 3;
  hdr.base_version = 17;
  hdr.new_version = 29;
  hdr.base_digest = image_digest(before);
  hdr.new_digest = image_digest(after);
  const auto bytes = encode_delta(d, fx.schema, cfg, hdr);

  DeltaHeader got;
  const SummaryDelta decoded = decode_delta(bytes, fx.schema, &got);
  EXPECT_EQ(decoded, d);
  EXPECT_EQ(got.epoch, hdr.epoch);
  EXPECT_EQ(got.base_version, hdr.base_version);
  EXPECT_EQ(got.new_version, hdr.new_version);
  EXPECT_EQ(got.base_digest, hdr.base_digest);
  EXPECT_EQ(got.new_digest, hdr.new_digest);

  // Applying the decoded delta to the base lands on the advertised digest.
  SummaryImage img = before;
  apply_delta(img, decoded);
  EXPECT_EQ(image_digest(img), got.new_digest);
}

/// The repair trigger: a delta applied to the WRONG base leaves the digest
/// off the sender's stamp (detected), never crashes — apply_delta is total.
TEST(Delta, StaleBaseSurfacesAsDigestMismatch) {
  for (const uint64_t seed : {3ull, 19ull, 77ull}) {
    Fixture fx(seed, 0.5);
    util::Rng rng(seed ^ 0xABCDEF);
    BrokerSummary s(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
    std::vector<SubId> live = fx.grow(s, 40);
    const SummaryImage base = extract_image(s);

    // Sender moves on twice; receiver missed the first step.
    fx.grow(s, 8);
    const SummaryImage mid = extract_image(s);
    for (size_t i = 0; i < 10 && !live.empty(); ++i) {
      const size_t victim = rng.below(live.size());
      s.remove(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
    fx.grow(s, 5);
    const SummaryImage target = extract_image(s);

    const SummaryDelta step2 = diff_images(mid, target);
    SummaryImage stale = base;  // receiver never saw `mid`
    apply_delta(stale, step2);  // must not throw
    EXPECT_NE(image_digest(stale), image_digest(target))
        << "stale apply happened to collide; seed " << seed;

    // Repair: the sender's full image replaces the shadow outright.
    stale = target;
    EXPECT_EQ(image_digest(stale), image_digest(target));
  }
}

/// Deltas between match-relevant states keep the rebuilt summary
/// match-equivalent to the live one (safety of the shadow-merge path).
TEST(Delta, AppliedShadowIsMatchEquivalent) {
  Fixture fx(91);
  BrokerSummary s(fx.schema, GeneralizePolicy::kSafe, AacsMode::kExact);
  std::vector<SubId> live = fx.grow(s, 60);
  SummaryImage shadow = extract_image(s);
  fx.grow(s, 15);
  for (int i = 0; i < 10; ++i) {
    s.remove(live[static_cast<size_t>(i) * 3]);
  }
  apply_delta(shadow, diff_images(shadow, extract_image(s)));
  const BrokerSummary rebuilt = build_summary(shadow, fx.schema);
  EXPECT_EQ(extract_image(rebuilt), extract_image(s));
}

TEST(Delta, ChurnPermutationIsDeterministicAndComplete) {
  const auto p1 = workload::churn_permutation(257, 99);
  const auto p2 = workload::churn_permutation(257, 99);
  EXPECT_EQ(p1, p2);
  const auto p3 = workload::churn_permutation(257, 100);
  EXPECT_NE(p1, p3);
  auto sorted = p1;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Delta, ChurnStreamIsDeterministic) {
  const Schema schema = workload::stock_schema();
  workload::ChurnParams cp;
  cp.subscribe_rate = 20;
  cp.unsubscribe_rate = 15;
  cp.flash_crowd_prob = 0.3;
  workload::ChurnStream a(schema, {}, cp, 7);
  workload::ChurnStream b(schema, {}, cp, 7);
  bool saw_flash = false;
  for (int i = 0; i < 20; ++i) {
    auto pa = a.next_period();
    auto pb = b.next_period();
    EXPECT_EQ(pa.subscribes.size(), pb.subscribes.size());
    EXPECT_EQ(pa.unsubscribes, pb.unsubscribes);
    EXPECT_EQ(pa.flash_crowd, pb.flash_crowd);
    EXPECT_EQ(a.pick_victim_index(100), b.pick_victim_index(100));
    saw_flash |= pa.flash_crowd;
  }
  EXPECT_TRUE(saw_flash);
}

}  // namespace
}  // namespace subsum::core
