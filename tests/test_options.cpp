// Tests for the configurable semantics added around the paper's core:
// AacsMode (coarse row absorption vs exact partition), the Algorithm-2
// propagation options (neighbor preference, delivery timing), the workload
// range_tightness knob, and the matching_event derivation helper.
#include <gtest/gtest.h>

#include <set>

#include "core/delta.h"
#include "core/matcher.h"
#include "core/serialize.h"
#include "overlay/topologies.h"
#include "routing/event_router.h"
#include "routing/propagation.h"
#include "util/rng.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum {
namespace {

using core::AacsMode;
using core::BrokerSummary;
using model::Op;
using model::Schema;
using model::SubId;
using model::Subscription;
using model::SubscriptionBuilder;
using overlay::BrokerId;

Schema schema_v() { return workload::stock_schema(); }

TEST(CoarseAacs, IncludedConstraintJoinsExistingRow) {
  core::Aacs a(AacsMode::kCoarse);
  const SubId wide{0, 1, 0};
  const SubId inner{0, 2, 0};
  a.insert(core::Interval{core::Pos::at(0), core::Pos::at(100)}, std::vector<SubId>{wide});
  a.insert(core::Interval{core::Pos::at(10), core::Pos::at(20)},
           std::vector<SubId>{inner});
  // One row; the inner constraint was absorbed.
  ASSERT_EQ(a.pieces().size(), 1u);
  EXPECT_EQ(a.pieces()[0].ids, (std::vector<SubId>{wide, inner}));
  // Lossy in the safe direction: 50 is outside [10,20] but reports inner.
  ASSERT_NE(a.find(50), nullptr);
  EXPECT_EQ(a.find(50)->size(), 2u);
}

TEST(CoarseAacs, NonIncludedConstraintSplitsExactly) {
  core::Aacs a(AacsMode::kCoarse);
  a.insert(core::Interval{core::Pos::at(0), core::Pos::at(10)},
           std::vector<SubId>{SubId{0, 1, 0}});
  // Overlapping but not included: falls back to exact splitting.
  a.insert(core::Interval{core::Pos::at(5), core::Pos::at(15)},
           std::vector<SubId>{SubId{0, 2, 0}});
  EXPECT_EQ(a.pieces().size(), 3u);
  EXPECT_EQ(a.find(12)->size(), 1u);  // only the second id out there
}

TEST(CoarseAacs, EqualityInsideRangeAbsorbed) {
  core::Aacs a(AacsMode::kCoarse);
  a.insert(core::Interval{core::Pos::at(0), core::Pos::at(10)},
           std::vector<SubId>{SubId{0, 1, 0}});
  a.insert(core::IntervalSet::from_constraint(Op::kEq, 5.0), SubId{0, 2, 0});
  // Paper: AACS_E is only for equality values NOT included in the ranges.
  EXPECT_EQ(a.pieces().size(), 1u);
  EXPECT_EQ(a.ne(), 0u);
  a.insert(core::IntervalSet::from_constraint(Op::kEq, 50.0), SubId{0, 3, 0});
  EXPECT_EQ(a.ne(), 1u);
}

TEST(CoarseAacs, NeverFalseNegative) {
  // Coarse lookups are a superset of exact lookups on any insert sequence.
  util::Rng rng(404);
  core::Aacs coarse(AacsMode::kCoarse);
  core::Aacs exact(AacsMode::kExact);
  for (uint32_t i = 0; i < 300; ++i) {
    const double a = static_cast<double>(rng.range_i64(-20, 20));
    const double b = a + static_cast<double>(rng.below(10));
    const core::Interval iv{core::Pos::at(a), core::Pos::at(b)};
    const SubId id{0, i, 0};
    coarse.insert(iv, std::vector<SubId>{id});
    exact.insert(iv, std::vector<SubId>{id});
  }
  for (double x = -25; x <= 35; x += 0.5) {
    const auto* c = coarse.find(x);
    const auto* e = exact.find(x);
    if (!e) continue;
    ASSERT_NE(c, nullptr) << x;
    EXPECT_TRUE(std::includes(c->begin(), c->end(), e->begin(), e->end())) << x;
  }
}

TEST(CoarseSummary, EndToEndSupersetAndHomeFilterExact) {
  // Wide range subscribed first, tight windows after: coarse absorption
  // triggers on every window, producing arithmetic false positives that
  // must always stay on the safe (superset) side.
  const Schema s = schema_v();
  util::Rng rng(70);
  BrokerSummary coarse(s, core::GeneralizePolicy::kSafe, AacsMode::kCoarse);
  core::NaiveMatcher naive;
  uint32_t next = 0;
  auto install = [&](Subscription sub) {
    const SubId id{0, next++, sub.mask()};
    coarse.add(sub, id);
    naive.add({id, std::move(sub)});
  };
  install(SubscriptionBuilder(s)
              .where("price", Op::kGe, 0.0)
              .where("price", Op::kLe, 100.0)
              .build());
  for (int i = 0; i < 300; ++i) {
    const double a = rng.range_f64(0.0, 90.0);
    install(SubscriptionBuilder(s)
                .where("price", Op::kGe, a)
                .where("price", Op::kLe, a + 10.0)
                .build());
  }
  size_t fp = 0;
  for (int i = 0; i < 200; ++i) {
    const auto e =
        model::EventBuilder(s).set("price", rng.range_f64(-5.0, 105.0)).build();
    const auto approx = core::match(coarse, e);
    const auto exact = naive.match(e);
    EXPECT_TRUE(std::includes(approx.begin(), approx.end(), exact.begin(), exact.end()));
    fp += approx.size() - exact.size();
  }
  // The lossy mode must actually be exercised by this workload.
  EXPECT_GT(fp, 0u);
}

TEST(RangeTightness, ZeroReusesCanonicalRanges) {
  const Schema s = schema_v();
  workload::SubGenParams sp;
  sp.subsumption = 1.0;
  sp.range_tightness = 0.0;
  workload::SubscriptionGenerator gen(s, sp, 11);
  BrokerSummary summary(s);
  for (uint32_t i = 0; i < 200; ++i) {
    const auto sub = gen.next();
    summary.add(sub, SubId{0, i, sub.mask()});
  }
  // Every arithmetic constraint is one of the nsr = 2 canonical ranges:
  // row count stays bounded by attrs * nsr even in exact mode.
  const auto st = summary.stats();
  EXPECT_LE(st.nsr, s.arithmetic_count() * 2);
  EXPECT_EQ(st.ne, 0u);
}

TEST(RangeTightness, PositiveSplitsExactPartition) {
  const Schema s = schema_v();
  workload::SubGenParams sp;
  sp.subsumption = 1.0;
  sp.range_tightness = 0.5;
  workload::SubscriptionGenerator gen(s, sp, 12);
  BrokerSummary summary(s);  // exact mode
  for (uint32_t i = 0; i < 200; ++i) {
    const auto sub = gen.next();
    summary.add(sub, SubId{0, i, sub.mask()});
  }
  EXPECT_GT(summary.stats().nsr, s.arithmetic_count() * 2);
}

TEST(MatchingEvent, SatisfiesArbitraryGeneratedSubscriptions) {
  const Schema s = schema_v();
  for (double subsumption : {0.1, 0.5, 0.9}) {
    workload::SubGenParams sp;
    sp.subsumption = subsumption;
    workload::SubscriptionGenerator gen(s, sp, 81);
    size_t produced = 0;
    for (int i = 0; i < 200; ++i) {
      const auto sub = gen.next();
      const auto e = workload::matching_event(s, sub);
      if (!e) continue;  // nullopt allowed, a lie is not
      EXPECT_TRUE(sub.matches(*e)) << sub.to_string(s) << " vs " << e->to_string(s);
      ++produced;
    }
    EXPECT_GT(produced, 150u);  // derivation succeeds for typical workloads
  }
}

TEST(MatchingEvent, HandlesTrickyConstraints) {
  const Schema s = schema_v();
  // Open float interval.
  auto sub = SubscriptionBuilder(s)
                 .where("price", Op::kGt, 1.0)
                 .where("price", Op::kLt, 1.0000001)
                 .build();
  if (auto e = workload::matching_event(s, sub)) {
    EXPECT_TRUE(sub.matches(*e));
  }

  // Integer attribute with an open interval containing integers.
  sub = SubscriptionBuilder(s)
            .where("volume", Op::kGt, int64_t{10})
            .where("volume", Op::kLt, int64_t{12})
            .build();
  auto e = workload::matching_event(s, sub);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(sub.matches(*e));

  // Integer attribute with an open interval containing NO integer.
  sub = SubscriptionBuilder(s)
            .where("volume", Op::kGt, int64_t{10})
            .where("volume", Op::kLt, int64_t{11})
            .build();
  EXPECT_FALSE(workload::matching_event(s, sub).has_value());

  // Unsatisfiable.
  sub = SubscriptionBuilder(s)
            .where("price", Op::kGt, 5.0)
            .where("price", Op::kLt, 1.0)
            .build();
  EXPECT_FALSE(workload::matching_event(s, sub).has_value());

  // Prefix + suffix + not-equal conjunction.
  sub = SubscriptionBuilder(s)
            .where("symbol", Op::kPrefix, "AB")
            .where("symbol", Op::kSuffix, "YZ")
            .where("symbol", Op::kNe, "ABYZ")
            .build();
  e = workload::matching_event(s, sub);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(sub.matches(*e));

  // Negative equality on a float.
  sub = SubscriptionBuilder(s).where("price", Op::kNe, 0.0).build();
  e = workload::matching_event(s, sub);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(sub.matches(*e));
}

TEST(PropagationOptions, ImmediateDeliveryComposesChains) {
  // Line of four equal-degree middles: under deferred delivery the pairs
  // swap; under immediate delivery the chain concatenates left-to-right.
  const Schema s = schema_v();
  const auto g = overlay::line(6);
  std::vector<BrokerSummary> own;
  for (BrokerId b = 0; b < g.size(); ++b) {
    BrokerSummary summary(s);
    const auto sub =
        SubscriptionBuilder(s).where("symbol", Op::kEq, "b" + std::to_string(b)).build();
    summary.add(sub, SubId{b, 0, sub.mask()});
    own.push_back(std::move(summary));
  }
  const core::WireConfig wire{model::SubIdCodec(6, 16, s.attr_count()), 8};

  routing::PropagationOptions deferred;
  routing::PropagationOptions immediate;
  immediate.immediate_delivery = true;

  const auto d = routing::propagate(g, own, wire, deferred);
  const auto i = routing::propagate(g, own, wire, immediate);

  size_t d_best = 0, i_best = 0;
  for (BrokerId b = 0; b < g.size(); ++b) {
    d_best = std::max(d_best, d.merged_brokers[b].size());
    i_best = std::max(i_best, i.merged_brokers[b].size());
  }
  EXPECT_GT(i_best, d_best);  // chains compose: some broker knows more
  // Both remain covering and self-inclusive.
  for (const auto& result : {d, i}) {
    std::set<BrokerId> covered;
    for (const auto& mb : result.merged_brokers) covered.insert(mb.begin(), mb.end());
    EXPECT_EQ(covered.size(), g.size());
  }
}

TEST(PropagationOptions, LargestDegreePreferenceStillCovers) {
  const Schema s = schema_v();
  util::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = overlay::random_tree(20, rng);
    std::vector<BrokerSummary> own;
    for (BrokerId b = 0; b < g.size(); ++b) {
      BrokerSummary summary(s);
      const auto sub =
          SubscriptionBuilder(s).where("symbol", Op::kEq, "b" + std::to_string(b)).build();
      summary.add(sub, SubId{b, 0, sub.mask()});
      own.push_back(std::move(summary));
    }
    const core::WireConfig wire{model::SubIdCodec(20, 16, s.attr_count()), 8};
    for (auto pref : {routing::NeighborPreference::kSmallestDegree,
                      routing::NeighborPreference::kLargestDegree}) {
      for (bool imm : {false, true}) {
        routing::PropagationOptions opts;
        opts.preference = pref;
        opts.immediate_delivery = imm;
        const auto r = routing::propagate(g, own, wire, opts);
        std::set<BrokerId> covered;
        for (const auto& mb : r.merged_brokers) covered.insert(mb.begin(), mb.end());
        EXPECT_EQ(covered.size(), g.size());
        EXPECT_LE(r.hops(), g.size());
        // Knowledge soundness under every variant.
        for (BrokerId b = 0; b < g.size(); ++b) {
          for (BrokerId x : r.merged_brokers[b]) {
            const auto e = model::EventBuilder(s)
                               .set("symbol", "b" + std::to_string(x))
                               .build();
            EXPECT_EQ(core::match(r.held[b], e).size(), 1u);
          }
        }
      }
    }
  }
}

TEST(PropagationOptions, Fig7UnchangedByImmediateDelivery) {
  // The paper's walkthrough has no same-iteration chains, so both delivery
  // semantics produce identical results on the figure-7 tree.
  const Schema s = schema_v();
  const auto g = overlay::fig7_tree();
  std::vector<BrokerSummary> own;
  for (BrokerId b = 0; b < g.size(); ++b) {
    BrokerSummary summary(s);
    const auto sub =
        SubscriptionBuilder(s).where("symbol", Op::kEq, "b" + std::to_string(b)).build();
    summary.add(sub, SubId{b, 0, sub.mask()});
    own.push_back(std::move(summary));
  }
  const core::WireConfig wire{model::SubIdCodec(13, 16, s.attr_count()), 8};
  routing::PropagationOptions immediate;
  immediate.immediate_delivery = true;
  const auto a = routing::propagate(g, own, wire);
  const auto b = routing::propagate(g, own, wire, immediate);
  EXPECT_EQ(a.merged_brokers, b.merged_brokers);
  EXPECT_EQ(a.hops(), b.hops());
}

TEST(SerializeFuzz, RandomBytesNeverCrash) {
  const Schema s = schema_v();
  util::Rng rng(616);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::byte> junk(rng.below(200));
    for (auto& b : junk) b = std::byte{static_cast<uint8_t>(rng.below(256))};
    try {
      const auto summary = core::decode_summary(junk, s);
      (void)summary;  // accidentally valid input is fine
    } catch (const util::DecodeError&) {
    } catch (const std::invalid_argument&) {
    }
    try {
      const auto delta = core::decode_delta(junk, s);
      (void)delta;
    } catch (const util::DecodeError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(SerializeFuzz, MutatedValidSummariesNeverCrash) {
  const Schema s = schema_v();
  workload::SubscriptionGenerator gen(s, {}, 77);
  BrokerSummary summary(s);
  // A delta from the first 14 subscriptions to the last 14 drops rows,
  // adds ids and deletes ids.
  BrokerSummary base(s);
  BrokerSummary target(s);
  for (uint32_t i = 0; i < 20; ++i) {
    const auto sub = gen.next();
    summary.add(sub, SubId{1, i, sub.mask()});
    if (i < 14) base.add(sub, SubId{1, i, sub.mask()});
    if (i >= 6) target.add(sub, SubId{1, i, sub.mask()});
  }
  const core::WireConfig wire{model::SubIdCodec(24, 1u << 10, s.attr_count()), 8};
  const auto good = core::encode_summary(summary, wire);
  const auto good_delta = core::encode_delta(
      core::diff_images(core::extract_image(base), core::extract_image(target)), s, wire, {});
  const auto mutate = [](std::vector<std::byte> bytes, util::Rng& rng) {
    const size_t flips = 1 + rng.below(4);
    for (size_t i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] ^= std::byte{static_cast<uint8_t>(1 + rng.below(255))};
    }
    return bytes;
  };
  util::Rng rng(617);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto bad = mutate(good, rng);
    try {
      const auto decoded = core::decode_summary(bad, s);
      (void)decoded;
    } catch (const util::DecodeError&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::range_error&) {
    }
  }
  util::Rng delta_rng(618);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto bad = mutate(good_delta, delta_rng);
    try {
      const auto decoded = core::decode_delta(bad, s);
      (void)decoded;
    } catch (const util::DecodeError&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::range_error&) {
    }
  }
}

}  // namespace
}  // namespace subsum
