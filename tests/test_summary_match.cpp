#include <gtest/gtest.h>

#include <algorithm>

#include "core/matcher.h"
#include "core/summary.h"
#include "model/event.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::core {
namespace {

using model::Event;
using model::EventBuilder;
using model::Op;
using model::Schema;
using model::SubId;
using model::Subscription;
using model::SubscriptionBuilder;

Schema schema_v() { return workload::stock_schema(); }

TEST(BrokerSummary, PaperExample1EndToEnd) {
  // Figures 2-4 + the worked example of §3.3: broker A has S1, S2; the
  // figure-2 event matches S1 only (S2 wants 4 attributes, only 2 satisfied).
  const Schema s = schema_v();
  BrokerSummary summary(s);

  const Subscription s1 = SubscriptionBuilder(s)
                              .where("exchange", Op::kSuffix, "SE")  // N*SE
                              .where("symbol", Op::kEq, "OTE")
                              .where("price", Op::kLt, 8.70)
                              .where("price", Op::kGt, 8.30)
                              .build();
  const Subscription s2 = SubscriptionBuilder(s)
                              .where("symbol", Op::kPrefix, "OT")
                              .where("price", Op::kEq, 8.20)
                              .where("volume", Op::kGt, int64_t{130000})
                              .where("low", Op::kLt, 8.05)
                              .build();
  const SubId id1{0, 1, s1.mask()};
  const SubId id2{0, 2, s2.mask()};
  summary.add(s1, id1);
  summary.add(s2, id2);

  // AACS for price: one range row (8.30, 8.70) + one equality row 8.20.
  EXPECT_EQ(summary.aacs(s.id_of("price")).nsr(), 1u);
  EXPECT_EQ(summary.aacs(s.id_of("price")).ne(), 1u);

  const Event e = EventBuilder(s)
                      .set("exchange", "NYSE")
                      .set("symbol", "OTE")
                      .set("when", int64_t{1057057525})
                      .set("price", 8.40)
                      .set("volume", int64_t{132700})
                      .set("high", 8.80)
                      .set("low", 8.22)
                      .build();

  MatchDiag diag;
  const auto matched = match(summary, e, &diag);
  EXPECT_EQ(matched, std::vector<SubId>{id1});
  // Step-1 collects: exchange->S1, symbol->S1+S2, price->S1, volume->S2.
  EXPECT_EQ(diag.ids_collected, 5u);
  EXPECT_EQ(diag.unique_ids, 2u);
  EXPECT_EQ(diag.attrs_satisfied, 4u);
}

TEST(BrokerSummary, IdMaskMustMatchSubscription) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  const Subscription sub = SubscriptionBuilder(s).where("price", Op::kGt, 1.0).build();
  EXPECT_THROW(summary.add(sub, SubId{0, 1, 0}), std::invalid_argument);
}

TEST(BrokerSummary, TypedAccessorsThrowOnWrongKind) {
  const Schema s = schema_v();
  const BrokerSummary summary(s);
  EXPECT_THROW((void)summary.aacs(s.id_of("symbol")), model::TypeError);
  EXPECT_THROW((void)summary.sacs(s.id_of("price")), model::TypeError);
  EXPECT_NO_THROW((void)summary.aacs(s.id_of("price")));
  EXPECT_NO_THROW((void)summary.sacs(s.id_of("symbol")));
}

TEST(BrokerSummary, UnsatisfiableArithmeticNeverMatches) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  const Subscription sub = SubscriptionBuilder(s)
                               .where("price", Op::kGt, 10.0)
                               .where("price", Op::kLt, 5.0)
                               .build();
  summary.add(sub, SubId{0, 1, sub.mask()});
  EXPECT_TRUE(match(summary, EventBuilder(s).set("price", 7.0).build()).empty());
  EXPECT_TRUE(summary.aacs(s.id_of("price")).empty());
}

TEST(BrokerSummary, RemoveErasesEverywhere) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  const Subscription sub = SubscriptionBuilder(s)
                               .where("price", Op::kGt, 1.0)
                               .where("symbol", Op::kEq, "OTE")
                               .build();
  const SubId id{0, 1, sub.mask()};
  summary.add(sub, id);
  EXPECT_FALSE(summary.empty());
  summary.remove(id);
  EXPECT_TRUE(summary.empty());
}

TEST(BrokerSummary, EventAttributeSubsetRule) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  const Subscription sub = SubscriptionBuilder(s)
                               .where("price", Op::kGt, 1.0)
                               .where("symbol", Op::kEq, "OTE")
                               .build();
  const SubId id{0, 1, sub.mask()};
  summary.add(sub, id);
  // Event carries only price: counter 1 < popcount(c3) 2 -> no match.
  EXPECT_TRUE(match(summary, EventBuilder(s).set("price", 2.0).build()).empty());
  // Both satisfied -> match, extra attributes allowed.
  EXPECT_EQ(match(summary, EventBuilder(s)
                               .set("price", 2.0)
                               .set("symbol", "OTE")
                               .set("volume", 1)
                               .build()),
            std::vector<SubId>{id});
}

TEST(BrokerSummary, MergeCombinesBrokers) {
  const Schema s = schema_v();
  BrokerSummary a(s), b(s);
  const Subscription sub1 = SubscriptionBuilder(s).where("price", Op::kGt, 1.0).build();
  const Subscription sub2 = SubscriptionBuilder(s).where("price", Op::kLt, 5.0).build();
  const SubId id1{1, 0, sub1.mask()};
  const SubId id2{2, 0, sub2.mask()};
  a.add(sub1, id1);
  b.add(sub2, id2);
  a.merge(b);
  const auto m = match(a, EventBuilder(s).set("price", 3.0).build());
  EXPECT_EQ(m, (std::vector<SubId>{id1, id2}));
}

TEST(BrokerSummary, MergeRequiresSameSchema) {
  const Schema s1 = schema_v();
  const Schema s2({{"x", model::AttrType::kInt}});
  BrokerSummary a(s1), b(s2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(BrokerSummary, RebuildShedsGeneralizationSlack) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  std::vector<model::OwnedSubscription> subs;

  const Subscription wide = SubscriptionBuilder(s).where("symbol", Op::kPrefix, "m").build();
  const Subscription narrow = SubscriptionBuilder(s).where("symbol", Op::kEq, "microsoft").build();
  const SubId wide_id{0, 0, wide.mask()};
  const SubId narrow_id{0, 1, narrow.mask()};
  summary.add(wide, wide_id);
  summary.add(narrow, narrow_id);
  subs.push_back({wide_id, wide});
  subs.push_back({narrow_id, narrow});

  // Remove the generalizing subscription; the lossy row lingers...
  summary.remove(wide_id);
  subs.erase(subs.begin());
  const auto lingering = match(summary, EventBuilder(s).set("symbol", "mango").build());
  EXPECT_EQ(lingering, std::vector<SubId>{narrow_id});  // false positive

  // ...until rebuild restores exactness.
  const BrokerSummary fresh = BrokerSummary::rebuild(s, GeneralizePolicy::kSafe, subs);
  EXPECT_TRUE(match(fresh, EventBuilder(s).set("symbol", "mango").build()).empty());
  EXPECT_EQ(match(fresh, EventBuilder(s).set("symbol", "microsoft").build()),
            std::vector<SubId>{narrow_id});
}

TEST(BrokerSummary, StatsAggregation) {
  const Schema s = schema_v();
  BrokerSummary summary(s);
  const Subscription sub = SubscriptionBuilder(s)
                               .where("price", Op::kGt, 8.30)
                               .where("price", Op::kLt, 8.70)
                               .where("volume", Op::kEq, int64_t{100})
                               .where("symbol", Op::kPrefix, "OT")
                               .build();
  summary.add(sub, SubId{0, 0, sub.mask()});
  const SummaryStats st = summary.stats();
  EXPECT_EQ(st.nsr, 1u);
  EXPECT_EQ(st.ne, 1u);
  EXPECT_EQ(st.nr, 1u);
  EXPECT_EQ(st.la_entries, 2u);
  EXPECT_EQ(st.ls_entries, 1u);
  EXPECT_EQ(st.value_bytes, 2u);
}

// ---------------------------------------------------------------------------
// The central correctness property (paper §3.3): summary matching never
// loses a match (no false negatives); with arithmetic-only subscriptions it
// is exact.
// ---------------------------------------------------------------------------

struct PropertyCase {
  uint64_t seed;
  double subsumption;
  GeneralizePolicy policy;
};

class MatchProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MatchProperty, SupersetOfExactAndCountersConsistent) {
  const auto& param = GetParam();
  const Schema s = schema_v();
  workload::SubGenParams sp;
  sp.subsumption = param.subsumption;
  workload::SubscriptionGenerator gen(s, sp, param.seed);
  workload::EventGenerator events(s, gen.pools(), {}, param.seed ^ 0xABCDEF);

  BrokerSummary summary(s, param.policy);
  NaiveMatcher naive;
  for (uint32_t i = 0; i < 300; ++i) {
    Subscription sub = gen.next();
    const SubId id{0, i, sub.mask()};
    summary.add(sub, id);
    naive.add({id, std::move(sub)});
  }

  util::Rng rng(param.seed * 1009);
  size_t exact_total = 0;
  for (int i = 0; i < 300; ++i) {
    // Alternate purely random events with events derived from a stored
    // subscription, so the non-vacuity check below has teeth.
    Event e = events.next();
    if (i % 2 == 1) {
      const auto& os = naive.subs()[rng.below(naive.size())];
      if (auto derived = workload::matching_event(s, os.sub)) e = *std::move(derived);
    }
    const auto approx = match(summary, e);
    const auto exact = naive.match(e);
    exact_total += exact.size();
    // No false negatives, ever.
    EXPECT_TRUE(std::includes(approx.begin(), approx.end(), exact.begin(), exact.end()))
        << "summary match lost an exact match";
    // Every reported id must at least satisfy its arithmetic constraints
    // exactly (AACS is exact; only SACS may over-approximate).
    for (const auto& id : approx) {
      for (const auto& os : naive.subs()) {
        if (!(os.id == id)) continue;
        for (const auto& c : os.sub.constraints()) {
          if (!is_arithmetic(s.type_of(c.attr))) continue;
          const model::Value* v = e.find(c.attr);
          ASSERT_NE(v, nullptr);
          // The whole arithmetic region must hold, i.e. all constraints on
          // that attribute.
        }
      }
    }
  }
  EXPECT_GT(exact_total, 0u) << "workload produced no matches; property vacuous";
}

TEST_P(MatchProperty, ArithmeticOnlySubscriptionsAreExact) {
  const auto& param = GetParam();
  const Schema s = schema_v();
  workload::SubGenParams sp;
  sp.subsumption = param.subsumption;
  sp.arith_attrs = 3;
  sp.string_attrs = 0;
  workload::SubscriptionGenerator gen(s, sp, param.seed * 31);
  workload::EventGenParams ep;
  ep.arith_attrs = 5;
  ep.string_attrs = 0;
  workload::EventGenerator events(s, gen.pools(), ep, param.seed * 31 + 1);

  BrokerSummary summary(s, param.policy);
  NaiveMatcher naive;
  for (uint32_t i = 0; i < 300; ++i) {
    Subscription sub = gen.next();
    const SubId id{0, i, sub.mask()};
    summary.add(sub, id);
    naive.add({id, std::move(sub)});
  }
  util::Rng rng(param.seed * 2003);
  size_t matched_total = 0;
  for (int i = 0; i < 300; ++i) {
    Event e = events.next();
    if (i % 2 == 1) {
      const auto& os = naive.subs()[rng.below(naive.size())];
      if (auto derived = workload::matching_event(s, os.sub)) e = *std::move(derived);
    }
    const auto approx = match(summary, e);
    const auto exact = naive.match(e);
    EXPECT_EQ(approx, exact);
    matched_total += exact.size();
  }
  EXPECT_GT(matched_total, 0u);
}

// Static storage zero-fills the padding bytes that gtest prints in each
// case's name; stack temporaries would leave them varying between runs.
constexpr PropertyCase kPropertyCases[] = {
    {1, 0.1, GeneralizePolicy::kSafe},       {2, 0.5, GeneralizePolicy::kSafe},
    {3, 0.9, GeneralizePolicy::kSafe},       {4, 0.5, GeneralizePolicy::kNone},
    {5, 0.5, GeneralizePolicy::kAggressive}, {6, 0.9, GeneralizePolicy::kAggressive},
};

INSTANTIATE_TEST_SUITE_P(Cases, MatchProperty, ::testing::ValuesIn(kPropertyCases));

// Removal property: after removing a random subset, matching agrees with
// the naive oracle on the survivors (no stale ids).
TEST(MatchMaintenance, RemovalLeavesNoStaleIds) {
  const Schema s = schema_v();
  workload::SubGenParams sp;
  sp.subsumption = 0.6;
  workload::SubscriptionGenerator gen(s, sp, 77);
  workload::EventGenerator events(s, gen.pools(), {}, 78);

  BrokerSummary summary(s, GeneralizePolicy::kNone);  // kNone keeps removal exact
  NaiveMatcher naive;
  std::vector<SubId> ids;
  for (uint32_t i = 0; i < 200; ++i) {
    Subscription sub = gen.next();
    const SubId id{0, i, sub.mask()};
    summary.add(sub, id);
    naive.add({id, std::move(sub)});
    ids.push_back(id);
  }
  util::Rng rng(99);
  for (int k = 0; k < 100; ++k) {
    const size_t at = rng.below(ids.size());
    summary.remove(ids[at]);
    naive.remove(ids[at]);
    ids.erase(ids.begin() + static_cast<long>(at));
  }
  for (int i = 0; i < 100; ++i) {
    const Event e = events.next();
    const auto approx = match(summary, e);
    const auto exact = naive.match(e);
    EXPECT_TRUE(std::includes(approx.begin(), approx.end(), exact.begin(), exact.end()));
    for (const auto& id : approx) {
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), id))
          << "matched a removed subscription";
    }
  }
}

}  // namespace
}  // namespace subsum::core
