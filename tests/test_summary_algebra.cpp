// Algebraic properties of summary merging (the basis of multi-broker
// summaries, paper §4.1). Structural equality of merged summaries is too
// strong for SACS (generalization is order-sensitive), so the properties
// are stated the way the system actually relies on them: MATCH-EQUIVALENCE
// (two summaries match the same ids for every event) plus the safety
// direction (merging never loses ids).
#include <gtest/gtest.h>

#include "core/matcher.h"
#include "core/serialize.h"
#include "util/rng.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::core {
namespace {

using model::Event;
using model::Schema;
using model::SubId;
using model::Subscription;

struct AlgebraCase {
  uint64_t seed;
  GeneralizePolicy policy;
  AacsMode mode;
};

class SummaryAlgebra : public ::testing::TestWithParam<AlgebraCase> {
 protected:
  void SetUp() override {
    schema_ = workload::stock_schema();
    workload::SubGenParams sp;
    sp.subsumption = 0.6;
    sp.range_tightness = 0.4;  // exercise splitting and absorption
    gen_.emplace(schema_, sp, GetParam().seed);
    events_.emplace(schema_, gen_->pools(), workload::EventGenParams{}, GetParam().seed + 1);
    for (int i = 0; i < 120; ++i) probe_.push_back(events_->next());
  }

  BrokerSummary make(uint32_t broker, size_t count) {
    BrokerSummary s(schema_, GetParam().policy, GetParam().mode);
    for (uint32_t i = 0; i < count; ++i) {
      const Subscription sub = gen_->next();
      s.add(sub, SubId{broker, i, sub.mask()});
    }
    return s;
  }

  void expect_match_equivalent(const BrokerSummary& a, const BrokerSummary& b,
                               const char* what) {
    for (const auto& e : probe_) {
      EXPECT_EQ(match(a, e), match(b, e)) << what;
    }
  }

  void expect_superset(const BrokerSummary& bigger, const BrokerSummary& smaller,
                       const char* what) {
    for (const auto& e : probe_) {
      const auto big = match(bigger, e);
      const auto small = match(smaller, e);
      EXPECT_TRUE(std::includes(big.begin(), big.end(), small.begin(), small.end()))
          << what;
    }
  }

  Schema schema_;
  std::optional<workload::SubscriptionGenerator> gen_;
  std::optional<workload::EventGenerator> events_;
  std::vector<Event> probe_;
};

TEST_P(SummaryAlgebra, MergeIsIdempotent) {
  const BrokerSummary a = make(1, 60);
  BrokerSummary twice = a;
  twice.merge(a);
  expect_match_equivalent(twice, a, "a U a == a");
}

bool lossless(const AlgebraCase& c) {
  return c.policy == GeneralizePolicy::kNone && c.mode == AacsMode::kExact;
}

TEST_P(SummaryAlgebra, MergeIsCommutativeUpToMatching) {
  // Exact modes commute precisely. Lossy modes are order-sensitive (which
  // covering row an id joins depends on insertion order), so there the
  // guarantee is mutual safety: both orders cover both inputs.
  const BrokerSummary a = make(1, 50);
  const BrokerSummary b = make(2, 50);
  BrokerSummary ab = a;
  ab.merge(b);
  BrokerSummary ba = b;
  ba.merge(a);
  if (lossless(GetParam())) {
    expect_match_equivalent(ab, ba, "a U b == b U a");
  } else {
    expect_superset(ab, a, "a U b ⊇ a");
    expect_superset(ab, b, "a U b ⊇ b");
    expect_superset(ba, a, "b U a ⊇ a");
    expect_superset(ba, b, "b U a ⊇ b");
  }
}

TEST_P(SummaryAlgebra, MergeIsAssociativeUpToMatching) {
  const BrokerSummary a = make(1, 35);
  const BrokerSummary b = make(2, 35);
  const BrokerSummary c = make(3, 35);
  BrokerSummary left = a;  // (a U b) U c
  left.merge(b);
  left.merge(c);
  BrokerSummary bc = b;  // a U (b U c)
  bc.merge(c);
  BrokerSummary right = a;
  right.merge(bc);
  if (lossless(GetParam())) {
    expect_match_equivalent(left, right, "(a U b) U c == a U (b U c)");
  } else {
    for (const auto* part : {&a, &b, &c}) {
      expect_superset(left, *part, "(a U b) U c covers all parts");
      expect_superset(right, *part, "a U (b U c) covers all parts");
    }
  }
}

TEST_P(SummaryAlgebra, MergeNeverLosesMatches) {
  const BrokerSummary a = make(1, 50);
  const BrokerSummary b = make(2, 50);
  BrokerSummary ab = a;
  ab.merge(b);
  expect_superset(ab, a, "a U b ⊇ a");
  expect_superset(ab, b, "a U b ⊇ b");
}

TEST_P(SummaryAlgebra, SerializationCommutesWithMerge) {
  const BrokerSummary a = make(1, 40);
  const BrokerSummary b = make(2, 40);
  const WireConfig wire{model::SubIdCodec(8, 1u << 10, schema_.attr_count()), 8};

  BrokerSummary merged = a;
  merged.merge(b);

  // decode(encode(a)) merged with decode(encode(b)) must match-equal
  // merge-then-encode-decode.
  BrokerSummary via_wire =
      decode_summary(encode_summary(a, wire), schema_, GetParam().policy, GetParam().mode);
  via_wire.merge(
      decode_summary(encode_summary(b, wire), schema_, GetParam().policy, GetParam().mode));
  const BrokerSummary direct = decode_summary(encode_summary(merged, wire), schema_,
                                              GetParam().policy, GetParam().mode);
  expect_match_equivalent(via_wire, direct, "wire∘merge == merge∘wire");
}

TEST_P(SummaryAlgebra, RemoveUndoesAddUpToMatching) {
  // Under kNone + kExact this is an exact inverse; under lossy modes the
  // leftover may only ever ADD ids (safety direction).
  BrokerSummary base = make(1, 40);
  const BrokerSummary snapshot = base;
  const Subscription extra = gen_->next();
  const SubId id{7, 999, extra.mask()};
  base.add(extra, id);
  base.remove(id);
  if (GetParam().policy == GeneralizePolicy::kNone && GetParam().mode == AacsMode::kExact) {
    expect_match_equivalent(base, snapshot, "remove(add(x)) == identity");
  } else {
    expect_superset(base, snapshot, "remove(add(x)) ⊇ identity");
  }
  // In every mode, the removed id itself must be gone.
  for (const auto& e : probe_) {
    for (const auto& m : match(base, e)) EXPECT_FALSE(m == id);
  }
}

// Static storage zero-fills the padding bytes that gtest prints in each
// case's name; stack temporaries would leave them varying between runs.
constexpr AlgebraCase kCases[] = {
    {1, GeneralizePolicy::kSafe, AacsMode::kExact},
    {2, GeneralizePolicy::kSafe, AacsMode::kCoarse},
    {3, GeneralizePolicy::kNone, AacsMode::kExact},
    {4, GeneralizePolicy::kAggressive, AacsMode::kCoarse},
};

INSTANTIATE_TEST_SUITE_P(Cases, SummaryAlgebra, ::testing::ValuesIn(kCases));

}  // namespace
}  // namespace subsum::core
