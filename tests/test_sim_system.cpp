#include <gtest/gtest.h>

#include <algorithm>

#include "overlay/topologies.h"
#include "sim/system.h"
#include "util/rng.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::sim {
namespace {

using model::Event;
using model::EventBuilder;
using model::Op;
using model::SubId;
using model::Subscription;
using model::SubscriptionBuilder;
using overlay::BrokerId;

SystemConfig make_config(overlay::Graph g) {
  SystemConfig cfg;
  cfg.schema = workload::stock_schema();
  cfg.graph = std::move(g);
  return cfg;
}

TEST(SimSystem, LocalMatchBeforePropagation) {
  SimSystem sys(make_config(overlay::fig7_tree()));
  const auto sub =
      SubscriptionBuilder(sys.schema()).where("symbol", Op::kEq, "OTE").build();
  const SubId id = sys.subscribe(3, sub);
  EXPECT_EQ(id.broker, 3u);

  // Published at the home broker: matches immediately (local knowledge).
  const auto e = EventBuilder(sys.schema()).set("symbol", "OTE").build();
  const auto at_home = sys.publish(3, e);
  EXPECT_EQ(at_home.delivered, std::vector<SubId>{id});

  // Published elsewhere before any propagation period: the BROCLI walk
  // still finds the match (completeness is unconditional), but it has to
  // visit every broker because all Merged_Brokers sets are singletons.
  const auto remote = sys.publish(0, e);
  EXPECT_EQ(remote.delivered, std::vector<SubId>{id});
  EXPECT_EQ(remote.route.visited.size(), sys.broker_count());

  // After the period the same publish needs far fewer visits: that is the
  // hop saving of multi-broker summaries (paper fig 10).
  sys.run_propagation_period();
  const auto after = sys.publish(0, e);
  EXPECT_EQ(after.delivered, std::vector<SubId>{id});
  EXPECT_LT(after.route.visited.size(), remote.route.visited.size() / 2);
}

TEST(SimSystem, SubIdsAssignedSequentially) {
  SimSystem sys(make_config(overlay::fig7_tree()));
  const auto sub =
      SubscriptionBuilder(sys.schema()).where("price", Op::kGt, 1.0).build();
  EXPECT_EQ(sys.subscribe(2, sub).local, 0u);
  EXPECT_EQ(sys.subscribe(2, sub).local, 1u);
  EXPECT_EQ(sys.subscribe(5, sub).local, 0u);
  EXPECT_THROW(sys.subscribe(99, sub), std::invalid_argument);
}

TEST(SimSystem, UnsubscribeStopsDeliveryEverywhere) {
  SimSystem sys(make_config(overlay::fig7_tree()));
  const auto sub =
      SubscriptionBuilder(sys.schema()).where("symbol", Op::kEq, "OTE").build();
  const SubId id = sys.subscribe(3, sub);
  sys.run_propagation_period();

  const auto e = EventBuilder(sys.schema()).set("symbol", "OTE").build();
  ASSERT_EQ(sys.publish(0, e).delivered.size(), 1u);

  sys.unsubscribe(id);
  // Home broker stops matching immediately.
  EXPECT_TRUE(sys.publish(3, e).delivered.empty());
  // Remote copies disappear with the next maintenance period; even before
  // that, the home re-filter drops the stale candidate.
  EXPECT_TRUE(sys.publish(0, e).delivered.empty());
  sys.run_propagation_period();
  EXPECT_TRUE(sys.publish(0, e).delivered.empty());
  EXPECT_TRUE(sys.publish(0, e).candidates.empty()) << "stale summary rows remain";
}

// An unsubscribe of an id that is not live changes nothing: no removal
// rides the next period, so no summary send grows by its bytes.
TEST(SimSystem, UnsubscribeOfIdNotLiveChangesNothing) {
  const auto total_bytes = [](bool unsubscribe_dead_ids) {
    SimSystem sys(make_config(overlay::fig7_tree()));
    const auto sub =
        SubscriptionBuilder(sys.schema()).where("symbol", Op::kEq, "OTE").build();
    const SubId id = sys.subscribe(3, sub);
    const SubId leased = sys.subscribe(4, sub, /*lease_periods=*/1);
    sys.run_propagation_period();  // `leased` expires here
    sys.unsubscribe(id);
    if (unsubscribe_dead_ids) {
      sys.unsubscribe(id);                       // already unsubscribed
      sys.unsubscribe(leased);                   // expired
      sys.unsubscribe(SubId{5, 7, sub.mask()});  // never issued
    }
    sys.run_propagation_period();
    return sys.accounting().total_bytes();
  };
  EXPECT_EQ(total_bytes(true), total_bytes(false));
}

TEST(SimSystem, AccountingLedger) {
  SimSystem sys(make_config(overlay::fig7_tree()));
  const auto sub =
      SubscriptionBuilder(sys.schema()).where("symbol", Op::kEq, "OTE").build();
  sys.subscribe(3, sub);
  EXPECT_EQ(sys.accounting().total_messages(), 0u);
  sys.run_propagation_period();
  EXPECT_EQ(sys.accounting().messages(MsgType::kSummary), 10u);  // fig-7 hops
  EXPECT_GT(sys.accounting().bytes(MsgType::kSummary), 0u);

  const auto e = EventBuilder(sys.schema()).set("symbol", "OTE").build();
  sys.publish(0, e);
  EXPECT_GT(sys.accounting().messages(MsgType::kEventForward), 0u);
  EXPECT_EQ(sys.accounting().messages(MsgType::kEventDelivery), 1u);
}

TEST(SimSystem, CandidatesSupersetOfDelivered) {
  SimSystem sys(make_config(overlay::fig7_tree()));
  // A generalizing prefix subscription plus an equality one: SACS merges
  // them into the prefix row, creating a false-positive candidate.
  const auto wide =
      SubscriptionBuilder(sys.schema()).where("symbol", Op::kPrefix, "m").build();
  const auto narrow =
      SubscriptionBuilder(sys.schema()).where("symbol", Op::kEq, "microsoft").build();
  sys.subscribe(3, wide);
  const SubId narrow_id = sys.subscribe(3, narrow);
  sys.run_propagation_period();

  const auto e = EventBuilder(sys.schema()).set("symbol", "mango").build();
  const auto out = sys.publish(0, e);
  // "mango" satisfies the prefix but not "microsoft": candidate, not
  // delivered.
  EXPECT_TRUE(std::find(out.candidates.begin(), out.candidates.end(), narrow_id) !=
              out.candidates.end());
  EXPECT_TRUE(std::find(out.delivered.begin(), out.delivered.end(), narrow_id) ==
              out.delivered.end());
  EXPECT_TRUE(std::includes(out.candidates.begin(), out.candidates.end(),
                            out.delivered.begin(), out.delivered.end()));
}

TEST(SimSystem, SummaryStorageBytesGrow) {
  SimSystem sys(make_config(overlay::cable_wireless_24()));
  const size_t before = sys.summary_storage_bytes();
  workload::SubscriptionGenerator gen(sys.schema(), {}, 17);
  for (BrokerId b = 0; b < sys.broker_count(); ++b) {
    for (int i = 0; i < 5; ++i) sys.subscribe(b, gen.next());
  }
  sys.run_propagation_period();
  EXPECT_GT(sys.summary_storage_bytes(), before);
}

// End-to-end exactness: the distributed system delivers exactly what a
// global naive matcher over all subscriptions would, for any workload,
// origin, and number of propagation periods.
struct E2ECase {
  uint64_t seed;
  double subsumption;
  int periods;
};

class SimSystemE2E : public ::testing::TestWithParam<E2ECase> {};

TEST_P(SimSystemE2E, DeliveredEqualsGlobalOracle) {
  const auto param = GetParam();
  SimSystem sys(make_config(overlay::cable_wireless_24()));
  workload::SubGenParams sp;
  sp.subsumption = param.subsumption;
  workload::SubscriptionGenerator gen(sys.schema(), sp, param.seed);
  workload::EventGenerator events(sys.schema(), gen.pools(), {}, param.seed + 1);
  util::Rng rng(param.seed + 2);

  core::NaiveMatcher oracle;
  for (int period = 0; period < param.periods; ++period) {
    for (int i = 0; i < 40; ++i) {
      const auto home = static_cast<BrokerId>(rng.below(sys.broker_count()));
      Subscription sub = gen.next();
      const SubId id = sys.subscribe(home, sub);
      oracle.add({id, std::move(sub)});
    }
    sys.run_propagation_period();
  }

  size_t total = 0;
  for (int i = 0; i < 60; ++i) {
    // Half the events derive from a stored subscription so matches occur.
    Event e = events.next();
    if (i % 2 == 1) {
      const auto& os = oracle.subs()[rng.below(oracle.size())];
      if (auto derived = workload::matching_event(sys.schema(), os.sub)) {
        e = *std::move(derived);
      }
    }
    const auto origin = static_cast<BrokerId>(rng.below(sys.broker_count()));
    const auto out = sys.publish(origin, e);
    EXPECT_EQ(out.delivered, oracle.match(e)) << "event " << i;
    EXPECT_TRUE(std::includes(out.candidates.begin(), out.candidates.end(),
                              out.delivered.begin(), out.delivered.end()));
    total += out.delivered.size();
  }
  EXPECT_GT(total, 0u) << "vacuous workload";
}

// Static storage zero-fills the padding bytes that gtest prints in each
// case's name; stack temporaries would leave them varying between runs.
constexpr E2ECase kE2ECases[] = {{1, 0.1, 1}, {2, 0.5, 2}, {3, 0.9, 3}, {4, 0.7, 1}};

INSTANTIATE_TEST_SUITE_P(Cases, SimSystemE2E, ::testing::ValuesIn(kE2ECases));

TEST(SimSystem, UnsubscribeChurnKeepsOracleEquality) {
  SimSystem sys(make_config(overlay::fig7_tree()));
  workload::SubGenParams sp;
  sp.subsumption = 0.6;
  workload::SubscriptionGenerator gen(sys.schema(), sp, 123);
  workload::EventGenerator events(sys.schema(), gen.pools(), {}, 124);
  util::Rng rng(125);

  core::NaiveMatcher oracle;
  std::vector<SubId> live;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 25; ++i) {
      const auto home = static_cast<BrokerId>(rng.below(sys.broker_count()));
      Subscription sub = gen.next();
      const SubId id = sys.subscribe(home, sub);
      oracle.add({id, std::move(sub)});
      live.push_back(id);
    }
    for (int i = 0; i < 10 && !live.empty(); ++i) {
      const size_t at = rng.below(live.size());
      sys.unsubscribe(live[at]);
      oracle.remove(live[at]);
      live.erase(live.begin() + static_cast<long>(at));
    }
    sys.run_propagation_period();
    for (int i = 0; i < 20; ++i) {
      const Event e = events.next();
      const auto out = sys.publish(static_cast<BrokerId>(rng.below(sys.broker_count())), e);
      EXPECT_EQ(out.delivered, oracle.match(e));
    }
  }
}

TEST(SimSystem, SingleBrokerSystemWorks) {
  SimSystem sys(make_config(overlay::Graph(1)));
  const auto sub =
      SubscriptionBuilder(sys.schema()).where("price", Op::kGt, 1.0).build();
  const SubId id = sys.subscribe(0, sub);
  const auto out = sys.publish(0, EventBuilder(sys.schema()).set("price", 2.0).build());
  EXPECT_EQ(out.delivered, std::vector<SubId>{id});
  EXPECT_EQ(out.route.total_hops(), 0u);
}

}  // namespace
}  // namespace subsum::sim
