// core::HomeTable against the oracle it replaced for lookups (a linear scan
// of a NaiveMatcher) and a std::map lease model, plus the table's own
// contracts: ascending-c2 iteration, c2 never reused, exact-id lookups,
// the c2 width bound, and leases that always belong to a live entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/home_table.h"
#include "core/matcher.h"
#include "core/serialize.h"
#include "core/summary.h"
#include "store/broker_store.h"
#include "util/rng.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::core {
namespace {

using model::Event;
using model::Op;
using model::Schema;
using model::SubId;
using model::Subscription;
using model::SubscriptionBuilder;

const model::OwnedSubscription* oracle_find(const NaiveMatcher& oracle, SubId id) {
  for (const auto& os : oracle.subs()) {
    if (os.id == id) return &os;
  }
  return nullptr;
}

std::vector<SubId> oracle_refilter(const NaiveMatcher& oracle, const std::vector<SubId>& ids,
                                   const Event& e) {
  std::vector<SubId> out;
  for (const SubId& id : ids) {
    if (const auto* os = oracle_find(oracle, id); os && os->sub.matches(e)) out.push_back(id);
  }
  return out;
}

Subscription symbol_sub(const Schema& s, const std::string& sym) {
  return SubscriptionBuilder(s).where("symbol", Op::kEq, sym).build();
}

TEST(HomeTable, AgreesWithOracleOnRandomOperations) {
  const Schema s = workload::stock_schema();
  workload::SubscriptionGenerator gen(s, {}, 11);
  workload::EventGenerator events(s, gen.pools(), {}, 12);
  util::Rng rng(13);
  constexpr model::BrokerId kOwner = 3;
  HomeTable home(kOwner, 1u << 20);
  NaiveMatcher oracle;
  std::map<SubId, Lease> leases;  // model: live id -> lease
  std::vector<SubId> issued;      // every id allocated, live or not
  uint32_t next_c2 = 0;
  const auto any_issued = [&] { return issued[rng.below(issued.size())]; };

  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = issued.empty() ? 0 : rng.below(8);
    if (op <= 2) {
      Subscription sub = gen.next();
      const SubId id = home.allocate(sub.mask());
      ASSERT_EQ(id, (SubId{kOwner, next_c2++, sub.mask()}));  // sequential, never reused
      ASSERT_TRUE(home.add({id, sub}));
      EXPECT_FALSE(home.add({id, sub}));  // present already
      oracle.add({id, std::move(sub)});
      issued.push_back(id);
      if (rng.below(2) == 0) {
        const auto ttl = static_cast<uint32_t>(1 + rng.below(4));
        ASSERT_TRUE(home.grant_lease(id, ttl));
        leases[id] = Lease{ttl, ttl};
      }
    } else if (op == 3) {
      const SubId id = any_issued();
      EXPECT_EQ(home.remove(id), oracle_find(oracle, id) != nullptr);
      oracle.remove(id);
      leases.erase(id);
    } else if (op == 4) {
      const SubId id = any_issued();
      const auto it = leases.find(id);
      ASSERT_EQ(home.renew_lease(id), it != leases.end());
      if (it != leases.end()) {
        it->second.remaining = it->second.ttl;
        EXPECT_EQ(home.find(id)->lease.remaining, it->second.ttl);  // the full window
      }
    } else if (op == 5) {
      std::vector<SubId> want;
      for (auto it = leases.begin(); it != leases.end();) {
        if (--it->second.remaining == 0) {
          want.push_back(it->first);
          it = leases.erase(it);
        } else {
          ++it;
        }
      }
      ASSERT_EQ(home.tick_leases(), want);
      for (const SubId& id : want) {
        EXPECT_EQ(home.find(id)->lease.ttl, 0u);  // expired, not yet removed
        EXPECT_FALSE(home.renew_lease(id));
        EXPECT_TRUE(home.remove(id));
        oracle.remove(id);
      }
    } else {
      // Half the events are built to match a live subscription.
      std::optional<Event> built;
      if (rng.below(2) == 0 && oracle.size() > 0) {
        built = workload::matching_event(s, oracle.subs()[rng.below(oracle.size())].sub);
      }
      const Event e = built ? *built : events.next();
      EXPECT_EQ(home.match(e), oracle.match(e));
      std::vector<SubId> ids;
      for (int i = 0; i < 8; ++i) {
        SubId id = any_issued();
        if (i % 4 == 1) id.broker = kOwner + 1;  // foreign c1
        if (i % 4 == 2) id.attrs ^= 1;           // different c3
        ids.push_back(id);
      }
      EXPECT_EQ(home.refilter(ids, e), oracle_refilter(oracle, ids, e));
    }
    ASSERT_EQ(home.size(), oracle.size());
    ASSERT_EQ(home.lease_count(), leases.size());
    ASSERT_LE(home.lease_count(), home.size());
    ASSERT_EQ(home.next_local(), next_c2);
  }

  for (const SubId& id : issued) {
    const HomeEntry* got = home.find(id);
    const auto* want = oracle_find(oracle, id);
    ASSERT_EQ(got != nullptr, want != nullptr) << id.to_string();
    if (!got) continue;
    EXPECT_EQ(got->sub, want->sub);
    const auto it = leases.find(id);
    EXPECT_EQ(got->lease.ttl, it == leases.end() ? 0u : it->second.ttl);
  }

  // Iteration runs in ascending c2, which is insertion order: the oracle's.
  std::vector<SubId> walked;
  for (const HomeEntry& e : home.entries()) walked.push_back(e.id);
  std::vector<SubId> inserted;
  for (const auto& os : oracle.subs()) inserted.push_back(os.id);
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
  EXPECT_EQ(walked, inserted);
  // So a summary rebuilt from the table is bit-identical to one rebuilt
  // from the subscriptions in insertion order.
  const WireConfig wire{model::SubIdCodec(8, 1u << 20, s.attr_count()), 8};
  const auto from_table = BrokerSummary::rebuild(s, GeneralizePolicy::kSafe, home.entries());
  const auto from_subs = BrokerSummary::rebuild(s, GeneralizePolicy::kSafe, oracle.subs());
  EXPECT_EQ(encode_summary(from_table, wire), encode_summary(from_subs, wire));
}

TEST(HomeTable, IteratesInAscendingC2WhateverTheAddOrder) {
  const Schema s = workload::stock_schema();
  const Subscription sub = symbol_sub(s, "A");
  HomeTable home(0, 16);
  for (const uint32_t c2 : {5u, 1u, 3u}) {
    ASSERT_TRUE(home.add({SubId{0, c2, sub.mask()}, sub}));
  }
  std::vector<uint32_t> walked;
  for (const HomeEntry& e : home.entries()) walked.push_back(e.id.local);
  EXPECT_EQ(walked, (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_EQ(home.next_local(), 6u);
  EXPECT_EQ(home.allocate(sub.mask()).local, 6u);
}

TEST(HomeTable, LookupsRejectWrongC1OrC3) {
  const Schema s = workload::stock_schema();
  const Subscription sub = symbol_sub(s, "A");
  HomeTable home(2, 16);
  const SubId id = home.allocate(sub.mask());
  ASSERT_TRUE(home.add({id, sub}));
  const Event e = model::EventBuilder(s).set("symbol", "A").build();
  for (const SubId wrong : {SubId{1, id.local, id.attrs}, SubId{2, id.local, id.attrs ^ 1}}) {
    SCOPED_TRACE(wrong.to_string());
    EXPECT_EQ(home.find(wrong), nullptr);
    EXPECT_FALSE(home.remove(wrong));
    EXPECT_FALSE(home.grant_lease(wrong, 3));
    EXPECT_FALSE(home.renew_lease(wrong));
    EXPECT_TRUE(home.refilter(std::vector<SubId>{wrong}, e).empty());
  }
  EXPECT_FALSE(home.add({SubId{1, 9, sub.mask()}, sub}));  // another broker's id
  EXPECT_EQ(home.size(), 1u);
  EXPECT_EQ(home.lease_count(), 0u);
  EXPECT_EQ(home.refilter(std::vector<SubId>{id}, e), std::vector<SubId>{id});
}

TEST(HomeTable, C2IsNeverReusedAndAllocationStopsAtMaxSubs) {
  const Schema s = workload::stock_schema();
  const Subscription sub = symbol_sub(s, "A");
  HomeTable home(0, 3);
  for (uint32_t c2 = 0; c2 < 3; ++c2) {
    const SubId id = home.allocate(sub.mask());
    EXPECT_EQ(id.local, c2);
    ASSERT_TRUE(home.add({id, sub}));
    ASSERT_TRUE(home.remove(id));  // freeing the c2 does not make it reusable
  }
  EXPECT_EQ(home.size(), 0u);
  EXPECT_THROW((void)home.allocate(sub.mask()), std::runtime_error);
  EXPECT_EQ(home.next_local(), 3u);
}

TEST(HomeTable, TickExpiresExactlyTheLeasesReachingZero) {
  const Schema s = workload::stock_schema();
  const Subscription sub = symbol_sub(s, "A");
  HomeTable home(0, 16);
  std::vector<SubId> ids;
  for (const uint32_t ttl : {1u, 2u, 0u, 2u}) {
    ids.push_back(home.allocate(sub.mask()));
    ASSERT_TRUE(home.add({ids.back(), sub}));
    ASSERT_TRUE(home.grant_lease(ids.back(), ttl));
  }
  EXPECT_EQ(home.lease_count(), 3u);
  EXPECT_EQ(home.tick_leases(), std::vector<SubId>{ids[0]});
  ASSERT_TRUE(home.remove(ids[0]));
  EXPECT_TRUE(home.renew_lease(ids[3]));  // back to its full 2-period window
  EXPECT_EQ(home.tick_leases(), std::vector<SubId>{ids[1]});
  EXPECT_EQ(home.tick_leases(), std::vector<SubId>{ids[3]});
  EXPECT_TRUE(home.tick_leases().empty());
  EXPECT_EQ(home.lease_count(), 0u);
  EXPECT_EQ(home.size(), 3u);  // expiry leaves removal to the caller
  EXPECT_FALSE(home.renew_lease(ids[2]));  // permanent
}

// Recovery grants leases through the table, so a lease record whose
// subscription is absent (never subscribed, or unsubscribed before the
// record) counts nowhere.
TEST(HomeTable, RecoveredLeaseWithoutSubscriptionIsDropped) {
  namespace fs = std::filesystem;
  const Schema s = workload::stock_schema();
  const WireConfig wire{model::SubIdCodec(4, 1u << 20, s.attr_count()), 8};
  const std::string dir = ::testing::TempDir() + "subsum_home_table/recovered_lease";
  fs::remove_all(dir);
  const Subscription sub = symbol_sub(s, "A");
  const SubId live{1, 0, sub.mask()};
  const SubId gone{1, 1, sub.mask()};
  {
    store::BrokerStore st(dir, s, GeneralizePolicy::kSafe, wire, 1, 1u << 20);
    st.open();
    st.log_subscribe({live, sub});
    st.log_lease(live, 3);
    st.log_subscribe({gone, sub});
    st.log_unsubscribe(gone);
    st.log_lease(gone, 3);                         // after its unsubscribe
    st.log_lease(SubId{1, 7, sub.mask()}, 3);      // never subscribed
    st.commit();
  }
  store::BrokerStore st(dir, s, GeneralizePolicy::kSafe, wire, 1, 1u << 20);
  const store::DurableState rec = st.open();
  EXPECT_EQ(rec.home.size(), 1u);
  EXPECT_EQ(rec.home.lease_count(), 1u);
  ASSERT_NE(rec.home.find(live), nullptr);
  EXPECT_EQ(rec.home.find(live)->lease.ttl, 3u);
  EXPECT_EQ(rec.home.next_local(), 2u);
}

}  // namespace
}  // namespace subsum::core
