// Property tests for the batched/parallel matching engine: the heap-merge +
// dense-counter match_into() must agree with the reference implementation
// and the naive oracle; the pooled batch loop tools/bench_json measures and
// SimSystem::publish_batch must be indistinguishable from the sequential
// loops at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>

#include "core/matcher.h"
#include "overlay/topologies.h"
#include "sim/system.h"
#include "util/thread_pool.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum {
namespace {

using core::AacsMode;
using core::BrokerSummary;
using model::Event;
using model::SubId;

struct Workload {
  model::Schema schema = workload::stock_schema();
  BrokerSummary summary;
  core::NaiveMatcher naive;
  std::vector<Event> events;

  /// `brokers` > 1 spreads ids across c1 values, defeating the
  /// single-broker dense fast path so the heap merge gets exercised.
  Workload(size_t subs, size_t brokers, AacsMode mode, double subsumption, uint64_t seed) {
    workload::SubGenParams sp;
    sp.subsumption = subsumption;
    workload::SubscriptionGenerator gen(schema, sp, seed);
    summary = BrokerSummary(schema, core::GeneralizePolicy::kSafe, mode);
    for (uint32_t i = 0; i < subs; ++i) {
      auto sub = gen.next();
      const SubId id{static_cast<model::BrokerId>(i % brokers), i, sub.mask()};
      summary.add(sub, id);
      naive.add({id, std::move(sub)});
    }
    workload::EventGenerator egen(schema, gen.pools(), {}, seed + 1);
    for (int i = 0; i < 48; ++i) events.push_back(egen.next());
  }
};

TEST(MatchEngine, AgreesWithReferenceAndOracleAcrossWorkloads) {
  for (const AacsMode mode : {AacsMode::kExact, AacsMode::kCoarse}) {
    for (const size_t brokers : {size_t{1}, size_t{5}}) {  // dense vs heap path
      for (const double subsumption : {0.1, 0.9}) {
        Workload w(400, brokers, mode, subsumption,
                   1000 + brokers * 10 + static_cast<uint64_t>(subsumption * 10));
        core::MatchScratch scratch;
        for (const Event& e : w.events) {
          core::MatchDiag dn, dr;
          const auto got = core::match_into(w.summary, e, scratch, &dn);
          const auto want = core::match_reference(w.summary, e, &dr);
          ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), want);
          EXPECT_EQ(dn.ids_collected, dr.ids_collected);
          EXPECT_EQ(dn.unique_ids, dr.unique_ids);
          EXPECT_EQ(dn.attrs_satisfied, dr.attrs_satisfied);
          // Summary matching is a superset of exact matching (safe direction).
          const auto exact = w.naive.match(e);
          ASSERT_TRUE(std::includes(want.begin(), want.end(), exact.begin(), exact.end()));
          if (mode == AacsMode::kExact) {
            // With exact AACS and no SACS generalization pressure at this
            // scale, every exact match must at least be present.
            for (const SubId& id : exact) {
              EXPECT_TRUE(std::binary_search(want.begin(), want.end(), id));
            }
          }
        }
      }
    }
  }
}

TEST(MatchEngine, ScratchReuseMatchesFreshScratch) {
  Workload w(600, 1, AacsMode::kCoarse, 0.5, 42);
  core::MatchScratch reused;
  for (const Event& e : w.events) {
    core::MatchScratch fresh;
    const auto a = core::match_into(w.summary, e, reused);
    const auto b = core::match_into(w.summary, e, fresh);
    ASSERT_EQ(std::vector<SubId>(a.begin(), a.end()),
              std::vector<SubId>(b.begin(), b.end()));
  }
}

TEST(MatchEngine, EmptySummaryAndEmptyEvent) {
  const model::Schema schema = workload::stock_schema();
  BrokerSummary summary(schema);
  core::MatchScratch scratch;
  const Event none;
  EXPECT_TRUE(core::match_into(summary, none, scratch).empty());
  Workload w(10, 1, AacsMode::kExact, 0.1, 7);
  EXPECT_TRUE(core::match_into(w.summary, none, scratch).empty());
}

/// The batch loop tools/bench_json measures: one contiguous chunk of
/// events per pool worker, each matched with its own MatchScratch
/// (`scratch[s]`, persistent across calls).
void match_batch(util::ThreadPool& pool, std::vector<core::MatchScratch>& scratch,
                 const BrokerSummary& summary, std::span<const Event> events,
                 std::vector<std::vector<SubId>>& results,
                 std::vector<core::MatchDiag>& diags) {
  scratch.resize(pool.concurrency());
  results.resize(events.size());
  diags.resize(events.size());
  const size_t chunk = (events.size() + scratch.size() - 1) / scratch.size();
  for (size_t s = 0; s * chunk < events.size(); ++s) {
    pool.submit([&, s] {
      for (size_t i = s * chunk; i < std::min(events.size(), (s + 1) * chunk); ++i) {
        const auto ids = core::match_into(summary, events[i], scratch[s], &diags[i]);
        results[i].assign(ids.begin(), ids.end());
      }
    });
  }
  pool.wait();
}

TEST(BatchMatcher, EqualsSequentialAcrossThreadCounts) {
  for (const AacsMode mode : {AacsMode::kExact, AacsMode::kCoarse}) {
    Workload w(500, 3, mode, 0.3, 99);
    std::vector<std::vector<SubId>> want;
    std::vector<core::MatchDiag> want_diags;
    for (const Event& e : w.events) {
      core::MatchDiag d;
      want.push_back(core::match(w.summary, e, &d));
      want_diags.push_back(d);
    }
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      util::ThreadPool pool(threads);
      std::vector<core::MatchScratch> scratch;
      std::vector<std::vector<SubId>> got;
      std::vector<core::MatchDiag> diags;
      match_batch(pool, scratch, w.summary, w.events, got, diags);
      ASSERT_EQ(got, want) << "threads=" << threads;
      ASSERT_EQ(diags.size(), want_diags.size());
      for (size_t i = 0; i < diags.size(); ++i) {
        EXPECT_EQ(diags[i].ids_collected, want_diags[i].ids_collected);
        EXPECT_EQ(diags[i].unique_ids, want_diags[i].unique_ids);
      }
      // Re-running on the same (warm) scratches must be stable.
      std::vector<std::vector<SubId>> again;
      match_batch(pool, scratch, w.summary, w.events, again, diags);
      EXPECT_EQ(again, want);
    }
  }
}

/// Two systems built by the same seeded script, one publishing sequentially
/// and one in batches, must be observationally identical: per-event
/// outcomes AND the accounting ledger.
TEST(PublishBatch, ByteIdenticalToSequentialLoop) {
  for (const AacsMode mode : {AacsMode::kExact, AacsMode::kCoarse}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      sim::SystemConfig cfg;
      cfg.schema = workload::stock_schema();
      cfg.graph = overlay::fig7_tree();
      cfg.arith_mode = mode;
      sim::SimSystem seq(cfg), par(cfg);

      workload::SubGenParams sp;
      sp.subsumption = 0.4;
      workload::SubscriptionGenerator gen(cfg.schema, sp, 2024 + threads);
      for (uint32_t i = 0; i < 150; ++i) {
        const auto sub = gen.next();
        const auto b = static_cast<overlay::BrokerId>(i % seq.broker_count());
        seq.subscribe(b, sub);
        par.subscribe(b, sub);
      }
      seq.run_propagation_period();
      par.run_propagation_period();

      workload::EventGenerator egen(cfg.schema, gen.pools(), {}, 77);
      std::vector<Event> events;
      for (int i = 0; i < 40; ++i) events.push_back(egen.next());

      std::vector<sim::SimSystem::PublishOutcome> want;
      want.reserve(events.size());
      for (const Event& e : events) want.push_back(seq.publish(2, e));

      util::ThreadPool pool(threads);
      const auto got = par.publish_batch(2, events, pool);

      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].delivered, want[i].delivered) << "event " << i;
        EXPECT_EQ(got[i].candidates, want[i].candidates) << "event " << i;
        EXPECT_EQ(got[i].route.visited, want[i].route.visited) << "event " << i;
        EXPECT_EQ(got[i].route.forward_hops, want[i].route.forward_hops);
        EXPECT_EQ(got[i].route.delivery_hops, want[i].route.delivery_hops);
      }
      for (size_t t = 0; t < sim::kMsgTypeCount; ++t) {
        const auto mt = static_cast<sim::MsgType>(t);
        EXPECT_EQ(par.accounting().messages(mt), seq.accounting().messages(mt));
        EXPECT_EQ(par.accounting().bytes(mt), seq.accounting().bytes(mt));
      }
    }
  }
}

TEST(PublishBatch, DefaultPoolOverloadWorks) {
  sim::SystemConfig cfg;
  cfg.schema = workload::stock_schema();
  cfg.graph = overlay::ring(6);
  sim::SimSystem sys(cfg);
  const auto sub = model::SubscriptionBuilder(cfg.schema)
                       .where("symbol", model::Op::kEq, "OTE")
                       .build();
  const SubId id = sys.subscribe(1, sub);
  sys.run_propagation_period();
  const auto e = model::EventBuilder(cfg.schema).set("symbol", "OTE").build();
  const std::vector<Event> events(8, e);
  const auto out = sys.publish_batch(0, events);
  ASSERT_EQ(out.size(), events.size());
  for (const auto& o : out) EXPECT_EQ(o.delivered, std::vector<SubId>{id});
}

TEST(ThreadPool, SubmitWaitAndParallelFor) {
  for (const size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    util::ThreadPool pool(threads);
    std::atomic<int> hits{0};
    for (int i = 0; i < 100; ++i) pool.submit([&hits] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 100);
    // wait() with nothing outstanding returns immediately.
    pool.wait();

    std::vector<int> marks(1000, 0);
    pool.parallel_for(marks.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) marks[i] = 1;
    });
    EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0), 1000);
    pool.parallel_for(0, [&](size_t, size_t) { FAIL() << "no work expected"; });
  }
}

}  // namespace
}  // namespace subsum
