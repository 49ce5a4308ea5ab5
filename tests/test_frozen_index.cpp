// Differential suite for the frozen matching core (core/frozen_index.h).
//
// The contract under test: for ANY summary and event, the frozen index's
// match_into produces ids and MatchDiag bit-identical to match_reference()
// and to the classic engine match_into_unindexed() — across both AACS
// modes, shard counts {1, 2, 8}, scalar vs. vectorized kernels, combo
// cache on/off, and across every invalidating mutation (remove, merge,
// remove_broker). CI runs this file under ASan/UBSan and once more in the
// -DSUBSUM_FORCE_SCALAR=ON leg.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/frozen_index.h"
#include "core/matcher.h"
#include "core/simd.h"
#include "core/summary.h"
#include "model/event.h"
#include "obs/metrics.h"
#include "overlay/topologies.h"
#include "sim/system.h"
#include "util/rng.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::core {
namespace {

using model::Event;
using model::Schema;
using model::SubId;

// RAII: tests mutate the process-global index options and the SIMD
// dispatch level; always restore so ordering between tests cannot matter.
struct OptionsGuard {
  IndexOptions saved = index_options();
  simd::Level level = simd::active_level();
  ~OptionsGuard() {
    set_index_options(saved);
    simd::set_level_for_test(level);
  }
};

struct Workload {
  Schema schema;
  BrokerSummary summary;
  std::vector<Event> events;
};

/// A randomized multi-broker summary plus an event stream drawn from the
/// same value pools (so events hit rows at a realistic rate).
Workload make_workload(AacsMode mode, size_t n_subs, size_t n_events, uint64_t seed,
                       double subsumption = 0.9) {
  Workload w{workload::stock_schema(), BrokerSummary(), {}};
  w.summary = BrokerSummary(w.schema, GeneralizePolicy::kSafe, mode);

  workload::SubGenParams sp;
  sp.subsumption = subsumption;
  sp.pool_size = 4;          // small pools so pooled equalities actually collide
  sp.range_tightness = 0.5;  // exercise AACS splitting / coarse absorption
  workload::SubscriptionGenerator subs(w.schema, sp, seed);
  for (size_t i = 0; i < n_subs; ++i) {
    const auto sub = subs.next();
    // Four brokers, so the classic engine's one-broker dense gate is
    // exercised alongside the scan/heap paths.
    w.summary.add(sub, SubId{static_cast<uint32_t>(i % 4),
                             static_cast<uint32_t>(i / 4), sub.mask()});
  }

  workload::EventGenParams ep;
  ep.arith_attrs = 6;  // full events: attribute coverage never the blocker
  ep.string_attrs = 4;
  ep.hit_rate = 0.95;
  workload::EventGenerator events(w.schema, subs.pools(), ep, seed ^ 0xE5E5E5E5ULL);
  for (size_t i = 0; i < n_events; ++i) w.events.push_back(events.next());
  return w;
}

void expect_diag_eq(const MatchDiag& a, const MatchDiag& b, const char* what) {
  EXPECT_EQ(a.ids_collected, b.ids_collected) << what;
  EXPECT_EQ(a.unique_ids, b.unique_ids) << what;
  EXPECT_EQ(a.attrs_satisfied, b.attrs_satisfied) << what;
}

/// Runs every event through the three engines and pins ids + diag equal.
/// Returns how many events produced a nonempty match (test sanity).
size_t run_differential(const Workload& w, MatchScratch& scratch) {
  // The frozen path must actually be active for the comparison to mean
  // anything; fail loudly if the index refused to build.
  const auto idx = w.summary.frozen_for_match();
  EXPECT_NE(idx, nullptr) << "index did not engage; min_id_entries too high?";

  size_t nonempty = 0;
  MatchScratch classic;  // separate scratch: no shared state with frozen
  for (const Event& e : w.events) {
    MatchDiag dr, df, du;
    const auto ref = match_reference(w.summary, e, &dr);
    const auto frozen = match_into(w.summary, e, scratch, &df);
    EXPECT_EQ(std::vector<SubId>(frozen.begin(), frozen.end()), ref);
    expect_diag_eq(df, dr, "frozen vs reference");
    const auto classic_ids = match_into_unindexed(w.summary, e, classic, &du);
    EXPECT_EQ(std::vector<SubId>(classic_ids.begin(), classic_ids.end()), ref);
    expect_diag_eq(du, dr, "classic vs reference");
    if (!ref.empty()) ++nonempty;
  }
  return nonempty;
}

TEST(FrozenIndex, DifferentialAcrossModesShardsAndKernels) {
  OptionsGuard guard;
  const std::vector<simd::Level> levels = [] {
    std::vector<simd::Level> out{simd::Level::kScalar};
    if (simd::detected_level() != simd::Level::kScalar) out.push_back(simd::detected_level());
    return out;
  }();

  for (const AacsMode mode : {AacsMode::kExact, AacsMode::kCoarse}) {
    for (const uint32_t shards : {1u, 2u, 8u}) {
      set_index_options({.min_id_entries = 0, .shard_count = shards});
      const Workload w =
          make_workload(mode, /*n_subs=*/600, /*n_events=*/120,
                        /*seed=*/0xABCD0000u + shards + (mode == AacsMode::kCoarse ? 77 : 0));
      for (const simd::Level level : levels) {
        simd::set_level_for_test(level);
        MatchScratch scratch;
        const size_t nonempty = run_differential(w, scratch);
        EXPECT_GT(nonempty, 0u) << "workload produced no matches at all";
      }
    }
  }
}

TEST(FrozenIndex, ShardCountRequestIsAnUpperBound) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 0, .shard_count = 8});
  const Workload w = make_workload(AacsMode::kExact, 600, 0, 42);
  const auto idx = w.summary.frozen_for_match();
  ASSERT_NE(idx, nullptr);
  EXPECT_LE(idx->shard_count(), 8u);
  EXPECT_GE(idx->shard_count(), 1u);
  // Static layout accounting: per-shard entries sum to the arena size.
  uint64_t sum = 0;
  for (uint32_t s = 0; s < idx->shard_count(); ++s) sum += idx->shard_entries(s);
  EXPECT_EQ(sum, idx->entry_count());
  uint64_t row_sum = 0;
  idx->for_each_shard_row([&](uint32_t shard, uint64_t ids) {
    EXPECT_LT(shard, idx->shard_count());
    row_sum += ids;
  });
  EXPECT_EQ(row_sum, idx->entry_count());
}

TEST(FrozenIndex, VisitCountersAccumulateAndDrain) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 0, .shard_count = 2});
  const Workload w = make_workload(AacsMode::kExact, 600, 60, 7);
  const auto idx = w.summary.frozen_for_match();
  ASSERT_NE(idx, nullptr);
  MatchScratch scratch;
  scratch.use_combo_cache = false;  // cached answers skip the counter sweep
  size_t nonempty = 0;
  for (const Event& e : w.events) {
    if (!match_into(w.summary, e, scratch, nullptr).empty()) ++nonempty;
  }
  ASSERT_GT(nonempty, 0u);
  uint64_t visits = 0;
  for (uint32_t s = 0; s < idx->shard_count(); ++s) visits += idx->drain_shard_visits(s);
  EXPECT_GT(visits, 0u);
  // Drained: a second drain with no matches in between reads zero.
  for (uint32_t s = 0; s < idx->shard_count(); ++s) {
    EXPECT_EQ(idx->drain_shard_visits(s), 0u);
  }
}

TEST(FrozenIndex, MutationsInvalidateAndResultsStayExact) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 0, .shard_count = 0});
  Workload w = make_workload(AacsMode::kExact, 500, 60, 99);
  MatchScratch scratch;

  const auto before = w.summary.frozen_for_match();
  ASSERT_NE(before, nullptr);
  const uint64_t v0 = w.summary.version();

  // remove_broker(): version bumps, stale index leaves the match path,
  // results keep matching the (mutated) reference.
  w.summary.remove_broker(3);
  EXPECT_GT(w.summary.version(), v0);
  for (const Event& e : w.events) {
    MatchDiag dr, df;
    const auto ref = match_reference(w.summary, e, &dr);
    const auto got = match_into(w.summary, e, scratch, &df);
    ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), ref);
    expect_diag_eq(df, dr, "post-remove");
    for (const SubId& id : got) EXPECT_NE(id.broker, 3u);
  }

  // merge(): fold a second summary in; differential still holds (the
  // dirty-match counter above will have triggered at least one rebuild,
  // so both the stale-classic window and the rebuilt index are covered).
  const Workload other = make_workload(AacsMode::kExact, 300, 0, 1234);
  w.summary.merge(other.summary);
  for (const Event& e : w.events) {
    MatchDiag dr, df;
    const auto ref = match_reference(w.summary, e, &dr);
    const auto got = match_into(w.summary, e, scratch, &df);
    ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), ref);
    expect_diag_eq(df, dr, "post-merge");
  }
}

TEST(FrozenIndex, RebuildAfterDirtyThresholdProducesFreshIndex) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 0, .shard_count = 0});
  Workload w = make_workload(AacsMode::kExact, 500, 0, 5);
  const auto idx0 = w.summary.frozen_for_match();
  ASSERT_NE(idx0, nullptr);

  w.summary.remove_broker(2);  // invalidate
  // Below the dirty threshold the engine serves classic; drive enough
  // matches through to cross it (threshold is max(64, approx/1024)).
  MatchScratch scratch;
  const Event probe = make_workload(AacsMode::kExact, 1, 1, 5).events.at(0);
  for (int i = 0; i < 200; ++i) (void)match_into(w.summary, probe, scratch, nullptr);
  const auto idx1 = w.summary.frozen_if_built();
  ASSERT_NE(idx1, nullptr);
  EXPECT_EQ(idx1->summary_version(), w.summary.version());
  EXPECT_NE(idx1->build_id(), idx0->build_id());
}

TEST(FrozenIndex, ComboCacheHitsAreExactAndSurviveInvalidation) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 0, .shard_count = 2});
  Workload w = make_workload(AacsMode::kCoarse, 500, 40, 321);
  MatchScratch cached, cold;
  cold.use_combo_cache = false;

  // Two passes with the cache on: pass 2 is answered from the cache and
  // must agree with the cold scratch and the reference, diag included.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Event& e : w.events) {
      MatchDiag dr, dc, dn;
      const auto ref = match_reference(w.summary, e, &dr);
      const auto hot = match_into(w.summary, e, cached, &dc);
      ASSERT_EQ(std::vector<SubId>(hot.begin(), hot.end()), ref);
      expect_diag_eq(dc, dr, "combo cache");
      const auto raw = match_into(w.summary, e, cold, &dn);
      ASSERT_EQ(std::vector<SubId>(raw.begin(), raw.end()), ref);
      expect_diag_eq(dn, dr, "combo cache off");
    }
  }
  EXPECT_FALSE(cached.combo_cache.empty());

  // After a mutation the rebuilt index has a new build id, so stale cache
  // entries can never be returned (they are keyed by build id).
  w.summary.remove_broker(1);
  for (int i = 0; i < 200; ++i) (void)match_into(w.summary, w.events[0], cached, nullptr);
  for (const Event& e : w.events) {
    const auto ref = match_reference(w.summary, e, nullptr);
    const auto got = match_into(w.summary, e, cached, nullptr);
    ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), ref);
  }
}

TEST(FrozenIndex, CounterEpochWrapStaysExact) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 0, .shard_count = 1});
  const Workload w = make_workload(AacsMode::kExact, 500, 80, 777);
  MatchScratch scratch;
  scratch.use_combo_cache = false;  // every event must sweep the counters
  // Park the epoch just below the 24-bit wrap; the sweep bumps it per
  // counter block, so the wrap (full zero-fill + epoch reset) happens in
  // the middle of this event stream.
  scratch.dense_epoch = (1u << 24) - 3;
  for (const Event& e : w.events) {
    const auto ref = match_reference(w.summary, e, nullptr);
    const auto got = match_into(w.summary, e, scratch, nullptr);
    ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), ref);
  }
  EXPECT_LT(scratch.dense_epoch, 1u << 24);
}

TEST(FrozenIndex, LegacyDenseEpochWrapStaysExact) {
  // Same wrap property for the classic engine's dense fast path (its
  // cells share the scratch with the frozen sweep).
  const Workload w = make_workload(AacsMode::kExact, 400, 80, 778);
  MatchScratch scratch;
  scratch.dense_epoch = (1u << 24) - 3;
  for (const Event& e : w.events) {
    const auto ref = match_reference(w.summary, e, nullptr);
    const auto got = match_into_unindexed(w.summary, e, scratch, nullptr);
    ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), ref);
  }
}

TEST(FrozenIndex, BelowThresholdSummariesKeepClassicEngine) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 4096, .shard_count = 0});
  const Workload w = make_workload(AacsMode::kExact, 50, 20, 11);
  EXPECT_EQ(w.summary.frozen_for_match(), nullptr);
  MatchScratch scratch;
  for (const Event& e : w.events) {
    const auto ref = match_reference(w.summary, e, nullptr);
    const auto got = match_into(w.summary, e, scratch, nullptr);
    ASSERT_EQ(std::vector<SubId>(got.begin(), got.end()), ref);
  }
}

TEST(FrozenIndex, SimdKernelVariantsAgreeOnRandomInputs) {
  OptionsGuard guard;
  util::Rng rng(0xFEED);
  const std::vector<simd::Level> levels = [] {
    std::vector<simd::Level> out{simd::Level::kScalar};
    if (simd::detected_level() >= simd::Level::kSse2) out.push_back(simd::Level::kSse2);
    if (simd::detected_level() >= simd::Level::kAvx2) out.push_back(simd::Level::kAvx2);
    return out;
  }();

  for (int iter = 0; iter < 50; ++iter) {
    const size_t n = rng.below(257);  // covers remainders around vector widths
    std::vector<uint32_t> entries(n);
    const uint32_t mask = 255;
    std::vector<uint32_t> cells_proto(mask + 1);
    const uint32_t tag = static_cast<uint32_t>(rng.below(1u << 24)) << 8;
    // Entries mimic one counter block: slots inside a single 2^shift
    // window (so cell indexes are distinct — the gather-safety invariant),
    // strictly increasing after the dedup below.
    for (auto& e : entries) {
      e = (static_cast<uint32_t>(rng.below(mask + 1)) << 6) |
          static_cast<uint32_t>(rng.below(4));
    }
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](uint32_t a, uint32_t b) { return a >> 6 == b >> 6; }),
                  entries.end());
    for (auto& c : cells_proto) c = tag + static_cast<uint32_t>(rng.below(5));

    std::vector<std::vector<uint32_t>> req1_out, match_out, match_cells;
    std::vector<uint32_t> mins;
    for (const simd::Level level : levels) {
      simd::set_level_for_test(level);
      std::vector<uint32_t> out(entries.size() + 1, 0xDEADBEEF);
      const size_t w1 = simd::emit_req1(entries.data(), entries.size(), out.data());
      req1_out.emplace_back(out.begin(), out.begin() + static_cast<long>(w1));

      std::vector<uint32_t> cells = cells_proto;
      std::vector<uint32_t> out2(entries.size() + 1, 0xDEADBEEF);
      const size_t w2 = simd::emit_matches(entries.data(), entries.size(), cells.data(),
                                           mask, tag, out2.data());
      match_out.emplace_back(out2.begin(), out2.begin() + static_cast<long>(w2));
      match_cells.push_back(std::move(cells));

      if (!entries.empty()) mins.push_back(simd::min_u32(entries.data(), entries.size()));
    }
    for (size_t i = 1; i < levels.size(); ++i) {
      EXPECT_EQ(req1_out[i], req1_out[0]) << "emit_req1 level " << static_cast<int>(levels[i]);
      EXPECT_EQ(match_out[i], match_out[0])
          << "emit_matches level " << static_cast<int>(levels[i]);
      EXPECT_EQ(match_cells[i], match_cells[0])
          << "emit_matches cells level " << static_cast<int>(levels[i]);
    }
    for (size_t i = 1; i < mins.size(); ++i) EXPECT_EQ(mins[i], mins[0]);
  }
}

TEST(FrozenIndex, QualityProbeDivergenceStaysZeroWithIndexEngaged) {
  OptionsGuard guard;
  set_index_options({.min_id_entries = 0, .shard_count = 2});

  sim::SystemConfig cfg;
  cfg.schema = workload::stock_schema();
  cfg.graph = overlay::line(3);
  sim::SimSystem sys(cfg);

  workload::SubGenParams sp;
  sp.subsumption = 0.4;
  workload::SubscriptionGenerator subs(cfg.schema, sp, 2024);
  std::vector<model::Subscription> installed;
  for (size_t i = 0; i < 240; ++i) {
    installed.push_back(subs.next());
    sys.subscribe(i % sys.broker_count(), installed.back());
  }
  (void)sys.run_propagation_period();

  // Every broker a walk visits matches the event against its held summary;
  // the engine must agree with the reference matcher there, every time.
  // Every other event is built to match one of the subscriptions.
  workload::EventGenerator events(cfg.schema, subs.pools(), {}, 4048);
  size_t matched_ids = 0;
  for (size_t i = 0; i < 150; ++i) {
    std::optional<Event> built;
    if (i % 2 == 0) built = workload::matching_event(cfg.schema, installed[i % installed.size()]);
    const Event e = built ? *built : events.next();
    const auto out = sys.publish(i % sys.broker_count(), e);
    for (const auto b : out.route.visited) {
      const auto& held = sys.state().held[b];
      const auto got = match(held, e);
      ASSERT_EQ(got, match_reference(held, e)) << "publish " << i << " broker " << b;
      matched_ids += got.size();
    }
  }
  EXPECT_GT(matched_ids, 0u);  // the events reach real rows

  // The index must have actually served those matches.
  bool engaged = false;
  for (size_t b = 0; b < sys.broker_count(); ++b) {
    if (sys.state().held[b].frozen_if_built()) engaged = true;
  }
  EXPECT_TRUE(engaged);
}

}  // namespace
}  // namespace subsum::core
