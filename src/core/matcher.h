// The matching algorithm (paper §3.3, Algorithm 1) plus a per-subscription
// naive matcher used as the exactness oracle in tests and as the comparison
// point for the §5.2.4 computational-cost benches. NaiveMatcher is only
// that oracle and baseline: a broker's own exact table, with lookup by id
// and the owner's re-filter, is core::HomeTable (core/home_table.h).
//
// Two implementations of Algorithm 1 live here:
//
//  * match_into() — the engine. Summaries large enough to carry a frozen
//    index (core/frozen_index.h) dispatch to its sharded SoA + SIMD
//    counter sweep; below the index threshold (and while an index rebuild
//    is pending) the classic engine runs: a two-pass dense-counter fast
//    path when every collected id belongs to one broker and the local-id
//    range fits the gate (epoch-tagged counters, so the per-event reset
//    is O(1), not a memset of the range), a compacting linear min-scan
//    for k <= kScanMaxLists lists, and a binary-heap k-way merge
//    (O(P log k)) otherwise. All working memory lives in a caller-owned
//    MatchScratch, so steady-state matching performs zero heap
//    allocations.
//  * match_reference() — the original straightforward implementation,
//    kept verbatim as the differential-testing oracle and as the "seed"
//    comparison point in bench/bench_matching and tools/bench_json. No
//    broker or simulator path calls it at runtime.
//
// match() keeps the historic signature as a thin wrapper over match_into()
// with a per-thread scratch.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/summary.h"
#include "model/event.h"
#include "model/subscription.h"

namespace subsum::core {

/// Diagnostics from one match() call (step-1 work, for the cost analysis).
struct MatchDiag {
  size_t ids_collected = 0;   // Σ lengths of collected id lists (P in §5.2.4)
  size_t unique_ids = 0;      // distinct subscription ids seen in step 1
  size_t attrs_satisfied = 0;  // event attributes with at least one hit
};

/// Reusable working memory for match_into(). One scratch serves any number
/// of sequential match_into() calls (buffers grow to the workload's
/// high-water mark and are then reused, so steady state allocates
/// nothing); results live in `out` and are overwritten by the next call.
/// A scratch must not be shared between concurrent calls — use one per
/// thread (SimSystem::publish_batch keeps one per shard).
struct MatchScratch {
  /// Matched ids of the most recent match_into() call (sorted).
  std::vector<model::SubId> out;

  /// Set false to bypass the frozen index's row-combination result cache
  /// (bench "cold" mode; correctness is identical either way).
  bool use_combo_cache = true;

  // -- internals, exposed so the struct stays an aggregate --
  struct Cursor {
    const model::SubId* cur;
    const model::SubId* end;
  };
  std::vector<std::vector<model::SubId>> owned;  // reused Sacs::find_into buffers
  std::vector<Cursor> lists;                     // step-1 id list cursors
  std::vector<uint32_t> heap;                    // k-way merge heap (list indices)

  /// Epoch-tagged counter cells `(epoch << 8) | count`, shared by the
  /// legacy dense fast path and the frozen index's tiled counter window.
  /// A cell whose epoch field differs from `dense_epoch` is logically
  /// zero, so per-event resets cost one epoch bump instead of a memset of
  /// the whole local-id range; the array is only zero-filled on growth
  /// (vector zero-init) and when the 24-bit epoch wraps.
  std::vector<uint32_t> dense_cells;
  uint32_t dense_epoch = 0;

  // -- frozen-index internals (see core/frozen_index.h) --
  struct FrozenList {
    uint32_t off;      // into the index arena, or into `merged`
    uint32_t len;
    bool in_merged;    // multi-row SACS hit, deduplicated into `merged`
  };
  std::vector<FrozenList> flists;     // step-1 entry lists (one per satisfied attr)
  std::vector<uint32_t> merged;       // dedup buffer for multi-row SACS hits
  std::vector<uint32_t> out_slots;    // emitted slots, sorted then translated to ids
  std::vector<uint32_t> sig;          // row-combination signature (frozen row ids)

  /// Row-combination result cache: two events satisfying exactly the same
  /// summary rows have identical match sets, so repeated combinations are
  /// answered by one lookup (keyed by the owning index's build id plus
  /// the exact signature — a hash collision degrades to a miss).
  struct ComboEntry {
    uint64_t build_id = 0;
    std::vector<uint32_t> sig;
    std::vector<model::SubId> out;
    MatchDiag diag;
  };
  std::unordered_map<uint64_t, ComboEntry> combo_cache;
};

/// Bound on combo_cache entries per scratch; the cache is cleared when it
/// fills (simple, and a steady workload re-warms within one pass).
inline constexpr size_t kComboCacheMaxEntries = 1024;

/// Dense fast-path gate: all collected ids must share one broker and span a
/// local-id range of at most kDenseSlack × P + kDenseMinWidth slots (the
/// only O(range) work is a memset, so the slack can be generous) and at
/// most kDenseMaxWidth slots (bounds scratch memory at 1 byte per slot).
/// Outside the gate, k <= kScanMaxLists uses a compacting linear min-scan
/// (heap bookkeeping loses at tiny k) and larger k the heap merge.
inline constexpr size_t kDenseSlack = 64;
inline constexpr size_t kDenseMinWidth = 4096;
inline constexpr size_t kDenseMaxWidth = size_t{1} << 24;
inline constexpr size_t kScanMaxLists = 4;

/// Algorithm 1. Step 1 scans the summary structures per event attribute and
/// counts, per subscription id, in how many per-attribute id lists it
/// appears; step 2 keeps the ids whose counter equals popcount(c3).
/// The result is sorted, lives in `scratch.out`, and is valid until the
/// next call using the same scratch.
std::span<const model::SubId> match_into(const BrokerSummary& summary,
                                         const model::Event& event, MatchScratch& scratch,
                                         MatchDiag* diag = nullptr);

/// match_into() restricted to the classic (unindexed) engine: the dense /
/// scan / heap step-2 over the live AACS/SACS structures, never the frozen
/// index. This is what match_into() dispatches to below the index
/// threshold; exposed for differential tests and trajectory benches.
std::span<const model::SubId> match_into_unindexed(const BrokerSummary& summary,
                                                   const model::Event& event,
                                                   MatchScratch& scratch,
                                                   MatchDiag* diag = nullptr);

/// Historic signature: match_into() over a per-thread scratch, copied out.
std::vector<model::SubId> match(const BrokerSummary& summary, const model::Event& event,
                                MatchDiag* diag = nullptr);

/// The pre-optimization implementation (repeated linear min-scan over the
/// k lists, fresh allocations per call). Oracle for differential tests and
/// the "seed" baseline for the perf trajectory in BENCH_matching.json.
std::vector<model::SubId> match_reference(const BrokerSummary& summary,
                                          const model::Event& event,
                                          MatchDiag* diag = nullptr);

/// Oracle/baseline: stores whole subscriptions and scans them per event.
class NaiveMatcher {
 public:
  void add(model::OwnedSubscription sub) { subs_.push_back(std::move(sub)); }
  void remove(model::SubId id);

  /// Exact matches, sorted by id.
  [[nodiscard]] std::vector<model::SubId> match(const model::Event& event) const;

  [[nodiscard]] const std::vector<model::OwnedSubscription>& subs() const noexcept {
    return subs_;
  }
  [[nodiscard]] size_t size() const noexcept { return subs_.size(); }

 private:
  std::vector<model::OwnedSubscription> subs_;
};

}  // namespace subsum::core
