// Per-broker subscription summaries (paper §3) and multi-broker summaries
// (paper §4.1).
//
// A BrokerSummary is the paradigm's central object: incoming subscriptions
// are DISSOLVED into their attribute constraints, which are merged into the
// per-attribute AACS/SACS structures; the subscription itself is not stored
// here ("there are no subscription entities, only subscription summaries").
//
// Conjunctive arithmetic constraints on one attribute are intersected into
// a single IntervalSet before insertion, so AACS lookups are exact.
// String constraints go through SACS generalization and are conservatively
// over-approximated. End-to-end exactness is restored at the subscription's
// home broker (which keeps the OwnedSubscription anyway, to know the
// consumer).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/aacs.h"
#include "core/sacs.h"
#include "model/event.h"
#include "model/schema.h"
#include "model/subscription.h"

namespace subsum::core {

class FrozenIndex;

/// Row/size statistics in the paper's symbols (table 1).
struct SummaryStats {
  size_t nsr = 0;         // Σ over arithmetic attributes of sub-range rows
  size_t ne = 0;          // Σ of equality rows
  size_t nr = 0;          // Σ over string attributes of SACS rows
  size_t la_entries = 0;  // Σ La: id entries across AACS rows
  size_t ls_entries = 0;  // Σ Ls: id entries across SACS rows
  size_t value_bytes = 0;  // Σ ssv: bytes of SACS string operands
};

class BrokerSummary {
 public:
  BrokerSummary() = default;
  /// The summary keeps a pointer to `schema`, which must outlive it;
  /// binding a temporary is rejected at compile time.
  explicit BrokerSummary(const model::Schema& schema,
                         GeneralizePolicy policy = GeneralizePolicy::kSafe,
                         AacsMode arith_mode = AacsMode::kExact);
  explicit BrokerSummary(model::Schema&&, GeneralizePolicy = GeneralizePolicy::kSafe,
                         AacsMode = AacsMode::kExact) = delete;

  // The frozen-index handle is an atomic<shared_ptr>, so the special
  // members are user-defined (out of line: FrozenIndex is incomplete
  // here). Copies share the immutable index; the moved-from summary
  // drops its handle.
  BrokerSummary(const BrokerSummary& o);
  BrokerSummary& operator=(const BrokerSummary& o);
  BrokerSummary(BrokerSummary&& o) noexcept;
  BrokerSummary& operator=(BrokerSummary&& o) noexcept;
  ~BrokerSummary();

  /// Dissolves a subscription into the summary. The id's c3 mask must equal
  /// the subscription's attribute mask (checked, throws std::invalid_argument).
  void add(const model::Subscription& sub, model::SubId id);

  /// Removes one subscription id from every structure its c3 mask touches.
  void remove(model::SubId id);

  /// Removes every id owned by `broker` from every structure: the
  /// epoch-based anti-entropy discard applied when a peer announces a
  /// newer incarnation (its pre-crash rows are replaced by the fresh
  /// image merged right after).
  void remove_broker(model::BrokerId broker);

  /// Folds another broker's summary into this one (multi-broker merge).
  /// Schemata must agree.
  void merge(const BrokerSummary& other);

  /// Low-level row insertion, used by the wire decoder. `ids` must be
  /// sorted and unique; the attribute's type must fit the structure.
  void insert_arith(model::AttrId id, const Interval& iv, std::span<const model::SubId> ids);
  void insert_string(model::AttrId id, const StringPattern& p,
                     std::span<const model::SubId> ids);

  /// Drops all rows.
  void clear();

  /// Exact-rebuild maintenance path: reconstructs the summary from a home
  /// broker's subscriptions (any range of model::OwnedSubscription, such
  /// as a vector or core::HomeTable::entries()), adding them in range
  /// order and shedding any accumulated SACS generalization slack after
  /// heavy unsubscription churn.
  template <class OwnedSubs>
  static BrokerSummary rebuild(const model::Schema& schema, GeneralizePolicy policy,
                               const OwnedSubs& subs, AacsMode arith_mode = AacsMode::kExact) {
    BrokerSummary out(schema, policy, arith_mode);
    for (const model::OwnedSubscription& os : subs) out.add(os.sub, os.id);
    return out;
  }

  /// Dynamic schema extension (paper §6 future work): migrates the summary
  /// to a schema that appends attributes to the current one. Existing
  /// attribute ids — and the bit positions in every issued c3 — are
  /// preserved, so all rows and subscription ids carry over verbatim.
  /// `wider` must outlive the returned summary. Throws
  /// std::invalid_argument if it is not an extension of this schema.
  [[nodiscard]] BrokerSummary with_schema(const model::Schema& wider) const;

  [[nodiscard]] const model::Schema& schema() const noexcept { return *schema_; }
  [[nodiscard]] GeneralizePolicy policy() const noexcept { return policy_; }
  [[nodiscard]] AacsMode arith_mode() const noexcept { return arith_mode_; }

  /// Per-attribute structure access (type-checked).
  [[nodiscard]] const Aacs& aacs(model::AttrId id) const;
  [[nodiscard]] const Sacs& sacs(model::AttrId id) const;

  /// True when no rows exist at all.
  [[nodiscard]] bool empty() const noexcept;

  [[nodiscard]] SummaryStats stats() const noexcept;

  [[nodiscard]] std::string to_string() const;

  /// Monotone mutation stamp, minted from a process-global counter by
  /// every mutator. A FrozenIndex built at version V is fresh exactly
  /// while version() == V.
  [[nodiscard]] uint64_t version() const noexcept { return version_; }

  /// Approximate Σ id entries across all rows, maintained incrementally
  /// (exactly refreshed on the admin-path mutators). Heuristic input to
  /// the frozen-index threshold only.
  [[nodiscard]] size_t approx_id_entries() const noexcept { return approx_id_entries_; }

  /// The frozen index for the matching path, or null when the classic
  /// engine should run (summary below IndexOptions::min_id_entries, too
  /// large for the slot space, or stale pending an amortized rebuild).
  /// Builds lazily; concurrent callers may race to build, last store
  /// wins and both results are valid. Const because all mutation is
  /// through atomics — safe from concurrent match paths.
  [[nodiscard]] std::shared_ptr<const FrozenIndex> frozen_for_match() const;

  /// The current index if one is built, fresh, and usable — never
  /// builds. For exporters/introspection (scrape must not freeze).
  [[nodiscard]] std::shared_ptr<const FrozenIndex> frozen_if_built() const;

  bool operator==(const BrokerSummary& o) const {
    return aacs_ == o.aacs_ && sacs_ == o.sacs_;
  }

 private:
  /// Stamps a new version and resets the dirty-match rebuild counter;
  /// called by every mutator (the stale index itself is left in place —
  /// frozen_for_match() sees the version mismatch and sidesteps it).
  void bump_version() noexcept;

  const model::Schema* schema_ = nullptr;
  GeneralizePolicy policy_ = GeneralizePolicy::kSafe;
  AacsMode arith_mode_ = AacsMode::kExact;
  std::vector<Aacs> aacs_;  // indexed by AttrId; unused slots for string attrs
  std::vector<Sacs> sacs_;  // indexed by AttrId; unused slots for arithmetic attrs

  uint64_t version_ = 0;          // 0 = default-constructed, never indexed
  size_t approx_id_entries_ = 0;  // incremental; see approx_id_entries()
  /// Matches served by the classic engine while the index was stale;
  /// once it crosses the rebuild threshold the next match re-freezes.
  mutable std::atomic<uint64_t> dirty_matches_{0};
  mutable std::atomic<std::shared_ptr<const FrozenIndex>> index_{};
};

}  // namespace subsum::core
