// The home table: one broker's own subscriptions, keyed by c2, the
// per-broker sequence number packed into every id as c1|c2|c3 (paper
// §3.2). A matched id goes back to its owner c1, which finds the exact
// subscription by c2 here and re-filters SACS false positives (§3.3). Each
// entry also holds the subscription's soft-state lease (PROTOCOL v4).
// SimSystem, net::BrokerNode and store::BrokerStore's recovery all keep
// their home state in this one type.
//
// c2 is never reused, so ascending c2 is insertion order: iteration, the
// summaries rebuilt from a table and the snapshots written from it all see
// subscriptions in the order they were issued.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <ranges>
#include <span>
#include <vector>

#include "model/event.h"
#include "model/subscription.h"

namespace subsum::core {

/// A subscription's soft-state lease, in propagation periods.
struct Lease {
  uint32_t ttl = 0;        // periods granted per renewal; 0 = permanent
  uint32_t remaining = 0;  // periods left; expires when a tick takes it to 0
};

/// One entry: the subscription under its full id, and its lease.
struct HomeEntry : model::OwnedSubscription {
  Lease lease;
};

class HomeTable {
 public:
  /// The table of broker `owner`, which may issue `max_subs` c2 values.
  HomeTable(model::BrokerId owner, uint64_t max_subs) : owner_(owner), max_subs_(max_subs) {}

  /// Issues the next c2 for a subscription constraining `attrs`. Throws
  /// std::runtime_error once `max_subs` ids have been issued.
  [[nodiscard]] model::SubId allocate(model::AttrMask attrs);
  [[nodiscard]] uint32_t next_local() const noexcept { return next_local_; }
  /// Recovery: issue no c2 below `next_local`.
  void advance_next_local(uint32_t next_local) {
    next_local_ = std::max(next_local_, next_local);
  }

  /// Stores `os` without a lease and advances next_local() past its c2.
  /// Returns false, changing nothing, for another broker's id or a c2
  /// already present.
  bool add(model::OwnedSubscription os);
  /// Removes `id` if it is live; otherwise returns false, changing nothing.
  bool remove(model::SubId id);
  /// The entry stored under exactly `id` (c1, c2 and c3), or null.
  [[nodiscard]] const HomeEntry* find(model::SubId id) const;

  /// The owner's exact re-filter: the ids among `ids` stored here whose
  /// subscription matches `event`, in the order given.
  [[nodiscard]] std::vector<model::SubId> refilter(std::span<const model::SubId> ids,
                                                   const model::Event& event) const;
  /// Every stored subscription matching `event`, in ascending c2.
  [[nodiscard]] std::vector<model::SubId> match(const model::Event& event) const;

  /// Gives live `id` a full window of `ttl` periods (0 = permanent).
  /// Returns false, changing nothing, when `id` is not live.
  bool grant_lease(model::SubId id, uint32_t ttl);
  /// Restores `id`'s full window. Returns false when it holds no lease.
  bool renew_lease(model::SubId id);
  /// One period passes: returns, in ascending c2, the ids whose lease
  /// reached 0. Their leases are gone; removing them, since expiry is an
  /// unsubscribe, is left to the caller.
  std::vector<model::SubId> tick_leases();

  [[nodiscard]] size_t size() const noexcept { return entries_.size(); }
  /// Entries holding a lease (never more than size()).
  [[nodiscard]] size_t lease_count() const noexcept { return leases_; }
  /// The entries, in ascending c2.
  [[nodiscard]] auto entries() const { return std::views::values(entries_); }

 private:
  HomeEntry* find_mut(model::SubId id) { return const_cast<HomeEntry*>(find(id)); }

  model::BrokerId owner_;
  uint64_t max_subs_;
  uint32_t next_local_ = 0;
  size_t leases_ = 0;
  std::map<uint32_t, HomeEntry> entries_;  // c2 -> entry
};

}  // namespace subsum::core
