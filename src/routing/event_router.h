// Distributed event processing (paper §4.3, Algorithm 3).
//
// Each event carries BROCLI_e, the set of brokers whose subscriptions have
// already been examined. A visited broker matches the event against its
// merged summary, notifies the owners (c1 of each matched id) of fresh
// matches, adds its whole Merged_Brokers set to BROCLI, and — while BROCLI
// does not contain all brokers — forwards the event to the broker with the
// highest degree not yet in BROCLI. Any broker may address any other
// directly; each such message counts as one hop (§5.2, "regardless of
// whether the two brokers are neighbors in the overlay topology").
//
// Duplicate-delivery suppression (see DESIGN.md): a broker notifies an
// owner only if that owner is NOT in the incoming BROCLI — otherwise some
// earlier broker already examined (a superset of) the owner's subscriptions
// and notified it.
//
// Load-balancing extension (paper §6 "virtual degrees"): the forwarding
// rule can use capped virtual degrees so the walk does not always hammer
// the same maximum-degree brokers; ties are rotated deterministically per
// event.
//
// The per-broker step (examine, next_hop) is transport-agnostic: the
// in-process route_event below and net::BrokerNode's TCP walk both call
// it on the same BROCLI bitmap the wire carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/matcher.h"
#include "model/event.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/propagation.h"

namespace subsum::routing {

/// One event->owner notification.
struct Delivery {
  overlay::BrokerId examined_at = 0;  // broker whose merged summary matched
  overlay::BrokerId owner = 0;        // c1 of the matched ids
  std::vector<model::SubId> ids;      // matched subscriptions of that owner
};

struct RouteResult {
  std::vector<overlay::BrokerId> visited;  // walk order, starting at origin
  std::vector<Delivery> deliveries;
  /// Down brokers the walk bypassed (marked in BROCLI unexamined), in the
  /// order encountered — mirrors BrokerNode's degraded TCP walk.
  std::vector<overlay::BrokerId> skipped;
  /// Matches owned by down brokers: undeliverable while the partition
  /// lasts (over TCP these sit in the sender's redelivery queue).
  std::vector<Delivery> undeliverable;
  /// Span log of the walk when RouterOptions::trace_id is set (empty
  /// otherwise). Timestamps are virtual: a step counter incremented per
  /// span, so identical walks give identical spans — byte-for-byte via
  /// obs::to_jsonl — which the determinism tests rely on.
  std::vector<obs::Span> spans;
  /// Forwarding messages between examining brokers (= visited.size()-1).
  size_t forward_hops = 0;
  /// Notification messages to owners; a broker that examines the event and
  /// owns a match delivers locally at zero hops.
  size_t delivery_hops = 0;

  [[nodiscard]] size_t total_hops() const noexcept { return forward_hops + delivery_hops; }

  /// All matched subscription ids across deliveries, sorted.
  [[nodiscard]] std::vector<model::SubId> matched_ids() const;
};

/// BROCLI walk-efficiency counters (the observatory's routing probe):
/// how many brokers a walk visits, how many forward vs delivery messages
/// it sends, and how often it had to re-select around a down broker
/// (marked unexamined in BROCLI). Pre-registers stable handles so fold()
/// is a handful of relaxed atomic adds — callable per publish.
struct WalkMetrics {
  explicit WalkMetrics(obs::MetricsRegistry& reg)
      : walks(reg.counter("subsum_walk_total")),
        visits(reg.counter("subsum_walk_visits_total")),
        forward_hops(reg.counter("subsum_walk_forward_hops_total")),
        delivery_hops(reg.counter("subsum_walk_delivery_hops_total")),
        reselects(reg.counter("subsum_walk_reselects_total")),
        undeliverable(reg.counter("subsum_walk_undeliverable_total")) {}

  /// Folds one finished walk into the counters. (const: mutation happens
  /// through the stable registry handles, so const publish paths may fold.)
  void fold(const RouteResult& r) const noexcept {
    walks->inc();
    visits->inc(r.visited.size());
    forward_hops->inc(r.forward_hops);
    delivery_hops->inc(r.delivery_hops);
    reselects->inc(r.skipped.size());
    undeliverable->inc(r.undeliverable.size());
  }

  obs::Counter* walks;
  obs::Counter* visits;
  obs::Counter* forward_hops;
  obs::Counter* delivery_hops;
  obs::Counter* reselects;      // down brokers bypassed, re-selected around
  obs::Counter* undeliverable;  // matches owned by down brokers
};

/// Which broker the walk forwards to next (§4.3 notes "a number of
/// alternatives ... trade-off event processing time with load
/// distribution").
enum class ForwardStrategy : uint8_t {
  /// The paper's presented rule: highest (possibly virtual) degree first.
  kHighestDegree = 0,
  /// Coverage-aware: the broker whose Merged_Brokers set would add the
  /// most unexamined brokers to BROCLI. Needs each broker's merged-set
  /// membership gossiped alongside the summaries (a few bytes per broker —
  /// the propagation phase already carries the sets); shortens walks on
  /// topologies whose degrees poorly predict knowledge concentration.
  kLargestCoverage = 1,
};

struct RouterOptions {
  ForwardStrategy strategy = ForwardStrategy::kHighestDegree;
  /// Optional per-broker virtual degrees replacing real degrees in the
  /// "highest degree not in BROCLI" choice. Size must equal broker count.
  std::optional<std::vector<int>> virtual_degrees;
  /// Rotates tie-breaking among equal-score candidates (e.g. a per-event
  /// sequence number) to spread load; 0 keeps the smallest-id rule.
  uint64_t tie_salt = 0;
  /// Brokers currently believed down (empty, or one flag per broker). The
  /// walk never forwards to a down broker: when one would be chosen it is
  /// marked in BROCLI unexamined (RouteResult::skipped) and the walk
  /// degrades to the next-best live broker; matches owned by down brokers
  /// land in RouteResult::undeliverable. The origin must be up.
  std::vector<char> down;
  /// Nonzero: record the walk as spans (RouteResult::spans) under this
  /// trace id. SimSystem mints ids deterministically (obs::mint_trace_id
  /// with salt 0) when SystemConfig::trace is on.
  uint64_t trace_id = 0;
};

// --- BROCLI bitmap: one bit per broker, the event's wire representation ----

std::vector<std::byte> make_bitmap(size_t bits);
bool bitmap_get(std::span<const std::byte> bm, size_t i);
void bitmap_set(std::span<std::byte> bm, size_t i);
/// Set bits among the first `bits`.
size_t bitmap_count(std::span<const std::byte> bm, size_t bits);

/// Algorithm 3 steps 1-2 at one broker, after it matched the event against
/// its merged summary: groups `matched` by owner (c1), keeping only owners
/// not in the incoming BROCLI (an earlier broker already examined and
/// notified them), then adds the broker's Merged_Brokers set to BROCLI.
std::map<overlay::BrokerId, std::vector<model::SubId>> examine(
    std::span<const model::SubId> matched, std::span<const overlay::BrokerId> merged_brokers,
    std::span<std::byte> brocli);

/// Algorithm 3 step 4: the broker to forward to — the one not in BROCLI
/// with the highest (virtual) degree, or under kLargestCoverage the one
/// whose Merged_Brokers set (`merged_brokers`, one per broker, which that
/// strategy requires) adds the most unexamined brokers; ties go to the
/// smallest id unless opts.tie_salt rotates them. nullopt once BROCLI holds
/// every broker. Down brokers are the caller's business (opts.down is not
/// read).
std::optional<overlay::BrokerId> next_hop(
    const overlay::Graph& g, std::span<const std::byte> brocli, const RouterOptions& opts = {},
    std::span<const std::vector<overlay::BrokerId>> merged_brokers = {});

/// Routes one event published at `origin` through the post-propagation
/// state. Complexity: at most n broker visits; each visit runs Algorithm 1
/// on the broker's merged summary. With `scratch`, the per-visit matching
/// runs through the caller's MatchScratch (one per thread — see
/// SimSystem::publish_batch); without, a per-thread default is used.
RouteResult route_event(const overlay::Graph& g, const PropagationResult& state,
                        overlay::BrokerId origin, const model::Event& event,
                        const RouterOptions& opts = {},
                        core::MatchScratch* scratch = nullptr);

/// Virtual degrees: real degrees capped at `cap` (paper §6 suggests
/// reducing the maximum-degree nodes' load).
std::vector<int> capped_virtual_degrees(const overlay::Graph& g, int cap);

}  // namespace subsum::routing
