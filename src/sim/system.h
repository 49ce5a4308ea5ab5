// SimSystem: the full summary-centric pub/sub system, in process.
//
// It wires together everything the paper describes: per-broker summaries
// (core), the degree-iteration propagation (routing, Algorithm 2), the
// BROCLI event walk (routing, Algorithm 3), and exact re-filtering at each
// subscription's home broker. Subscriptions become visible to the rest of
// the network at the next propagation period (the paper's σ batching);
// the home broker always matches its own subscriptions immediately.
//
// This class is the recommended public entry point for in-process use and
// is what the examples and most integration tests drive. For real sockets,
// see net/cluster.h, which speaks the same protocol over TCP.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/home_table.h"
#include "core/matcher.h"
#include "core/quality.h"
#include "core/serialize.h"
#include "model/event.h"
#include "model/subscription.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "overlay/graph.h"
#include "routing/event_router.h"
#include "routing/propagation.h"
#include "sim/bus.h"
#include "util/thread_pool.h"

namespace subsum::sim {

/// Approximate wire size of an event (1-byte attr tag + value bytes per
/// attribute), used to account event-forward bandwidth.
size_t event_wire_bytes(const model::Event& e);

struct SystemConfig {
  model::Schema schema;
  overlay::Graph graph;
  uint64_t max_subs_per_broker = uint64_t{1} << 20;  // sizes the id codec's c2
  core::GeneralizePolicy policy = core::GeneralizePolicy::kSafe;
  core::AacsMode arith_mode = core::AacsMode::kExact;  // kCoarse mirrors the paper
  uint8_t numeric_width = 8;  // wire width for AACS values (4 mirrors the paper)
  routing::RouterOptions router;
  routing::PropagationOptions propagation;
  /// The paper's §6 "combining summarization and subsumption": a new
  /// subscription covered by an already-propagated subscription of the same
  /// broker is NOT dissolved into the summaries (saving rows, ids and
  /// propagation bytes). Events reaching the broker are matched against the
  /// full home table, so covered subscriptions still receive exactly what
  /// they should: cov ⊆ root implies every event matching a covered
  /// subscription also matches its propagated coverer and therefore reaches
  /// the broker. Unsubscribing a coverer promotes its covered
  /// subscriptions into the summaries.
  bool combine_subsumption = false;
  /// Record every publish walk as spans in the system's trace ring. Trace
  /// ids are minted deterministically (obs::mint_trace_id, salt 0) and
  /// timestamps are virtual, so two identical runs produce byte-identical
  /// span logs — including through publish_batch, whose spans are folded
  /// into the ring in event order at the barrier.
  bool trace = false;
};

class SimSystem {
 public:
  explicit SimSystem(SystemConfig cfg);

  [[nodiscard]] const model::Schema& schema() const noexcept { return cfg_.schema; }
  [[nodiscard]] const overlay::Graph& graph() const noexcept { return cfg_.graph; }
  [[nodiscard]] size_t broker_count() const noexcept { return cfg_.graph.size(); }

  /// Registers a subscription at `broker`; returns its system-wide id.
  /// Local matching is immediate; remote brokers learn about it at the next
  /// run_propagation_period(). With a soft-state lease (the net layer's v4
  /// semantics), the subscription is expired — exactly like unsubscribe()
  /// — at the start of the `lease_periods`-th period, counted in
  /// subsum_lease_expired_total. 0 = permanent.
  model::SubId subscribe(overlay::BrokerId broker, model::Subscription sub,
                         uint32_t lease_periods = 0);

  /// Removes a subscription. Remote summary copies are cleaned up at the
  /// next propagation period (the paper leaves maintenance scheduling open;
  /// see DESIGN.md). An id that is not live (never issued, already
  /// unsubscribed, or expired) changes nothing.
  void unsubscribe(model::SubId id);

  /// Runs one propagation period over the subscriptions added since the
  /// previous period (the paper's σ batch), merging the results into each
  /// broker's steady-state summary, and applies pending removals globally.
  /// Returns the period's propagation trace.
  routing::PropagationResult run_propagation_period();

  struct PublishOutcome {
    /// Exact matches, confirmed by the owners' home subscription tables.
    std::vector<model::SubId> delivered;
    /// Summary-level matches before home-broker re-filtering (may contain
    /// SACS false positives; always a superset of `delivered`).
    std::vector<model::SubId> candidates;
    routing::RouteResult route;
  };

  /// Publishes an event at `origin` and routes it per Algorithm 3.
  PublishOutcome publish(overlay::BrokerId origin, const model::Event& event);

  /// Publishes a batch of independent events at `origin`, sharding the
  /// BROCLI walks and candidate matching across `pool`'s workers (one
  /// MatchScratch per shard). Events do not mutate broker state, only the
  /// accounting ledger; each shard records into a private Accounting delta
  /// and the deltas are merged at the barrier, so per-event outcomes AND
  /// the ledger totals are identical to running the sequential publish()
  /// loop — for every pool size, including the inline (0/1-thread) pool.
  std::vector<PublishOutcome> publish_batch(overlay::BrokerId origin,
                                            std::span<const model::Event> events,
                                            util::ThreadPool& pool);

  /// publish_batch() on an internally-owned pool sized
  /// ThreadPool::hardware_threads() (created on first use).
  std::vector<PublishOutcome> publish_batch(overlay::BrokerId origin,
                                            std::span<const model::Event> events);

  [[nodiscard]] const Accounting& accounting() const noexcept { return acct_; }
  Accounting& accounting() noexcept { return acct_; }

  /// Post-propagation routing state (held summaries + Merged_Brokers).
  [[nodiscard]] const routing::PropagationResult& state() const noexcept { return state_; }

  /// Total bytes of summary structures held across all brokers (fig 11's
  /// storage metric for our approach).
  [[nodiscard]] size_t summary_storage_bytes() const;

  /// Order-independent content digest of broker b's held summary
  /// (core/delta.h) — the same convergence witness the net layer exposes.
  [[nodiscard]] uint64_t held_digest(overlay::BrokerId b) const;

  [[nodiscard]] const core::WireConfig& wire() const noexcept { return wire_; }

  /// Span log of recent publishes (empty unless SystemConfig::trace).
  [[nodiscard]] const obs::TraceRing& trace_ring() const noexcept { return trace_ring_; }

  /// Virtual-time flight recorder: period boundaries and lease expiries,
  /// stamped with deterministic virtual timestamps (period * 1s), so two
  /// identical runs produce byte-identical serialize() output — the sim's
  /// reproducibility witness for the black-box format.
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const noexcept {
    return flight_;
  }

  /// The system's metrics registry: walk-efficiency counters
  /// (subsum_walk_*), the quality probe counted on every publish
  /// (subsum_quality_*, subsum_summary_false_positive_ids_total,
  /// subsum_summary_precision)
  /// and per-broker summary gauges/histograms labeled {broker="N"}
  /// (model drift, row occupancy — refreshed each propagation period).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// The quality probe (for tests: cumulative precision).
  [[nodiscard]] const core::QualityProbe& quality_probe() const noexcept { return probe_; }

 private:
  /// Registers `id` in the summaries (delta + local held).
  void dissolve(overlay::BrokerId broker, const model::Subscription& sub, model::SubId id);

  /// The publish pipeline for one event: const on broker state, records
  /// into the given ledger (the member ledger for publish(), a per-shard
  /// delta for publish_batch()).
  PublishOutcome publish_one(overlay::BrokerId origin, const model::Event& event,
                             Accounting& acct, core::MatchScratch* scratch,
                             uint64_t trace_id) const;

  SystemConfig cfg_;
  core::WireConfig wire_;
  Accounting acct_;

  std::vector<core::HomeTable> home_;             // per broker: own subs + leases
  std::vector<core::BrokerSummary> delta_;        // this period's new subs
  std::vector<model::SubId> pending_removals_;
  routing::PropagationResult state_;              // cumulative held summaries
  /// combine_subsumption bookkeeping: propagated root -> covered local subs.
  std::map<model::SubId, std::vector<model::SubId>> covered_by_;
  std::unique_ptr<util::ThreadPool> publish_pool_;  // lazily built default pool
  obs::TraceRing trace_ring_;   // publish spans, event order (cfg_.trace)
  obs::FlightRecorder flight_{0, 1024, /*virtual_time=*/true};
  uint64_t publish_seq_ = 0;    // deterministic trace-id stream
  uint64_t period_seq_ = 0;     // virtual clock for flight_ stamps
  obs::MetricsRegistry metrics_;        // declared before the handle holders below
  routing::WalkMetrics walk_metrics_;   // BROCLI walk-efficiency counters
  core::QualityProbe probe_;            // candidates vs delivered, every publish
};

}  // namespace subsum::sim
