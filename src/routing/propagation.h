// Subscription summary propagation (paper §4.2, Algorithm 2).
//
// The phase runs max_degree iterations. In iteration i every broker whose
// overlay degree equals i (1) merges its own summary with everything it
// received in previous iterations, updating its Merged_Brokers set, and
// (2) sends the merged summary + Merged_Brokers to ONE neighbor of equal or
// higher degree with which it has not yet communicated, preferring the
// smallest such degree. A broker with no eligible neighbor (typically the
// maximum-degree broker) sends nothing and becomes a knowledge sink.
//
// The result intentionally leaves each broker with PARTIAL global knowledge
// (fig 7: broker 5 ends up knowing brokers 1-6 only); the BROCLI event walk
// (event_router.h) restores completeness.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/serialize.h"
#include "core/summary.h"
#include "overlay/graph.h"

namespace subsum::routing {

/// One summary message of the propagation phase (kept for tests/tracing).
struct PropagationSend {
  int iteration = 0;
  overlay::BrokerId from = 0;
  overlay::BrokerId to = 0;
  size_t bytes = 0;  // wire size of the merged summary + Merged_Brokers set
};

/// Per-broker outcome of one propagation phase.
struct PropagationResult {
  /// held[b]: b's own summary merged with everything b received.
  std::vector<core::BrokerSummary> held;
  /// merged_brokers[b]: ids whose subscriptions are included in held[b]
  /// (always contains b itself).
  std::vector<std::vector<overlay::BrokerId>> merged_brokers;
  /// Every summary message, in delivery order.
  std::vector<PropagationSend> sends;

  [[nodiscard]] size_t hops() const noexcept { return sends.size(); }
  [[nodiscard]] size_t total_bytes() const noexcept;
};

/// Which eligible neighbor (degree >= own, not yet communicated with) a
/// broker sends its merged summary to. The paper says "preferably the one
/// with the smallest degree"; sending uphill to the largest-degree
/// neighbor concentrates knowledge at the hubs faster, which shortens the
/// BROCLI walk (see bench_ablations).
enum class NeighborPreference : uint8_t {
  kSmallestDegree = 0,  // the paper's stated rule
  kLargestDegree = 1,
};

struct PropagationOptions {
  /// Bytes charged per broker id inside a Merged_Brokers set on the wire.
  size_t broker_id_bytes = 4;
  NeighborPreference preference = NeighborPreference::kSmallestDegree;
  /// Delivery timing within one iteration. The paper's wording ("summaries
  /// received in the previous iterations") suggests deferred delivery, but
  /// under it equal-degree neighbors swap summaries in parallel and merged
  /// knowledge strands below the hubs. With immediate (sequential, by
  /// broker id) delivery, same-degree chains concatenate inside an
  /// iteration — the behaviour a straightforward sequential simulator
  /// exhibits, and the one that reproduces the paper's event-hop numbers.
  /// Both satisfy the paper's figure-7 walkthrough.
  bool immediate_delivery = false;
};

/// Algorithm 2's send target for broker `b` in the iteration equal to its
/// degree: a neighbor of equal or higher degree that b has not yet
/// communicated with this period (`communicated`, one flag per broker id),
/// chosen by `pref`; ties go to the smaller id. nullopt for a knowledge
/// sink. The sim's propagate() and net::BrokerNode both call this.
std::optional<overlay::BrokerId> send_target(
    const overlay::Graph& g, overlay::BrokerId b, std::span<const char> communicated,
    NeighborPreference pref = NeighborPreference::kSmallestDegree);

/// Merged_Brokers ∪= `other`. `merged` is sorted; `other` may arrive in
/// any order (it can come off the wire).
void merge_brokers(std::vector<overlay::BrokerId>& merged,
                   std::vector<overlay::BrokerId> other);

/// Runs one propagation phase. `own[b]` is broker b's (delta) summary for
/// this period; all summaries must share one schema. The WireConfig is used
/// to account the bytes of each send.
PropagationResult propagate(const overlay::Graph& g, const std::vector<core::BrokerSummary>& own,
                            const core::WireConfig& wire,
                            const PropagationOptions& opts = {});

// --- epoch-based anti-entropy ------------------------------------------------
//
// Every broker stamps its summary announcements with a monotonically
// increasing EPOCH (its incarnation number, persisted by src/store and
// bumped on every restart). A receiver keeps the highest epoch observed
// per origin broker; the comparison below turns the state-based resends of
// the failure model (DESIGN.md §6) into a real anti-entropy rule:
//
//   kNewer   -- the origin restarted: every held row owned by it belongs
//               to a dead incarnation and must be discarded before the
//               fresh image is merged.
//   kStale   -- the announcement predates the origin's current
//               incarnation (a delayed pre-crash message): ignore it.
//   kCurrent -- same incarnation; plain idempotent merge.

enum class EpochCheck : uint8_t {
  kCurrent = 0,
  kNewer = 1,
  kStale = 2,
};

/// Highest epoch observed per origin broker. Epoch 0 means "epochs unused"
/// (ephemeral brokers); it never triggers a discard, preserving the plain
/// state-based-resend behaviour.
class EpochTable {
 public:
  EpochTable() = default;
  explicit EpochTable(size_t brokers) : epochs_(brokers, 0) {}

  /// Classifies an announcement from `origin` stamped `epoch`, updating
  /// the table to the maximum of the two.
  EpochCheck observe(overlay::BrokerId origin, uint64_t epoch);

  [[nodiscard]] uint64_t epoch_of(overlay::BrokerId origin) const {
    return origin < epochs_.size() ? epochs_[origin] : 0;
  }
  void set(overlay::BrokerId origin, uint64_t epoch);
  [[nodiscard]] size_t size() const noexcept { return epochs_.size(); }

 private:
  std::vector<uint64_t> epochs_;
};

}  // namespace subsum::routing
