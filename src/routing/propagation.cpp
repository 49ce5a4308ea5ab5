#include "routing/propagation.h"

#include <algorithm>
#include <stdexcept>

namespace subsum::routing {

using overlay::BrokerId;

size_t PropagationResult::total_bytes() const noexcept {
  size_t n = 0;
  for (const auto& s : sends) n += s.bytes;
  return n;
}

std::optional<BrokerId> send_target(const overlay::Graph& g, BrokerId b,
                                    std::span<const char> communicated,
                                    NeighborPreference pref) {
  std::optional<BrokerId> target;
  for (BrokerId nb : g.neighbors(b)) {  // sorted: ties keep the smaller id
    if (g.degree(nb) < g.degree(b) || communicated[nb]) continue;
    const bool better = !target || (pref == NeighborPreference::kSmallestDegree
                                         ? g.degree(nb) < g.degree(*target)
                                         : g.degree(nb) > g.degree(*target));
    if (better) target = nb;
  }
  return target;
}

void merge_brokers(std::vector<BrokerId>& merged, std::vector<BrokerId> other) {
  std::sort(other.begin(), other.end());
  std::vector<BrokerId> out;
  std::set_union(merged.begin(), merged.end(), other.begin(), other.end(),
                 std::back_inserter(out));
  merged = std::move(out);
}

PropagationResult propagate(const overlay::Graph& g, const std::vector<core::BrokerSummary>& own,
                            const core::WireConfig& wire, const PropagationOptions& opts) {
  const size_t n = g.size();
  if (own.size() != n) {
    throw std::invalid_argument("one summary per broker required");
  }

  PropagationResult r;
  r.held = own;  // copies: held state starts as each broker's own summary
  r.merged_brokers.resize(n);
  for (BrokerId b = 0; b < n; ++b) r.merged_brokers[b] = {b};

  // communicated[b][x]: b has exchanged a summary with x (either
  // direction), per "a neighbor with which it has not communicated in any
  // of the previous iterations".
  std::vector<std::vector<char>> communicated(n, std::vector<char>(n, 0));

  struct Pending {
    BrokerId from, to;
    core::BrokerSummary summary;
    std::vector<BrokerId> merged;
  };

  const auto deliver = [&](const Pending& p) {
    communicated[p.from][p.to] = 1;
    communicated[p.to][p.from] = 1;
    r.held[p.to].merge(p.summary);
    merge_brokers(r.merged_brokers[p.to], p.merged);
  };

  const size_t max_degree = g.max_degree();
  for (size_t it = 1; it <= max_degree; ++it) {
    std::vector<Pending> pending;
    for (BrokerId b = 0; b < n; ++b) {
      if (g.degree(b) != it) continue;
      const auto target = send_target(g, b, communicated[b], opts.preference);
      if (!target) continue;  // knowledge sink: nothing to send
      Pending p{b, *target, r.held[b], r.merged_brokers[b]};
      r.sends.push_back({static_cast<int>(it), b, *target,
                         core::wire_size(r.held[b], wire) +
                             opts.broker_id_bytes * r.merged_brokers[b].size()});
      if (opts.immediate_delivery) {
        deliver(p);  // sequential semantics: same-iteration chains compose
      } else {
        pending.push_back(std::move(p));
      }
    }
    // Deferred semantics: deliveries land after all sends of the
    // iteration, so a broker acting now sends its pre-iteration state.
    for (auto& p : pending) deliver(p);
  }
  return r;
}

EpochCheck EpochTable::observe(overlay::BrokerId origin, uint64_t epoch) {
  // Epoch 0 means the origin does not persist state (ephemeral broker):
  // no incarnation ordering exists, so never judge it stale or newer.
  if (epoch == 0) return EpochCheck::kCurrent;
  if (origin >= epochs_.size()) epochs_.resize(origin + 1, 0);
  uint64_t& known = epochs_[origin];
  if (epoch < known) return EpochCheck::kStale;
  if (epoch > known && known > 0) {
    known = epoch;
    return EpochCheck::kNewer;
  }
  // First observation (known == 0) carries no prior state to discard.
  known = epoch;
  return EpochCheck::kCurrent;
}

void EpochTable::set(overlay::BrokerId origin, uint64_t epoch) {
  if (origin >= epochs_.size()) epochs_.resize(origin + 1, 0);
  epochs_[origin] = std::max(epochs_[origin], epoch);
}

}  // namespace subsum::routing
