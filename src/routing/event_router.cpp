#include "routing/event_router.h"

#include <algorithm>
#include <stdexcept>

namespace subsum::routing {

using overlay::BrokerId;

std::vector<model::SubId> RouteResult::matched_ids() const {
  std::vector<model::SubId> out;
  for (const auto& d : deliveries) out.insert(out.end(), d.ids.begin(), d.ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::byte> make_bitmap(size_t bits) {
  return std::vector<std::byte>((bits + 7) / 8, std::byte{0});
}

bool bitmap_get(std::span<const std::byte> bm, size_t i) {
  return (static_cast<uint8_t>(bm[i / 8]) >> (i % 8)) & 1;
}

void bitmap_set(std::span<std::byte> bm, size_t i) {
  bm[i / 8] |= std::byte{static_cast<uint8_t>(1u << (i % 8))};
}

size_t bitmap_count(std::span<const std::byte> bm, size_t bits) {
  size_t n = 0;
  for (size_t i = 0; i < bits; ++i) n += bitmap_get(bm, i);
  return n;
}

std::map<BrokerId, std::vector<model::SubId>> examine(std::span<const model::SubId> matched,
                                                      std::span<const BrokerId> merged_brokers,
                                                      std::span<std::byte> brocli) {
  std::map<BrokerId, std::vector<model::SubId>> by_owner;
  for (const auto& id : matched) {
    if (!bitmap_get(brocli, id.broker)) by_owner[id.broker].push_back(id);
  }
  for (BrokerId b : merged_brokers) bitmap_set(brocli, b);
  return by_owner;
}

std::optional<BrokerId> next_hop(const overlay::Graph& g, std::span<const std::byte> brocli,
                                 const RouterOptions& opts,
                                 std::span<const std::vector<BrokerId>> merged_brokers) {
  const auto score_of = [&](BrokerId b) -> int {
    if (opts.strategy == ForwardStrategy::kLargestCoverage) {
      int fresh = 0;
      for (BrokerId x : merged_brokers[b]) fresh += !bitmap_get(brocli, x);
      return fresh;
    }
    return opts.virtual_degrees ? (*opts.virtual_degrees)[b] : static_cast<int>(g.degree(b));
  };
  std::optional<BrokerId> next;
  size_t ties = 0;
  for (BrokerId b = 0; b < g.size(); ++b) {
    if (bitmap_get(brocli, b)) continue;
    if (!next || score_of(b) > score_of(*next)) {
      next = b;
      ties = 1;
    } else if (opts.tie_salt != 0 && score_of(b) == score_of(*next)) {
      // Reservoir-style rotation among equal-score candidates.
      ++ties;
      if ((opts.tie_salt % ties) == 0) next = b;
    }
  }
  return next;
}

RouteResult route_event(const overlay::Graph& g, const PropagationResult& state,
                        BrokerId origin, const model::Event& event,
                        const RouterOptions& opts, core::MatchScratch* scratch) {
  const size_t n = g.size();
  if (state.held.size() != n || origin >= n) {
    throw std::invalid_argument("routing state does not fit the graph");
  }
  if (opts.virtual_degrees && opts.virtual_degrees->size() != n) {
    throw std::invalid_argument("virtual_degrees size mismatch");
  }
  if (!opts.down.empty() && opts.down.size() != n) {
    throw std::invalid_argument("down size mismatch");
  }
  const auto is_down = [&](BrokerId b) -> bool {
    return !opts.down.empty() && opts.down[b];
  };
  if (is_down(origin)) throw std::invalid_argument("origin broker is down");

  RouteResult r;
  std::vector<std::byte> brocli = make_bitmap(n);
  BrokerId current = origin;
  // Virtual clock for span timestamps: one tick per span, so equal walks
  // produce byte-identical span logs (see RouteResult::spans).
  uint64_t vt = 0;
  const auto span = [&](obs::Phase phase, uint32_t peer, uint64_t bytes) {
    if (opts.trace_id) r.spans.push_back({opts.trace_id, current, phase, peer, vt++, bytes});
  };
  while (true) {
    r.visited.push_back(current);
    span(obs::Phase::kRecv, obs::Span::kNoPeer, 0);

    // Step 1: check the local merged summary for matches.
    std::vector<model::SubId> matched_buf;
    std::span<const model::SubId> matched;
    if (scratch) {
      matched = core::match_into(state.held[current], event, *scratch);
    } else {
      matched_buf = core::match(state.held[current], event);
      matched = matched_buf;
    }
    auto by_owner = examine(matched, state.merged_brokers[current], brocli);
    span(obs::Phase::kMatch, obs::Span::kNoPeer, matched.size());
    for (auto& [owner, ids] : by_owner) {
      const size_t id_count = ids.size();
      if (is_down(owner)) {
        // Over TCP the kDeliver would fail and sit in the redelivery
        // queue; here it is recorded as undeliverable (no hop counted).
        span(obs::Phase::kRetry, owner, id_count);
        r.undeliverable.push_back({current, owner, std::move(ids)});
        continue;
      }
      span(obs::Phase::kDeliver, owner, id_count);
      r.deliveries.push_back({current, owner, std::move(ids)});
      if (owner != current) ++r.delivery_hops;  // local delivery is free
    }

    // A down broker chosen as the next hop is skipped exactly the way the
    // TCP walk degrades: marked in BROCLI unexamined, no forward hop, and
    // the selection repeats among the survivors.
    std::optional<BrokerId> forward;
    while (const auto next = next_hop(g, brocli, opts, state.merged_brokers)) {
      if (!is_down(*next)) {
        forward = next;
        break;
      }
      bitmap_set(brocli, *next);
      r.skipped.push_back(*next);
      span(obs::Phase::kRetry, *next, 0);
    }
    if (!forward) break;
    span(obs::Phase::kForward, *forward, 0);
    ++r.forward_hops;
    current = *forward;
  }
  return r;
}

std::vector<int> capped_virtual_degrees(const overlay::Graph& g, int cap) {
  std::vector<int> v(g.size());
  for (BrokerId b = 0; b < g.size(); ++b) {
    v[b] = std::min(static_cast<int>(g.degree(b)), cap);
  }
  return v;
}

}  // namespace subsum::routing
