#include "core/matcher.h"

#include <algorithm>

#include "core/frozen_index.h"

namespace subsum::core {

using model::SubId;

namespace {

/// Step 1 of Algorithm 1: per event attribute, collect the satisfied id
/// lists into scratch cursors. Each attribute contributes an id at most
/// once (AACS pieces are disjoint; Sacs::find_into deduplicates) and every
/// list is already sorted, so step 2 can count per-id occurrences with a
/// k-way merge (k <= event attributes) instead of a hash-map counter or a
/// global sort. Returns Σ list lengths (the paper's P).
size_t collect_lists(const BrokerSummary& summary, const model::Event& event,
                     MatchScratch& s) {
  const model::Schema& schema = summary.schema();
  s.lists.clear();
  s.lists.reserve(event.attrs().size());
  size_t collected = 0;
  size_t owned_used = 0;
  for (const auto& ea : event.attrs()) {
    if (is_arithmetic(schema.type_of(ea.attr))) {
      const auto* ids = summary.aacs(ea.attr).find(ea.value.as_number());
      if (!ids || ids->empty()) continue;
      s.lists.push_back({ids->data(), ids->data() + ids->size()});
      collected += ids->size();
    } else {
      if (owned_used == s.owned.size()) s.owned.emplace_back();
      auto& buf = s.owned[owned_used];
      summary.sacs(ea.attr).find_into(ea.value.as_string(), buf);
      if (buf.empty()) continue;
      ++owned_used;  // inner buffers never move on outer growth
      collected += buf.size();
      s.lists.push_back({buf.data(), buf.data() + buf.size()});
    }
  }
  return collected;
}

/// Dense-counter step 2: all ids share one broker, so `local - lo` indexes
/// a flat counter array. Two passes over the collected lists — count, then
/// re-scan checking each id's counter against its own popcount(c3) — so
/// the cost is O(P); the tiny match set is sorted at the end. Cells are
/// epoch-tagged `(epoch << 8) | count`: a cell from an earlier call reads
/// as zero, so the per-event reset is one epoch bump instead of a memset
/// of the whole width (at N=1M the memset alone was ~1 MB per event). An
/// id's first pass-2 occurrence sees its final count; resetting the count
/// on emit (popcount >= 1) suppresses re-emission. Counts fit the low
/// byte because an id occurs at most once per list and k <= 64 schema
/// attributes.
size_t match_dense(MatchScratch& s, uint32_t lo, size_t width) {
  if (s.dense_cells.size() < width) s.dense_cells.resize(width);  // zero-filled = stale
  if (++s.dense_epoch >= (uint32_t{1} << 24)) {
    std::fill(s.dense_cells.begin(), s.dense_cells.end(), uint32_t{0});
    s.dense_epoch = 1;
  }
  const uint32_t tag = s.dense_epoch << 8;
  size_t unique = 0;
  for (const auto& [cur, end] : s.lists) {
    for (const SubId* p = cur; p != end; ++p) {
      uint32_t& c = s.dense_cells[p->local - lo];
      if ((c & ~uint32_t{0xFF}) != tag) {
        c = tag | 1;
        ++unique;
      } else {
        ++c;
      }
    }
  }
  for (const auto& [cur, end] : s.lists) {
    for (const SubId* p = cur; p != end; ++p) {
      uint32_t& c = s.dense_cells[p->local - lo];
      if (c == tag + static_cast<uint32_t>(p->attr_count())) {
        s.out.push_back(*p);
        c = tag;
      }
    }
  }
  std::sort(s.out.begin(), s.out.end());
  return unique;
}

/// Linear-scan step 2 for small k, where heap bookkeeping costs more than
/// rescanning the cursors: per round, one pass finds the minimum, one pass
/// counts-and-advances it. Exhausted lists are compacted away so late
/// rounds scan fewer cursors.
size_t match_scan(MatchScratch& s) {
  auto& lists = s.lists;
  size_t unique = 0;
  while (!lists.empty()) {
    const SubId* min = lists[0].cur;
    for (size_t i = 1; i < lists.size(); ++i) {
      if (*lists[i].cur < *min) min = lists[i].cur;
    }
    const SubId id = *min;
    int count = 0;
    for (size_t i = 0; i < lists.size();) {
      auto& [cur, end] = lists[i];
      if (*cur == id) {
        ++count;
        if (++cur == end) {
          lists[i] = lists.back();
          lists.pop_back();
          continue;
        }
      }
      ++i;
    }
    ++unique;
    if (count == id.attr_count()) s.out.push_back(id);
  }
  // Compaction reorders the cursor array, not the per-list ascending order;
  // rounds still consume ids globally smallest-first, so out is sorted.
  return unique;
}

/// Heap step 2: k-way merge, O(P log k). The heap holds list indices
/// ordered by each list's current id; equal ids are drained as one run
/// whose length is the occurrence count.
size_t match_heap(MatchScratch& s) {
  auto& lists = s.lists;
  auto& heap = s.heap;
  heap.clear();
  for (uint32_t i = 0; i < lists.size(); ++i) heap.push_back(i);
  const auto min_on_top = [&](uint32_t a, uint32_t b) {
    return *lists[b].cur < *lists[a].cur;
  };
  std::make_heap(heap.begin(), heap.end(), min_on_top);

  size_t unique = 0;
  while (!heap.empty()) {
    const SubId id = *lists[heap.front()].cur;
    int count = 0;
    do {
      ++count;
      std::pop_heap(heap.begin(), heap.end(), min_on_top);
      auto& c = lists[heap.back()];
      if (++c.cur == c.end) {
        heap.pop_back();
      } else {
        std::push_heap(heap.begin(), heap.end(), min_on_top);
      }
    } while (!heap.empty() && *lists[heap.front()].cur == id);
    ++unique;
    if (count == id.attr_count()) s.out.push_back(id);
  }
  return unique;
}

}  // namespace

std::span<const SubId> match_into(const BrokerSummary& summary, const model::Event& event,
                                  MatchScratch& s, MatchDiag* diag) {
  // Summaries past the index threshold match through the frozen sharded
  // layout (bit-identical results); everything else — small summaries,
  // and any summary whose index is stale pending an amortized rebuild —
  // runs the classic engine below.
  if (const auto idx = summary.frozen_for_match()) {
    idx->match_into(event, s, diag);
    return {s.out.data(), s.out.size()};
  }
  return match_into_unindexed(summary, event, s, diag);
}

std::span<const SubId> match_into_unindexed(const BrokerSummary& summary,
                                            const model::Event& event, MatchScratch& s,
                                            MatchDiag* diag) {
  const size_t collected = collect_lists(summary, event, s);
  s.out.clear();
  if (diag) {
    diag->attrs_satisfied = s.lists.size();
    diag->ids_collected = collected;
    diag->unique_ids = 0;
  }
  if (s.lists.empty()) return {};

  size_t unique;
  if (s.lists.size() == 1) {
    // One list: every id occurs exactly once; matches are the single-attribute
    // subscriptions.
    const auto& [cur, end] = s.lists.front();
    s.out.reserve(static_cast<size_t>(end - cur));
    for (const SubId* p = cur; p != end; ++p) {
      if (p->attr_count() == 1) s.out.push_back(*p);
    }
    unique = collected;
  } else {
    // Dense gate: one broker across all lists (checked via each sorted
    // list's first/last element) and a bounded local-id range.
    const model::BrokerId broker = s.lists.front().cur->broker;
    bool single_broker = true;
    uint32_t lo = UINT32_MAX, hi = 0;
    for (const auto& [cur, end] : s.lists) {
      if (cur->broker != broker || (end - 1)->broker != broker) {
        single_broker = false;
        break;
      }
      lo = std::min(lo, cur->local);
      hi = std::max(hi, (end - 1)->local);
    }
    const size_t width = static_cast<size_t>(hi) - lo + 1;
    s.out.reserve(std::min(collected, width));
    if (single_broker && width <= kDenseMaxWidth &&
        width <= kDenseSlack * collected + kDenseMinWidth) {
      unique = match_dense(s, lo, width);
    } else if (s.lists.size() <= kScanMaxLists) {
      unique = match_scan(s);
    } else {
      unique = match_heap(s);
    }
  }
  if (diag) diag->unique_ids = unique;
  return {s.out.data(), s.out.size()};  // merge order is sorted order
}

std::vector<SubId> match(const BrokerSummary& summary, const model::Event& event,
                         MatchDiag* diag) {
  // Per-thread scratch keeps the historic signature allocation-free in
  // steady state (apart from the returned vector itself, reserved exactly).
  thread_local MatchScratch scratch;
  const auto ids = match_into(summary, event, scratch, diag);
  return {ids.begin(), ids.end()};
}

std::vector<SubId> match_reference(const BrokerSummary& summary, const model::Event& event,
                                   MatchDiag* diag) {
  const model::Schema& schema = summary.schema();
  std::vector<std::vector<SubId>> owned;  // keeps Sacs results alive
  owned.reserve(event.attrs().size());    // lists holds pointers: no realloc
  std::vector<std::pair<const SubId*, const SubId*>> lists;
  lists.reserve(event.attrs().size());
  size_t collected = 0;
  for (const auto& ea : event.attrs()) {
    if (is_arithmetic(schema.type_of(ea.attr))) {
      const auto* ids = summary.aacs(ea.attr).find(ea.value.as_number());
      if (!ids || ids->empty()) continue;
      lists.emplace_back(ids->data(), ids->data() + ids->size());
      collected += ids->size();
    } else {
      auto ids = summary.sacs(ea.attr).find(ea.value.as_string());
      if (ids.empty()) continue;
      collected += ids.size();
      owned.push_back(std::move(ids));
      lists.emplace_back(owned.back().data(), owned.back().data() + owned.back().size());
    }
  }
  if (diag) {
    diag->attrs_satisfied = lists.size();
    diag->ids_collected = collected;
  }

  // A subscription matches iff every attribute its c3 declares was
  // satisfied, i.e. it occurs in popcount(c3) of the collected lists.
  std::vector<SubId> out;
  out.reserve(collected);
  size_t unique = 0;
  while (true) {
    const SubId* min = nullptr;
    for (const auto& [cur, end] : lists) {
      if (cur != end && (!min || *cur < *min)) min = cur;
    }
    if (!min) break;
    const SubId id = *min;
    int count = 0;
    for (auto& [cur, end] : lists) {
      if (cur != end && *cur == id) {
        ++count;
        ++cur;
      }
    }
    ++unique;
    if (count == id.attr_count()) out.push_back(id);
  }
  if (diag) diag->unique_ids = unique;
  return out;  // merge order is sorted order
}

void NaiveMatcher::remove(model::SubId id) {
  std::erase_if(subs_, [&](const model::OwnedSubscription& os) { return os.id == id; });
}

std::vector<SubId> NaiveMatcher::match(const model::Event& event) const {
  std::vector<SubId> out;
  for (const auto& os : subs_) {
    if (os.sub.matches(event)) out.push_back(os.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace subsum::core
