#include "sim/system.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/delta.h"
#include "siena/covering.h"

namespace subsum::sim {

using model::SubId;
using overlay::BrokerId;

size_t event_wire_bytes(const model::Event& e) {
  size_t n = 1;  // attribute count
  for (const auto& a : e.attrs()) {
    n += 1;  // attribute id
    if (a.value.type() == model::AttrType::kString) {
      n += 1 + a.value.as_string().size();
    } else {
      n += 8;
    }
  }
  return n;
}

SimSystem::SimSystem(SystemConfig cfg)
    : cfg_(std::move(cfg)),
      wire_{model::SubIdCodec(static_cast<uint32_t>(cfg_.graph.size()),
                              cfg_.max_subs_per_broker, cfg_.schema.attr_count()),
            cfg_.numeric_width},
      walk_metrics_(metrics_),
      probe_(metrics_) {
  const size_t n = cfg_.graph.size();
  if (n == 0) throw std::invalid_argument("system needs at least one broker");
  for (BrokerId b = 0; b < n; ++b) home_.emplace_back(b, cfg_.max_subs_per_broker);
  delta_.assign(n, core::BrokerSummary(cfg_.schema, cfg_.policy, cfg_.arith_mode));
  state_.held.assign(n, core::BrokerSummary(cfg_.schema, cfg_.policy, cfg_.arith_mode));
  state_.merged_brokers.resize(n);
  for (BrokerId b = 0; b < n; ++b) state_.merged_brokers[b] = {b};
}

void SimSystem::dissolve(BrokerId broker, const model::Subscription& sub, SubId id) {
  delta_[broker].add(sub, id);
  state_.held[broker].add(sub, id);  // local knowledge is immediate
}

SubId SimSystem::subscribe(BrokerId broker, model::Subscription sub, uint32_t lease_periods) {
  if (broker >= broker_count()) throw std::invalid_argument("broker id out of range");
  const SubId id = home_[broker].allocate(sub.mask());

  bool covered = false;
  if (cfg_.combine_subsumption) {
    // Covered by an already-propagated root of this broker? Then skip the
    // summaries entirely; the root's deliveries carry the event here.
    for (const core::HomeEntry& e : home_[broker].entries()) {
      if (!covered_by_.contains(e.id)) continue;  // only roots cover
      if (siena::covers(e.sub, sub, cfg_.schema)) {
        covered_by_[e.id].push_back(id);
        covered = true;
        break;
      }
    }
    if (!covered) covered_by_.emplace(id, std::vector<SubId>{});
  }
  if (!covered) dissolve(broker, sub, id);
  home_[broker].add({id, std::move(sub)});
  home_[broker].grant_lease(id, lease_periods);
  return id;
}

void SimSystem::unsubscribe(SubId id) {
  if (id.broker >= broker_count() || !home_[id.broker].remove(id)) return;
  // Promote subscriptions this root was covering before it disappears.
  if (const auto it = covered_by_.find(id); it != covered_by_.end()) {
    const std::vector<SubId> orphans = std::move(it->second);
    covered_by_.erase(it);
    for (const SubId& orphan : orphans) {
      if (const auto* os = home_[orphan.broker].find(orphan)) {
        covered_by_.emplace(orphan, std::vector<SubId>{});
        dissolve(orphan.broker, os->sub, orphan);
      }
    }
  } else if (cfg_.combine_subsumption) {
    // A covered subscription: detach it from its root's list.
    for (auto& [root, ids] : covered_by_) {
      std::erase(ids, id);
    }
  }
  state_.held[id.broker].remove(id);
  delta_[id.broker].remove(id);
  pending_removals_.push_back(id);
}

routing::PropagationResult SimSystem::run_propagation_period() {
  // Virtual-time black box: one second of virtual time per period keeps
  // flight-recorder dumps byte-identical across identical runs.
  const uint64_t vt_us = ++period_seq_ * 1'000'000;
  flight_.record_at(vt_us, obs::FrKind::kPeriodBegin, 0, 0, period_seq_);
  // Soft state first: every period costs each lease one tick; expiry is an
  // unsubscribe in all but name, so the removal rides this same period's
  // maintenance piggyback.
  size_t lease_expired = 0;
  for (core::HomeTable& home : home_) {
    for (const SubId& id : home.tick_leases()) {
      flight_.record_at(vt_us, obs::FrKind::kLeaseExpired, id.local, id.broker);
      unsubscribe(id);
      ++lease_expired;
    }
  }
  if (lease_expired > 0) metrics_.counter("subsum_lease_expired_total")->inc(lease_expired);
  // Maintenance: apply pending removals to every broker's held state (they
  // ride along the period's summary messages; bytes charged below).
  for (auto& held : state_.held) {
    for (const SubId& id : pending_removals_) held.remove(id);
  }
  const size_t removal_bytes = pending_removals_.size() * wire_.codec.encoded_size();
  pending_removals_.clear();

  auto period = routing::propagate(cfg_.graph, delta_, wire_, cfg_.propagation);
  for (const auto& send : period.sends) {
    acct_.record(MsgType::kSummary, send.bytes + removal_bytes);
  }
  // Fold the period's results into the steady state. Merging is idempotent,
  // so re-merging a broker's own delta (already in held) is harmless.
  for (BrokerId b = 0; b < broker_count(); ++b) {
    state_.held[b].merge(period.held[b]);
    routing::merge_brokers(state_.merged_brokers[b], period.merged_brokers[b]);
  }
  delta_.assign(broker_count(), core::BrokerSummary(cfg_.schema, cfg_.policy, cfg_.arith_mode));
  // Summary-quality exports, refreshed while the merged images are fresh:
  // wire-vs-model drift and per-attribute row occupancy, per broker.
  for (BrokerId b = 0; b < broker_count(); ++b) {
    const std::string label = std::to_string(b);
    const core::BrokerSummary& held = state_.held[b];
    core::export_model_drift(metrics_, held, core::wire_size(held, wire_), {}, label);
    core::export_row_occupancy(metrics_, held, label);
    core::export_shard_metrics(metrics_, held, label);
  }
  return period;
}

SimSystem::PublishOutcome SimSystem::publish(BrokerId origin, const model::Event& event) {
  if (origin >= broker_count()) throw std::invalid_argument("origin broker out of range");
  const uint64_t trace_id =
      cfg_.trace ? obs::mint_trace_id(origin, publish_seq_++, /*salt=*/0) : 0;
  PublishOutcome out = publish_one(origin, event, acct_, nullptr, trace_id);
  for (const obs::Span& s : out.route.spans) flight_.record_span(s);
  return out;
}

std::vector<SimSystem::PublishOutcome> SimSystem::publish_batch(
    BrokerId origin, std::span<const model::Event> events, util::ThreadPool& pool) {
  if (origin >= broker_count()) throw std::invalid_argument("origin broker out of range");
  std::vector<PublishOutcome> out(events.size());
  if (events.empty()) return out;

  // Trace ids are minted up front, in event order, so the id stream (and
  // therefore each event's spans) is independent of the sharding.
  std::vector<uint64_t> traces(events.size(), 0);
  if (cfg_.trace) {
    for (auto& t : traces) t = obs::mint_trace_id(origin, publish_seq_++, /*salt=*/0);
  }

  const size_t shards = std::min(pool.concurrency(), events.size());
  const size_t chunk = (events.size() + shards - 1) / shards;
  std::vector<Accounting> deltas(shards);
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = s * chunk;
    const size_t end = std::min(begin + chunk, events.size());
    if (begin >= end) break;
    pool.submit([this, s, begin, end, origin, events, &out, &deltas, &traces] {
      core::MatchScratch scratch;
      for (size_t i = begin; i < end; ++i) {
        out[i] = publish_one(origin, events[i], deltas[s], &scratch, traces[i]);
      }
    });
  }
  pool.wait();
  // Barrier: fold the per-shard ledgers in shard (= event) order. The sums
  // are commutative integer additions, so totals are bit-identical to the
  // sequential loop's. Spans are recorded in event order too, so the span
  // ring's contents match the sequential publish() loop exactly.
  for (const Accounting& d : deltas) acct_.merge(d);
  if (cfg_.trace) {
    for (const PublishOutcome& o : out) {
      for (const obs::Span& s : o.route.spans) flight_.record_span(s);
    }
  }
  return out;
}

std::vector<SimSystem::PublishOutcome> SimSystem::publish_batch(
    BrokerId origin, std::span<const model::Event> events) {
  if (!publish_pool_) {
    publish_pool_ = std::make_unique<util::ThreadPool>(util::ThreadPool::hardware_threads());
  }
  return publish_batch(origin, events, *publish_pool_);
}

SimSystem::PublishOutcome SimSystem::publish_one(BrokerId origin, const model::Event& event,
                                                 Accounting& acct, core::MatchScratch* scratch,
                                                 uint64_t trace_id) const {
  PublishOutcome out;
  if (trace_id) {
    routing::RouterOptions ropts = cfg_.router;
    ropts.trace_id = trace_id;
    out.route = routing::route_event(cfg_.graph, state_, origin, event, ropts, scratch);
  } else {
    out.route = routing::route_event(cfg_.graph, state_, origin, event, cfg_.router, scratch);
  }

  const size_t ebytes = event_wire_bytes(event);
  for (size_t i = 0; i + 1 < out.route.visited.size(); ++i) {
    // Forwarded event carries BROCLI (one byte per broker as a bitmap).
    acct.record(MsgType::kEventForward, ebytes + (broker_count() + 7) / 8);
  }

  for (const auto& d : out.route.deliveries) {
    out.candidates.insert(out.candidates.end(), d.ids.begin(), d.ids.end());
    if (d.owner != d.examined_at) {
      acct.record(MsgType::kEventDelivery,
                  ebytes + d.ids.size() * wire_.codec.encoded_size());
    }
    // Exact re-filtering at the owner: SACS summarization may have produced
    // false positives; the home table is authoritative.
    // The event reached a combine_subsumption broker because a propagated
    // root matched; fan out to every local subscription it satisfies,
    // including the covered ones that never entered the summaries.
    const auto exact = cfg_.combine_subsumption ? home_[d.owner].match(event)
                                                : home_[d.owner].refilter(d.ids, event);
    out.delivered.insert(out.delivered.end(), exact.begin(), exact.end());
  }
  std::sort(out.candidates.begin(), out.candidates.end());
  std::sort(out.delivered.begin(), out.delivered.end());

  // Observatory probes, on every publish: walk-efficiency counters, and
  // summary precision as candidates vs `delivered` — the owners' exact
  // re-filter, a subset of the candidates. Under combine_subsumption the
  // owners match their whole home table instead (covered subscriptions
  // never enter the summaries), so there is no candidate/exact pair to
  // count. Counter mutation is relaxed-atomic, so the const publish path
  // and concurrent publish_batch shards record safely; totals are
  // commutative and thus identical for every sharding.
  walk_metrics_.fold(out.route);
  if (!cfg_.combine_subsumption) probe_.record(out.candidates.size(), out.delivered.size());
  return out;
}

size_t SimSystem::summary_storage_bytes() const {
  size_t n = 0;
  for (const auto& held : state_.held) n += core::wire_size(held, wire_);
  return n;
}

uint64_t SimSystem::held_digest(BrokerId b) const {
  return core::summary_digest(state_.held.at(b));
}

}  // namespace subsum::sim
