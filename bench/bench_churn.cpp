// Churn bench (PROTOCOL v4 soft-state summaries): per-period announcement
// bytes under a fixed-rate Poisson subscribe/unsubscribe workload, at
// N = 100k and N = 1M outstanding subscriptions.
//
// The gate this feeds (tools/check_bench.py "churn"): delta announcements
// must scale with the CHANGE RATE, not the subscription count — so
// delta_bytes_per_period.n1m / delta_bytes_per_period.n100k (flat_ratio)
// stays ~1 while full_bytes_per_period grows ~10x. A broker sends a delta
// whenever the peer acked a base, so full_image_fallbacks counts the
// periods whose delta is larger than half the full image: it stays at
// zero in steady state. Every period the delta is also applied to a
// receiver-side shadow image and checked against the sender's digest —
// digest_mismatches must be 0, the same invariant the anti-entropy repair
// path enforces.
//
// Deterministic: fixed seeds, count/byte metrics only, and one shared wire
// codec across both N so byte differences reflect structure, not id width.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "core/delta.h"
#include "core/serialize.h"
#include "stats/stats.h"
#include "workload/churn.h"
#include "workload/stock_schema.h"

namespace {

using namespace subsum;

struct ChurnRun {
  double delta_bytes = 0;  // mean encoded delta bytes per period
  double full_bytes = 0;   // mean encoded full image bytes per period
  double events = 0;       // mean subscribe+unsubscribe events per period
  size_t fallbacks = 0;    // periods whose delta exceeds half the full image
  size_t mismatches = 0;   // shadow digest != wire digest after apply
};

/// Builds a broker summary with `n` live subscriptions, then drives
/// `periods` periods of churn through it, diffing/encoding each period's
/// delta against the previously announced image and replaying it onto a
/// receiver shadow.
ChurnRun run_churn(const model::Schema& schema, const core::WireConfig& wire, size_t n,
                   workload::ChurnParams cp, size_t periods, uint64_t seed) {
  workload::SubGenParams sp;
  sp.subsumption = 0.95;  // high-subsumption steady state; ~5% fresh rows
  workload::ChurnStream stream(schema, sp, cp, seed);

  core::BrokerSummary held(schema, core::GeneralizePolicy::kSafe, core::AacsMode::kCoarse);
  std::vector<model::SubId> live;
  live.reserve(n);
  uint32_t next_local = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto sub = stream.generator().next();
    const model::SubId id{0, next_local++, sub.mask()};
    held.add(sub, id);
    live.push_back(id);
  }

  core::SummaryImage last_sent = core::extract_image(held);
  core::SummaryImage shadow = last_sent;  // receiver mirror of last_sent
  const core::DeltaHeader base_hdr;       // version fields unused by the bench

  ChurnRun out;
  stats::Series delta_bytes, full_bytes, events;
  for (size_t p = 0; p < periods; ++p) {
    workload::ChurnPeriod period = stream.next_period();
    for (auto& sub : period.subscribes) {
      const model::SubId id{0, next_local++, sub.mask()};
      held.add(sub, id);
      live.push_back(id);
    }
    const size_t unsubs = std::min(period.unsubscribes, live.size());
    for (size_t u = 0; u < unsubs; ++u) {
      const size_t victim = stream.pick_victim_index(live.size());
      held.remove(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }

    core::SummaryImage current = core::extract_image(held);
    core::DeltaHeader hdr = base_hdr;
    hdr.base_digest = core::image_digest(last_sent);
    hdr.new_digest = core::image_digest(current);
    const auto delta = core::diff_images(last_sent, current);
    const auto delta_payload = core::encode_delta(delta, schema, wire, hdr);
    const size_t full = core::wire_size(held, wire);

    delta_bytes.add(static_cast<double>(delta_payload.size()));
    full_bytes.add(static_cast<double>(full));
    events.add(static_cast<double>(period.subscribes.size() + unsubs));
    if (delta_payload.size() > full / 2) ++out.fallbacks;

    core::apply_delta(shadow, delta);
    if (core::image_digest(shadow) != hdr.new_digest) ++out.mismatches;

    last_sent = std::move(current);
  }
  out.delta_bytes = delta_bytes.mean();
  out.full_bytes = full_bytes.mean();
  out.events = events.mean();
  return out;
}

}  // namespace

int main() {
  using namespace subsum;
  const auto schema = workload::stock_schema();
  // One codec wide enough for both population sizes, so delta bytes compare
  // structure-for-structure across N.
  const auto wire = bench::paper_wire(schema, 24, 1'100'000);

  const size_t periods = 8 * bench::bench_scale();
  workload::ChurnParams steady;  // 400 subscribes + ~400 unsubscribes / period
  steady.subscribe_rate = 400.0;
  steady.unsubscribe_rate = 400.0;
  workload::ChurnParams flash = steady;  // every period is a 10x flash crowd
  flash.flash_crowd_prob = 1.0;
  flash.flash_crowd_mult = 10.0;

  std::cout << "Churn: announcement bytes per period, fixed change rate, N = 100k vs 1M\n\n";
  stats::Table table({"N", "mode", "events/period", "delta B/period", "full B/period",
                      "delta/full", "fallbacks", "digest mismatches"});
  bench::JsonReport report("churn");
  report.meta("unit", "announcement bytes per propagation period");
  report.meta("churn_rate", steady.subscribe_rate);
  report.meta("periods", static_cast<double>(periods));

  double steady_delta[2] = {0, 0};
  size_t total_fallbacks = 0, total_mismatches = 0;
  const size_t pops[2] = {100'000, 1'000'000};
  const char* tags[2] = {"n100k", "n1m"};
  for (int i = 0; i < 2; ++i) {
    const auto s = run_churn(schema, wire, pops[i], steady, periods, 0xC4A11 + i);
    const auto f = run_churn(schema, wire, pops[i], flash, 2, 0xF1A58 + i);
    steady_delta[i] = s.delta_bytes;
    total_fallbacks += s.fallbacks + f.fallbacks;
    total_mismatches += s.mismatches + f.mismatches;
    table.row({std::to_string(pops[i]), "steady", stats::fmt(s.events),
               stats::fmt(s.delta_bytes), stats::fmt(s.full_bytes),
               stats::fmt(s.delta_bytes / s.full_bytes), std::to_string(s.fallbacks),
               std::to_string(s.mismatches)});
    table.row({std::to_string(pops[i]), "flash x10", stats::fmt(f.events),
               stats::fmt(f.delta_bytes), stats::fmt(f.full_bytes),
               stats::fmt(f.delta_bytes / f.full_bytes), std::to_string(f.fallbacks),
               std::to_string(f.mismatches)});
    report.metric(std::string("delta_bytes_per_period.") + tags[i], s.delta_bytes);
    report.metric(std::string("full_bytes_per_period.") + tags[i], s.full_bytes);
    report.metric(std::string("events_per_period.") + tags[i], s.events);
    report.metric(std::string("flash.delta_bytes_per_period.") + tags[i], f.delta_bytes);
    report.metric(std::string("flash.events_per_period.") + tags[i], f.events);
  }
  report.metric("flat_ratio", steady_delta[1] / steady_delta[0]);
  report.metric("full_image_fallbacks", static_cast<double>(total_fallbacks));
  report.metric("digest_mismatches", static_cast<double>(total_mismatches));
  table.print(std::cout);
  report.write();
  std::cout << "\npaper check: delta bytes track the change rate (flat across N, "
               "~10x under a 10x flash crowd); full image bytes track N\n";
  return 0;
}
