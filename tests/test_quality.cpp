// Summary-quality probes (core/quality.h): false-positive counters against
// the exact oracle on the ablation workloads, walk-efficiency folding, and
// the model-drift / row-occupancy exports — plus the SimSystem integration
// (every publish counted, identical counters for sequential and sharded
// publishing).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/quality.h"
#include "core/serialize.h"
#include "model/event.h"
#include "model/subscription.h"
#include "obs/metrics.h"
#include "overlay/topologies.h"
#include "routing/event_router.h"
#include "sim/system.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum {
namespace {

#ifdef SUBSUM_NO_TELEMETRY
#define SKIP_WITHOUT_TELEMETRY() \
  GTEST_SKIP() << "telemetry compiled out (SUBSUM_NO_TELEMETRY)"
#else
#define SKIP_WITHOUT_TELEMETRY() (void)0
#endif

using model::SubId;
using overlay::BrokerId;

// --- QualityProbe counters --------------------------------------------------

TEST(QualityProbe, CountersPrecisionAndClamp) {
  SKIP_WITHOUT_TELEMETRY();
  obs::MetricsRegistry reg;
  const core::QualityProbe probe(reg);
  EXPECT_EQ(probe.precision(), 1.0);  // before any delivery
  probe.record(0, 0);                 // an empty delivery keeps it there
  EXPECT_EQ(probe.precision(), 1.0);

  probe.record(10, 7);
  probe.record(5, 5);
  EXPECT_EQ(reg.counter_value("subsum_quality_candidate_ids_total"), 15u);
  EXPECT_EQ(reg.counter_value("subsum_quality_exact_ids_total"), 12u);
  EXPECT_EQ(reg.counter_value("subsum_summary_false_positive_ids_total"), 3u);
  EXPECT_DOUBLE_EQ(probe.precision(), 12.0 / 15.0);
  EXPECT_DOUBLE_EQ(reg.fgauge("subsum_summary_precision")->value(), 12.0 / 15.0);
}

// --- FP counters vs the exact oracle (the ablation workloads) ---------------

/// Reduced ablation-(b) workload: the wide canonical range first, then
/// tight windows inside it — coarse AACS absorbs the windows into the wide
/// row and over-approximates.
TEST(QualityProbe, FpCounterMatchesCoarseAacsOracle) {
  SKIP_WITHOUT_TELEMETRY();
  const auto schema = workload::stock_schema();
  const auto price = schema.id_of("price");
  core::BrokerSummary summary(schema, core::GeneralizePolicy::kSafe,
                              core::AacsMode::kCoarse);
  core::NaiveMatcher naive;
  util::Rng rng(21);
  uint32_t next = 0;
  auto install = [&](double lo, double hi) {
    auto sub = model::SubscriptionBuilder(schema)
                   .where(price, model::Op::kGe, lo)
                   .where(price, model::Op::kLe, hi)
                   .build();
    const SubId id{0, next++, sub.mask()};
    summary.add(sub, id);
    naive.add({id, std::move(sub)});
  };
  install(0.0, 100.0);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.range_f64(0.0, 95.0);
    install(a, a + 5.0);
  }

  obs::MetricsRegistry reg;
  const core::QualityProbe probe(reg);
  uint64_t oracle_fp = 0;
  for (int i = 0; i < 200; ++i) {
    const auto e =
        model::EventBuilder(schema).set(price, rng.range_f64(0.0, 100.0)).build();
    const auto cand = core::match(summary, e);
    const auto exact = naive.match(e);
    ASSERT_GE(cand.size(), exact.size());  // summaries never lose matches
    oracle_fp += cand.size() - exact.size();
    probe.record(cand.size(), exact.size());
  }
  EXPECT_GT(oracle_fp, 0u);  // coarse absorption really over-approximates here
  EXPECT_EQ(reg.counter_value("subsum_summary_false_positive_ids_total"), oracle_fp);
  EXPECT_LT(probe.precision(), 1.0);
}

/// Reduced ablation-(c) workload: skewed string equalities/prefixes under
/// kAggressive generalization — the summary trades rows for string FPs.
TEST(QualityProbe, FpCounterMatchesAggressiveSacsOracle) {
  SKIP_WITHOUT_TELEMETRY();
  const auto schema = workload::stock_schema();
  const auto symbol = schema.id_of("symbol");
  core::BrokerSummary summary(schema, core::GeneralizePolicy::kAggressive,
                              core::AacsMode::kCoarse);
  core::NaiveMatcher naive;
  util::Rng rng(31);
  uint32_t next = 0;
  auto install = [&](model::Op op, const std::string& operand) {
    auto sub = model::SubscriptionBuilder(schema).where(symbol, op, operand).build();
    const SubId id{0, next++, sub.mask()};
    summary.add(sub, id);
    naive.add({id, std::move(sub)});
  };
  for (int i = 0; i < 300; ++i) {
    const auto k = rng.below(16);
    const double roll = rng.uniform01();
    if (roll < 0.6) {
      install(model::Op::kEq, "s" + std::to_string(k) + "-" + std::to_string(rng.below(40)));
    } else if (roll < 0.9) {
      install(model::Op::kPrefix, "s" + std::to_string(k));
    } else {
      install(model::Op::kNe, "s" + std::to_string(k) + "-0");
    }
  }

  obs::MetricsRegistry reg;
  const core::QualityProbe probe(reg);
  uint64_t oracle_fp = 0;
  for (int i = 0; i < 200; ++i) {
    const auto e = model::EventBuilder(schema)
                       .set(symbol, "s" + std::to_string(rng.below(16)) + "-" +
                                        std::to_string(rng.below(40)))
                       .build();
    const auto cand = core::match(summary, e);
    const auto exact = naive.match(e);
    ASSERT_GE(cand.size(), exact.size());
    oracle_fp += cand.size() - exact.size();
    probe.record(cand.size(), exact.size());
  }
  EXPECT_GT(oracle_fp, 0u);
  EXPECT_EQ(reg.counter_value("subsum_summary_false_positive_ids_total"), oracle_fp);
}

// --- WalkMetrics ------------------------------------------------------------

TEST(WalkMetrics, FoldAccumulatesRouteResults) {
  SKIP_WITHOUT_TELEMETRY();
  obs::MetricsRegistry reg;
  const routing::WalkMetrics wm(reg);
  routing::RouteResult r;
  r.visited = {0, 1, 2};
  r.forward_hops = 2;
  r.delivery_hops = 4;
  r.skipped = {5};
  r.undeliverable.resize(2);
  wm.fold(r);
  wm.fold(r);
  EXPECT_EQ(reg.counter_value("subsum_walk_total"), 2u);
  EXPECT_EQ(reg.counter_value("subsum_walk_visits_total"), 6u);
  EXPECT_EQ(reg.counter_value("subsum_walk_forward_hops_total"), 4u);
  EXPECT_EQ(reg.counter_value("subsum_walk_delivery_hops_total"), 8u);
  EXPECT_EQ(reg.counter_value("subsum_walk_reselects_total"), 2u);
  EXPECT_EQ(reg.counter_value("subsum_walk_undeliverable_total"), 4u);
}

// --- model drift / row occupancy exports ------------------------------------

core::BrokerSummary small_summary(const model::Schema& schema) {
  core::BrokerSummary summary(schema, core::GeneralizePolicy::kSafe,
                              core::AacsMode::kCoarse);
  workload::SubscriptionGenerator gen(schema, {}, 7);
  for (uint32_t i = 0; i < 50; ++i) {
    const auto sub = gen.next();
    summary.add(sub, SubId{0, i, sub.mask()});
  }
  return summary;
}

TEST(QualityExports, ModelDriftGaugesAndRatio) {
  SKIP_WITHOUT_TELEMETRY();
  const auto schema = workload::stock_schema();
  const auto summary = small_summary(schema);
  const core::WireConfig wire{model::SubIdCodec(24, 1000, schema.attr_count()), 4};

  obs::MetricsRegistry reg;
  const double drift = core::export_model_drift(reg, summary, core::wire_size(summary, wire));
  EXPECT_GT(drift, 0.0);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("subsum_summary_wire_bytes "), std::string::npos);
  EXPECT_NE(text.find("subsum_summary_model_bytes "), std::string::npos);
  EXPECT_NE(text.find("subsum_summary_model_drift_ratio "), std::string::npos);
  EXPECT_DOUBLE_EQ(reg.fgauge("subsum_summary_model_drift_ratio")->value(), drift);
  // wire / model recomputed exactly:
  const double wire_b = static_cast<double>(reg.gauge("subsum_summary_wire_bytes")->value());
  const double model_b = static_cast<double>(reg.gauge("subsum_summary_model_bytes")->value());
  EXPECT_DOUBLE_EQ(drift, wire_b / model_b);
  EXPECT_EQ(static_cast<size_t>(wire_b), core::wire_size(summary, wire));

  // The labeled variant lands on distinct series (SimSystem: one registry,
  // many brokers).
  core::export_model_drift(reg, summary, core::wire_size(summary, wire), {}, "3");
  const std::string text2 = reg.prometheus_text();
  EXPECT_NE(text2.find("subsum_summary_model_drift_ratio{broker=\"3\"}"),
            std::string::npos);
}

TEST(QualityExports, RowOccupancyIsASnapshotNotAnAccumulation) {
  const auto schema = workload::stock_schema();
  const auto summary = small_summary(schema);
  obs::MetricsRegistry reg;
  core::export_row_occupancy(reg, summary);
  const std::string once = reg.prometheus_text();
  // Histogram families expand per-series: name_count{attr="..."} etc.
  EXPECT_NE(once.find("subsum_summary_row_ids_count{attr="), std::string::npos);
  // Re-exporting the same summary resets and repopulates: identical text.
  core::export_row_occupancy(reg, summary);
  EXPECT_EQ(reg.prometheus_text(), once);
}

// --- SimSystem integration --------------------------------------------------

sim::SystemConfig quality_cfg() {
  sim::SystemConfig cfg;
  cfg.schema = workload::stock_schema();
  cfg.graph = overlay::cable_wireless_24();
  cfg.arith_mode = core::AacsMode::kCoarse;  // over-approximates -> FPs exist
  cfg.policy = core::GeneralizePolicy::kAggressive;
  return cfg;
}

/// Generates the subscriptions subscribe_workload() installs, in order.
workload::SubscriptionGenerator workload_subscriptions(const model::Schema& schema) {
  workload::SubGenParams sp;
  sp.subsumption = 0.5;
  return workload::SubscriptionGenerator(schema, sp, 90);
}

/// Every other event is built to match one of the workload's
/// subscriptions, so publishes deliver.
std::vector<model::Event> quality_events(const model::Schema& schema, size_t n) {
  auto subs = workload_subscriptions(schema);
  workload::EventGenerator egen(schema, subs.pools(), {}, 92);
  std::vector<model::Event> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto built = i % 2 == 0 ? workload::matching_event(schema, subs.next()) : std::nullopt;
    events.push_back(built ? std::move(*built) : egen.next());
  }
  return events;
}

void subscribe_workload(sim::SimSystem& sys) {
  auto gen = workload_subscriptions(sys.schema());
  for (BrokerId b = 0; b < sys.broker_count(); ++b) {
    for (int i = 0; i < 8; ++i) sys.subscribe(b, gen.next());
  }
  sys.run_propagation_period();
}

TEST(SimQuality, SampledSetIsDeterministicAcrossShardings) {
  const auto cfg = quality_cfg();
  const auto events = quality_events(cfg.schema, 96);

  sim::SimSystem sequential(cfg);
  subscribe_workload(sequential);
  uint64_t candidates = 0, delivered = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto out =
        sequential.publish(static_cast<BrokerId>(i % sequential.broker_count()), events[i]);
    candidates += out.candidates.size();
    delivered += out.delivered.size();
  }

  sim::SimSystem sharded(quality_cfg());
  subscribe_workload(sharded);
  util::ThreadPool pool(4);
  for (size_t i = 0; i < events.size(); ++i) {
    // Same origins as above, but each publish runs through the sharded path.
    const auto origin = static_cast<BrokerId>(i % sharded.broker_count());
    sharded.publish_batch(origin, std::span(&events[i], 1), pool);
  }

  const char* kQuality[] = {"subsum_quality_candidate_ids_total",
                            "subsum_quality_exact_ids_total",
                            "subsum_summary_false_positive_ids_total"};
  for (const char* name : kQuality) {
    EXPECT_EQ(sequential.metrics().counter_value(name),
              sharded.metrics().counter_value(name))
        << name;
  }
#ifndef SUBSUM_NO_TELEMETRY
  // Every publish is counted: the totals are exactly the outcomes' sums.
  EXPECT_GT(candidates, 0u);
  EXPECT_EQ(sequential.metrics().counter_value("subsum_quality_candidate_ids_total"),
            candidates);
  EXPECT_EQ(sequential.metrics().counter_value("subsum_quality_exact_ids_total"), delivered);
  EXPECT_EQ(sequential.metrics().counter_value("subsum_summary_false_positive_ids_total"),
            candidates - delivered);
#endif
}

TEST(SimQuality, ExpositionCarriesWalkQualityAndPerBrokerSeries) {
  SKIP_WITHOUT_TELEMETRY();
  sim::SimSystem sys(quality_cfg());
  subscribe_workload(sys);
  const auto events = quality_events(sys.schema(), 32);
  for (size_t i = 0; i < events.size(); ++i) {
    sys.publish(static_cast<BrokerId>(i % sys.broker_count()), events[i]);
  }
  const std::string text = sys.metrics().prometheus_text();
  EXPECT_NE(text.find("subsum_walk_total "), std::string::npos);
  EXPECT_NE(text.find("subsum_walk_visits_total "), std::string::npos);
  EXPECT_NE(text.find("subsum_quality_candidate_ids_total "), std::string::npos);
  EXPECT_NE(text.find("subsum_summary_precision "), std::string::npos);
  // Per-broker drift/occupancy series, refreshed by run_propagation_period.
  EXPECT_NE(text.find("subsum_summary_model_drift_ratio{broker=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("subsum_summary_row_ids"), std::string::npos);
  EXPECT_EQ(sys.metrics().counter_value("subsum_walk_total"), events.size());

#ifndef SUBSUM_NO_TELEMETRY
  // The probe's precision gauge reflects the counted ratio exactly.
  const double precision = sys.quality_probe().precision();
  EXPECT_GT(precision, 0.0);
  EXPECT_LE(precision, 1.0);
#endif
}

}  // namespace
}  // namespace subsum
