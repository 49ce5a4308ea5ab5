// Summary-quality probes: live measurement of the paper's precision-vs-cost
// trade (§5.1) on a running system.
//
// Summaries over-approximate (SACS generalization, coarse AACS), so the
// interesting runtime question is not "does matching work" but "how much
// precision are we paying away right now". Three probes answer it:
//
//  * Owner-side counting (QualityProbe): the home broker already re-filters
//    every delivered candidate against its exact table, so precision is
//    counted there, on every delivery, with no extra match: candidate ids
//    delivered vs ids the re-filter kept. Exported:
//    `subsum_quality_candidate_ids_total`, `subsum_quality_exact_ids_total`,
//    `subsum_summary_false_positive_ids_total` and `subsum_summary_precision`
//    (cumulative exact/candidate ratio). Engine correctness (match_into()
//    vs match_reference()) is a test-time differential, not a runtime
//    counter.
//
//  * Row occupancy (export_row_occupancy): per-attribute histograms of ids
//    per AACS piece / SACS row. A coarse or aggressively-generalized
//    summary concentrates many ids on few rows; the occupancy distribution
//    makes that visible per attribute before the FP rate shows it.
//
//  * Model drift (export_model_drift): actual wire bytes vs the paper's
//    analytic size prediction (equations (1)-(2)).
//    `subsum_summary_model_drift_ratio` = actual / predicted; 1.0 means the
//    analytic model tracks reality.
//
// Everything here is exact bookkeeping on top of the PR-4 MetricsRegistry;
// under -DSUBSUM_NO_TELEMETRY the counters compile to no-ops.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/serialize.h"
#include "core/summary.h"
#include "obs/metrics.h"

namespace subsum::core {

/// Live false-positive counter. Construct once next to a MetricsRegistry
/// (handles are pre-registered and stable) and call record() where the
/// exact answer already exists: at the owner's re-filter (BrokerNode) or
/// after a publish's deliveries (SimSystem). All mutation is relaxed-atomic
/// via the registry handles, so concurrent publish shards may share one
/// probe; totals are commutative.
class QualityProbe {
 public:
  explicit QualityProbe(obs::MetricsRegistry& reg);

  /// Records one delivery: `candidate_ids` = summary-level matches
  /// (superset, may contain false positives), `exact_ids` = the subset the
  /// exact table confirmed. Requires candidate_ids >= exact_ids, which
  /// holds by construction: the re-filter returns a subset of its input.
  /// (const: mutation happens through the stable registry handles, so a
  /// probe may be shared by const publish paths.)
  void record(size_t candidate_ids, size_t exact_ids) const noexcept;

  /// Cumulative exact/candidate ratio over all recorded deliveries
  /// (1.0 before any candidate id has been seen).
  [[nodiscard]] double precision() const noexcept;

 private:
  obs::Counter* candidates_;   // subsum_quality_candidate_ids_total
  obs::Counter* exact_;        // subsum_quality_exact_ids_total
  obs::Counter* false_pos_;    // subsum_summary_false_positive_ids_total
  obs::FGauge* precision_g_;   // subsum_summary_precision
};

/// Re-exports the per-attribute row-occupancy histograms
/// `subsum_summary_row_ids{attr="<name>"}` (one observation per row, value
/// = the row's id-list length). The distribution is a snapshot of the
/// summary, not an accumulation: each histogram is reset and repopulated,
/// so call this from the admin path (scrape or period), never per event.
/// A non-empty `broker` adds a `broker="..."` label (SimSystem runs all
/// brokers against one registry; BrokerNode leaves it empty).
void export_row_occupancy(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          std::string_view broker = {});

/// Recomputes the wire-vs-model gauges for `summary`:
///   subsum_summary_wire_bytes        actual encode_summary() size
///   subsum_summary_model_bytes       equations (1)-(2) prediction
///   subsum_summary_model_drift_ratio wire / model (0 when model is 0)
/// `wire_bytes` is the summary's encoded size (wire_size), measured by the
/// caller so one encode can feed every gauge that reports it. Returns the
/// drift ratio. A non-empty `broker` labels the gauges `{broker="..."}`.
double export_model_drift(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          size_t wire_bytes, const PaperSizeParams& params = {},
                          std::string_view broker = {});

/// Shard-balance exports for the summary's frozen match index (PR-6):
///   subsum_match_shards                    gauge, shard count (0: no index)
///   subsum_match_shard_visits_total        counter {shard=}, counter sweeps,
///                                          folded from the index's drained
///                                          visit deltas (monotone across
///                                          rebuilds)
///   subsum_match_shard_entries             gauge {shard=}, id entries laid
///                                          out in the shard
///   subsum_summary_shard_row_ids           histogram {shard=}, ids-per-row
///                                          occupancy within the shard
///                                          (snapshot: reset + repopulated)
/// Uses frozen_if_built() — a scrape never triggers a freeze. Call next to
/// export_row_occupancy on the admin/scrape path; a non-empty `broker`
/// adds a broker="..." label.
void export_shard_metrics(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          std::string_view broker = {});

}  // namespace subsum::core
