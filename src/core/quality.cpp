#include "core/quality.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/frozen_index.h"

namespace subsum::core {

QualityProbe::QualityProbe(obs::MetricsRegistry& reg)
    : candidates_(reg.counter("subsum_quality_candidate_ids_total")),
      exact_(reg.counter("subsum_quality_exact_ids_total")),
      false_pos_(reg.counter("subsum_summary_false_positive_ids_total")),
      precision_g_(reg.fgauge("subsum_summary_precision")) {
  precision_g_->set(1.0);
}

void QualityProbe::record(size_t candidate_ids, size_t exact_ids) const noexcept {
  candidates_->inc(candidate_ids);
  exact_->inc(exact_ids);
  false_pos_->inc(candidate_ids - exact_ids);
  precision_g_->set(precision());
}

double QualityProbe::precision() const noexcept {
  const uint64_t cand = candidates_->value();
  if (cand == 0) return 1.0;
  return static_cast<double>(exact_->value()) / static_cast<double>(cand);
}

namespace {

// `base{k1="v1"[,k2="v2"]}` with values escaped; empty values drop the pair.
std::string labeled2(std::string_view base, std::string_view k1, std::string_view v1,
                     std::string_view k2, std::string_view v2) {
  std::string out(base);
  out += '{';
  bool first = true;
  for (const auto& [k, v] : {std::pair{k1, v1}, std::pair{k2, v2}}) {
    if (v.empty()) continue;
    if (!first) out += ',';
    first = false;
    out.append(k).append("=\"").append(obs::escape_label_value(v)).append("\"");
  }
  if (first) return std::string(base);  // no labels at all
  out += '}';
  return out;
}

}  // namespace

void export_row_occupancy(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          std::string_view broker) {
  const model::Schema& schema = summary.schema();
  for (model::AttrId id = 0; id < schema.attr_count(); ++id) {
    obs::Histogram* h = reg.histogram(labeled2("subsum_summary_row_ids", "attr",
                                               schema.spec(id).name, "broker", broker));
    h->reset();
    if (model::is_arithmetic(schema.type_of(id))) {
      for (const auto& piece : summary.aacs(id).pieces()) h->observe(piece.ids.size());
    } else {
      for (const auto& row : summary.sacs(id).rows()) h->observe(row.ids.size());
    }
  }
}

void export_shard_metrics(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          std::string_view broker) {
  const auto shards_gauge = [&] {
    return reg.gauge(broker.empty() ? std::string("subsum_match_shards")
                                    : obs::labeled("subsum_match_shards", "broker", broker));
  };
  const auto idx = summary.frozen_if_built();
  if (!idx) {
    shards_gauge()->set(0);
    return;
  }
  shards_gauge()->set(static_cast<int64_t>(idx->shard_count()));
  std::vector<obs::Histogram*> row_hists(idx->shard_count());
  for (uint32_t s = 0; s < idx->shard_count(); ++s) {
    const std::string shard = std::to_string(s);
    // Visit deltas fold into a monotone counter, so the series survives
    // index rebuilds (each index starts its own visit counters at 0).
    if (const uint64_t visits = idx->drain_shard_visits(s); visits > 0) {
      reg.counter(labeled2("subsum_match_shard_visits_total", "shard", shard, "broker", broker))
          ->inc(visits);
    }
    reg.gauge(labeled2("subsum_match_shard_entries", "shard", shard, "broker", broker))
        ->set(static_cast<int64_t>(idx->shard_entries(s)));
    row_hists[s] =
        reg.histogram(labeled2("subsum_summary_shard_row_ids", "shard", shard, "broker", broker));
    row_hists[s]->reset();
  }
  idx->for_each_shard_row(
      [&](uint32_t shard, uint64_t ids_in_row) { row_hists[shard]->observe(ids_in_row); });
}

double export_model_drift(obs::MetricsRegistry& reg, const BrokerSummary& summary,
                          size_t wire_bytes, const PaperSizeParams& params,
                          std::string_view broker) {
  const auto name = [broker](std::string_view base) {
    return broker.empty() ? std::string(base) : obs::labeled(base, "broker", broker);
  };
  const size_t predicted = paper_size(summary.stats(), params, /*measured_ssv=*/true).total();
  const double ratio =
      predicted == 0 ? 0.0 : static_cast<double>(wire_bytes) / static_cast<double>(predicted);
  reg.gauge(name("subsum_summary_wire_bytes"))->set(static_cast<int64_t>(wire_bytes));
  reg.gauge(name("subsum_summary_model_bytes"))->set(static_cast<int64_t>(predicted));
  reg.fgauge(name("subsum_summary_model_drift_ratio"))->set(ratio);
  return ratio;
}

}  // namespace subsum::core
