// bench_json: runs the matching-engine throughput benchmarks and writes
// BENCH_matching.json, so every PR leaves a machine-readable point on the
// perf trajectory. For each N in the workload matrix (one BrokerSummary of
// N subscriptions, stock schema, AacsMode::kCoarse, the paper's workload)
// it measures, single-threaded:
//
//  * seed_us_per_event         — the pre-optimization match_reference()
//  * classic_us_per_event      — match_into_unindexed() (dense/scan/heap
//                                over the live AACS/SACS, reused scratch)
//  * frozen_cold_us_per_event  — the frozen sharded index, combo cache off
//                                (every event pays collect + counter sweep)
//  * frozen_warm_us_per_event  — the engine as shipped (frozen index +
//                                row-combination cache)
//  * p50/p99 warm match latency through obs::Histogram (log2 buckets)
//  * freeze_ms                 — one index build at this N
//  * P_ids_collected           — the paper's P (step-1 work), avg per event
//
// plus cross-N ratios (speedup vs classic, p99 flatness) and, at the
// smallest N, batch/publish throughput at 1/2/4/8 threads. The output is
// the check_bench.py contract: a "workload" block compared for exact
// equality and a flat "metrics" dict gated within tolerance bands — the
// figures-regression CI job runs it with wide bands on wall-clock metrics.
//
// Usage: bench_json [--ns 100000,1000000] [--subsumption 10] [--events 256]
//                   [--repeat 5] [--out BENCH_matching.json]
//        (--n N is accepted as a single-element matrix, for the release job)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/frozen_index.h"
#include "core/matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "overlay/topologies.h"
#include "sim/system.h"
#include "tool_args.h"
#include "util/thread_pool.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace {

using namespace subsum;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`repeat` wall time of fn() (returns seconds).
template <typename Fn>
double best_of(int repeat, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

std::vector<size_t> parse_ns(const std::string& spec) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(static_cast<size_t>(std::stoull(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Ordered flat metrics dict (insertion order preserved in the JSON).
struct Metrics {
  std::vector<std::pair<std::string, double>> kv;
  void put(const std::string& key, double value) { kv.emplace_back(key, value); }
};

size_t g_sink = 0;  // defeats dead-code elimination across runs

void run_matrix_point(size_t n, double subsumption, size_t n_events, int repeat,
                      Metrics& m) {
  const std::string prefix = "n" + std::to_string(n) + ".";
  const model::Schema schema = workload::stock_schema();
  workload::SubGenParams sp;
  sp.subsumption = subsumption;
  workload::SubscriptionGenerator gen(schema, sp, n * 7 + 1);
  core::BrokerSummary summary(schema, core::GeneralizePolicy::kSafe, core::AacsMode::kCoarse);
  for (uint32_t i = 0; i < n; ++i) {
    const auto sub = gen.next();
    summary.add(sub, model::SubId{0, i, sub.mask()});
  }
  workload::EventGenerator egen(schema, gen.pools(), {}, n * 7 + 2);
  std::vector<model::Event> events;
  events.reserve(n_events);
  for (size_t i = 0; i < n_events; ++i) events.push_back(egen.next());
  const double per_event = static_cast<double>(events.size());

  std::fprintf(stderr, "bench_json: n=%zu events=%zu repeat=%d\n", n, n_events, repeat);

  // Freeze cost: drop any index built incidentally, then time one build.
  const double freeze_s = best_of(1, [&] { (void)core::FrozenIndex::build(summary); });
  m.put(prefix + "freeze_ms", freeze_s * 1e3);

  const double seed_s = best_of(repeat, [&] {
    for (const auto& e : events) g_sink += core::match_reference(summary, e).size();
  });

  core::MatchScratch classic;
  const double classic_s = best_of(repeat, [&] {
    for (const auto& e : events) {
      g_sink += core::match_into_unindexed(summary, e, classic).size();
    }
  });

  core::MatchScratch cold;
  cold.use_combo_cache = false;
  const double cold_s = best_of(repeat, [&] {
    for (const auto& e : events) g_sink += core::match_into(summary, e, cold).size();
  });

  core::MatchScratch warm;
  const double warm_s = best_of(repeat, [&] {
    for (const auto& e : events) g_sink += core::match_into(summary, e, warm).size();
  });

  // Per-event warm-latency quantiles through the same obs::Histogram the
  // live broker uses (log2 buckets, so quantiles are bucket upper bounds).
  obs::Histogram hist;
  size_t collected = 0;
  for (int r = 0; r < repeat; ++r) {
    for (const auto& e : events) {
      core::MatchDiag diag;
      const uint64_t t0 = obs::now_us();
      g_sink += core::match_into(summary, e, warm, &diag).size();
      hist.observe(obs::now_us() - t0);
      collected += diag.ids_collected;
    }
  }

  m.put(prefix + "seed_us_per_event", seed_s / per_event * 1e6);
  m.put(prefix + "classic_us_per_event", classic_s / per_event * 1e6);
  m.put(prefix + "frozen_cold_us_per_event", cold_s / per_event * 1e6);
  m.put(prefix + "frozen_warm_us_per_event", warm_s / per_event * 1e6);
  m.put(prefix + "speedup_frozen_cold_vs_classic", classic_s / cold_s);
  m.put(prefix + "speedup_frozen_warm_vs_classic", classic_s / warm_s);
  m.put(prefix + "speedup_vs_seed", seed_s / warm_s);
  m.put(prefix + "match_latency_p50_us", static_cast<double>(hist.quantile(0.50)));
  m.put(prefix + "match_latency_p99_us", static_cast<double>(hist.quantile(0.99)));
  m.put(prefix + "P_ids_collected",
        static_cast<double>(collected) / (per_event * repeat));

  const auto idx = summary.frozen_for_match();
  m.put(prefix + "index_engaged", idx ? 1.0 : 0.0);
  if (idx) m.put(prefix + "shards", static_cast<double>(idx->shard_count()));
}

/// Matches `events` across `pool`: one contiguous chunk per worker, each
/// with its own MatchScratch (`scratch[s]`, persistent across calls), so a
/// warm run allocates nothing per event beyond the result vectors.
void match_batch(util::ThreadPool& pool, std::vector<core::MatchScratch>& scratch,
                 const core::BrokerSummary& summary, std::span<const model::Event> events,
                 std::vector<std::vector<model::SubId>>& results) {
  scratch.resize(pool.concurrency());
  results.resize(events.size());
  const size_t chunk = (events.size() + scratch.size() - 1) / scratch.size();
  for (size_t s = 0; s * chunk < events.size(); ++s) {
    pool.submit([&, s] {
      for (size_t i = s * chunk; i < std::min(events.size(), (s + 1) * chunk); ++i) {
        const auto ids = core::match_into(summary, events[i], scratch[s]);
        results[i].assign(ids.begin(), ids.end());
      }
    });
  }
  pool.wait();
}

void run_thread_scaling(size_t n, double subsumption, size_t n_events, int repeat,
                        Metrics& m) {
  const model::Schema schema = workload::stock_schema();
  workload::SubGenParams sp;
  sp.subsumption = subsumption;
  workload::SubscriptionGenerator gen(schema, sp, n * 7 + 1);
  core::BrokerSummary summary(schema, core::GeneralizePolicy::kSafe, core::AacsMode::kCoarse);
  for (uint32_t i = 0; i < n; ++i) {
    const auto sub = gen.next();
    summary.add(sub, model::SubId{0, i, sub.mask()});
  }
  workload::EventGenerator egen(schema, gen.pools(), {}, n * 7 + 2);
  std::vector<model::Event> events;
  for (size_t i = 0; i < n_events; ++i) events.push_back(egen.next());

  // Freeze the index once, here, so the workers do not race to build
  // identical copies of it on their first events.
  (void)summary.frozen_for_match();
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  for (const size_t t : thread_counts) {
    util::ThreadPool pool(t);
    std::vector<core::MatchScratch> scratch;
    std::vector<std::vector<model::SubId>> results;
    match_batch(pool, scratch, summary, events, results);  // warm up pool + scratches
    const double s =
        best_of(repeat, [&] { match_batch(pool, scratch, summary, events, results); });
    m.put("batch_match.events_per_sec_t" + std::to_string(t),
          static_cast<double>(events.size()) / s);
  }

  // publish_batch on the 24-broker backbone: a smaller system (the walk
  // visits many brokers), so scale the subscription count down.
  sim::SystemConfig cfg;
  cfg.schema = schema;
  cfg.graph = overlay::cable_wireless_24();
  cfg.arith_mode = core::AacsMode::kCoarse;
  sim::SimSystem sys(cfg);
  workload::SubscriptionGenerator pgen(schema, sp, 1234);
  const size_t per_broker = std::max<size_t>(n / (24 * 10), 10);
  for (overlay::BrokerId b = 0; b < sys.broker_count(); ++b) {
    for (size_t i = 0; i < per_broker; ++i) sys.subscribe(b, pgen.next());
  }
  sys.run_propagation_period();
  for (const size_t t : thread_counts) {
    util::ThreadPool pool(t);
    auto warm = sys.publish_batch(0, events, pool);
    g_sink += warm.size();
    const double s = best_of(repeat, [&] {
      auto out = sys.publish_batch(0, events, pool);
      g_sink += out.back().candidates.size();
    });
    m.put("publish_batch.events_per_sec_t" + std::to_string(t),
          static_cast<double>(events.size()) / s);
  }
}

double get(const Metrics& m, const std::string& key) {
  for (const auto& [k, v] : m.kv) {
    if (k == key) return v;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  std::vector<size_t> ns = parse_ns(args.flag("ns").value_or("100000,1000000"));
  if (const auto single = args.flag("n")) ns = {static_cast<size_t>(std::stoull(*single))};
  const double subsumption = static_cast<double>(args.flag_u64("subsumption", 10)) / 100.0;
  const size_t n_events = args.flag_u64("events", 256);
  const int repeat = static_cast<int>(args.flag_u64("repeat", 5));
  const std::string out_path = args.flag("out").value_or("BENCH_matching.json");

  Metrics m;
  for (const size_t n : ns) run_matrix_point(n, subsumption, n_events, repeat, m);

  // p99 flatness across the matrix: the tentpole criterion is that warm
  // p99 at the largest N stays within 2x of the smallest N's.
  if (ns.size() >= 2) {
    const std::string lo = "n" + std::to_string(ns.front());
    const std::string hi = "n" + std::to_string(ns.back());
    const double lo_p99 = get(m, lo + ".match_latency_p99_us");
    const double hi_p99 = get(m, hi + ".match_latency_p99_us");
    if (lo_p99 > 0) {
      m.put("p99_ratio_" + std::to_string(ns.back()) + "_vs_" + std::to_string(ns.front()),
            hi_p99 / lo_p99);
    }
  }

  run_thread_scaling(ns.front(), subsumption, n_events, repeat, m);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"workload\": {\"ns\": [");
  for (size_t i = 0; i < ns.size(); ++i) {
    std::fprintf(f, "%s%zu", i ? ", " : "", ns[i]);
  }
  std::fprintf(f, "], \"subsumption\": %.2f, \"batch_events\": %zu, "
               "\"aacs_mode\": \"coarse\", \"repeat\": %d},\n",
               subsumption, n_events, repeat);
  // Thread-scaling numbers are only meaningful relative to this: on a
  // 1-core host the 8-thread batch cannot beat the 1-thread batch.
  std::fprintf(f, "  \"host\": {\"hardware_threads\": %zu},\n",
               util::ThreadPool::hardware_threads());
  std::fprintf(f, "  \"metrics\": {\n");
  for (size_t i = 0; i < m.kv.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.4f%s\n", m.kv[i].first.c_str(), m.kv[i].second,
                 i + 1 < m.kv.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (sink=%zu)\n", out_path.c_str(), g_sink);
  return 0;
}
