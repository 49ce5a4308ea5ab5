// §5.2.4 computational demands: matching cost per event as the number of
// outstanding subscriptions N grows. The paper argues T1 + T2 is O(N) with
// small constants thanks to the summarized, generalized attributes; the
// comparison point is a per-subscription scan (the classic approach).
//
// google-benchmark binary; also reports the step-1 diagnostics (ids
// collected = the paper's P) as counters.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_common.h"
#include "core/matcher.h"
#include "obs/flight_recorder.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "workload/event_gen.h"

namespace {

using namespace subsum;

struct Fixture {
  model::Schema schema = workload::stock_schema();
  core::BrokerSummary summary;
  std::vector<model::Event> events;

  explicit Fixture(size_t n, double subsumption) {
    workload::SubGenParams sp;
    sp.subsumption = subsumption;
    workload::SubscriptionGenerator gen(schema, sp, n * 7 + 1);
    summary = core::BrokerSummary(schema, core::GeneralizePolicy::kSafe,
                                  core::AacsMode::kCoarse);
    for (uint32_t i = 0; i < n; ++i) {
      auto sub = gen.next();
      summary.add(sub, model::SubId{0, i, sub.mask()});
    }
    workload::EventGenerator egen(schema, gen.pools(), {}, n * 7 + 2);
    for (int i = 0; i < 256; ++i) events.push_back(egen.next());
  }
};

// The naive per-subscription scan stores whole subscriptions (~100x the
// summary's footprint), so it lives in its own lazily-built fixture and is
// only benchmarked up to N=100k; the summary fixtures stay viable at N=1M.
struct NaiveFixture {
  core::NaiveMatcher naive;

  NaiveFixture(const model::Schema& schema, size_t n, double subsumption) {
    workload::SubGenParams sp;
    sp.subsumption = subsumption;
    workload::SubscriptionGenerator gen(schema, sp, n * 7 + 1);
    for (uint32_t i = 0; i < n; ++i) {
      auto sub = gen.next();
      const model::SubId id{0, i, sub.mask()};
      naive.add({id, std::move(sub)});
    }
  }
};

Fixture& fixture_for(size_t n, double subsumption) {
  // One fixture per (n, subsumption); benchmarks run single-threaded.
  static std::map<std::pair<size_t, int>, std::unique_ptr<Fixture>> cache;
  auto key = std::make_pair(n, static_cast<int>(subsumption * 100));
  auto& slot = cache[key];
  if (!slot) slot = std::make_unique<Fixture>(n, subsumption);
  return *slot;
}

NaiveFixture& naive_fixture_for(size_t n, double subsumption) {
  static std::map<std::pair<size_t, int>, std::unique_ptr<NaiveFixture>> cache;
  auto key = std::make_pair(n, static_cast<int>(subsumption * 100));
  auto& slot = cache[key];
  if (!slot) {
    slot = std::make_unique<NaiveFixture>(fixture_for(n, subsumption).schema, n, subsumption);
  }
  return *slot;
}

void BM_SummaryMatch(benchmark::State& state) {
  auto& f = fixture_for(static_cast<size_t>(state.range(0)),
                        static_cast<double>(state.range(1)) / 100.0);
  size_t i = 0;
  size_t collected = 0, matched = 0, events_run = 0;
  for (auto _ : state) {
    core::MatchDiag diag;
    auto m = core::match(f.summary, f.events[i++ % f.events.size()], &diag);
    benchmark::DoNotOptimize(m);
    collected += diag.ids_collected;
    matched += m.size();
    ++events_run;
  }
  state.counters["P_ids_collected"] =
      benchmark::Counter(static_cast<double>(collected) / events_run);
  state.counters["matched"] = benchmark::Counter(static_cast<double>(matched) / events_run);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// The engine through a reused caller-owned scratch: the steady-state
// allocation-free path bench_json's batch loop and publish_batch run on.
void BM_SummaryMatchScratch(benchmark::State& state) {
  auto& f = fixture_for(static_cast<size_t>(state.range(0)),
                        static_cast<double>(state.range(1)) / 100.0);
  core::MatchScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    auto m = core::match_into(f.summary, f.events[i++ % f.events.size()], scratch);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// The classic engine only (dense / scan / heap over the live AACS/SACS),
// frozen index forced out of the path: the comparison point the frozen
// rows are measured against.
void BM_SummaryMatchClassic(benchmark::State& state) {
  auto& f = fixture_for(static_cast<size_t>(state.range(0)),
                        static_cast<double>(state.range(1)) / 100.0);
  core::MatchScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    auto m = core::match_into_unindexed(f.summary, f.events[i++ % f.events.size()], scratch);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// The frozen index with the row-combination cache bypassed: every event
// pays the full collect + sharded counter sweep. This is the honest
// per-event cost when the event stream never repeats a row combination.
void BM_SummaryMatchFrozenCold(benchmark::State& state) {
  auto& f = fixture_for(static_cast<size_t>(state.range(0)),
                        static_cast<double>(state.range(1)) / 100.0);
  if (!f.summary.frozen_for_match()) {
    state.SkipWithError("frozen index not engaged at this N");
    return;
  }
  core::MatchScratch scratch;
  scratch.use_combo_cache = false;
  size_t i = 0;
  for (auto _ : state) {
    auto m = core::match_into(f.summary, f.events[i++ % f.events.size()], scratch);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// The pre-optimization implementation, kept for the perf trajectory.
void BM_SummaryMatchReference(benchmark::State& state) {
  auto& f = fixture_for(static_cast<size_t>(state.range(0)),
                        static_cast<double>(state.range(1)) / 100.0);
  size_t i = 0;
  for (auto _ : state) {
    auto m = core::match_reference(f.summary, f.events[i++ % f.events.size()]);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Telemetry-overhead guard: the scratch path plus exactly the
// instrumentation BrokerNode::walk_step wraps around it — a now_us()
// timing pair feeding an exemplar-retaining log2-bucket histogram plus
// the labeled stage histogram (both observe_ex with a live trace id), one
// pre-registered counter handle, and a flight-recorder breadcrumb at the
// cadence of a governor edge (1 per 4096 matches, far above real rates).
// Compare against BM_SummaryMatchScratch in a default build, and against
// the same binary built with -DSUBSUM_NO_TELEMETRY=ON (where all of it
// compiles out); the delta budget is <3%. The profiler is armed-but-idle
// here (thread registered, no start()) — registration is the broker's
// steady state, so the <3% budget includes it; bench_profile measures the
// actively-sampling cost separately.
void BM_SummaryMatchTelemetry(benchmark::State& state) {
  auto& f = fixture_for(static_cast<size_t>(state.range(0)),
                        static_cast<double>(state.range(1)) / 100.0);
  obs::Profiler::register_thread(obs::ThreadRole::kMain);
  core::MatchScratch scratch;
  obs::MetricsRegistry metrics;
  obs::Histogram* hist = metrics.histogram_ex("subsum_match_latency_us");
  obs::StageSet stages(metrics);
  obs::FlightRecorder flight(0, 1024);
  obs::Counter* matched = metrics.counter("subsum_events_matched_total");
  size_t i = 0;
  for (auto _ : state) {
    const uint64_t trace = obs::mint_trace_id(0, i, 42);
    const uint64_t t0 = obs::now_us();
    auto m = core::match_into(f.summary, f.events[i++ % f.events.size()], scratch);
    const uint64_t dt = obs::now_us() - t0;
    hist->observe_ex(dt, trace);
    stages.observe(obs::Stage::kMatch, dt, trace);
    matched->inc(m.size());
    if ((i & 0xfff) == 0) {
      flight.record(obs::FrKind::kRungChange, 0, 1, i, trace);
    }
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_NaiveMatch(benchmark::State& state) {
  auto& f = fixture_for(static_cast<size_t>(state.range(0)),
                        static_cast<double>(state.range(1)) / 100.0);
  auto& nf = naive_fixture_for(static_cast<size_t>(state.range(0)),
                               static_cast<double>(state.range(1)) / 100.0);
  size_t i = 0;
  for (auto _ : state) {
    auto m = nf.naive.match(f.events[i++ % f.events.size()]);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_SummaryInsert(benchmark::State& state) {
  const auto schema = workload::stock_schema();
  workload::SubGenParams sp;
  sp.subsumption = static_cast<double>(state.range(0)) / 100.0;
  workload::SubscriptionGenerator gen(schema, sp, 11);
  core::BrokerSummary summary(schema, core::GeneralizePolicy::kSafe,
                              core::AacsMode::kCoarse);
  uint32_t i = 0;
  for (auto _ : state) {
    const auto sub = gen.next();
    summary.add(sub, model::SubId{0, i++, sub.mask()});
    if (i % 200000 == 0) summary.clear();  // bound structure growth
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_SummaryMatch)
    ->ArgsProduct({{100, 1000, 10000, 100000}, {10, 90}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SummaryMatchScratch)
    ->ArgsProduct({{100, 1000, 10000, 100000, 1000000}, {10, 90}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SummaryMatchClassic)
    ->ArgsProduct({{100000, 1000000}, {10, 90}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SummaryMatchFrozenCold)
    ->ArgsProduct({{100000, 1000000}, {10, 90}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SummaryMatchReference)
    ->ArgsProduct({{100, 1000, 10000, 100000, 1000000}, {10, 90}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SummaryMatchTelemetry)
    ->ArgsProduct({{100, 1000, 10000, 100000}, {10, 90}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NaiveMatch)
    ->ArgsProduct({{100, 1000, 10000, 100000}, {10, 90}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SummaryInsert)->Arg(10)->Arg(90)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
