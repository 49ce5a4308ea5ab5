// obs layer: histogram bucket math and quantiles, the Prometheus text
// exposition, the bounded trace ring, JSONL span formatting, and trace-id
// minting.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/memacct.h"
#include "obs/metrics.h"
#include "obs/promtext.h"
#include "obs/trace.h"

namespace subsum::obs {
namespace {

// Tests that assert on recorded values cannot run when the mutation paths are
// compiled out; registration/exposition shape tests still do.
#ifdef SUBSUM_NO_TELEMETRY
#define SKIP_WITHOUT_TELEMETRY() \
  GTEST_SKIP() << "telemetry compiled out (SUBSUM_NO_TELEMETRY)"
#else
#define SKIP_WITHOUT_TELEMETRY() (void)0
#endif

// --- Counter / Gauge --------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  Counter* c = reg.counter("subsum_things_total");
  c->inc();
  c->inc(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(reg.counter_value("subsum_things_total"), 42u);
  EXPECT_EQ(reg.counter_value("never_registered"), 0u);

  Gauge* g = reg.gauge("subsum_depth");
  g->set(7);
  g->add(-3);
  EXPECT_EQ(g->value(), 4);
}

TEST(Metrics, HandlesAreStable) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x");
  Counter* b = reg.counter("x");
  EXPECT_EQ(a, b);  // get-or-register returns the same object
  EXPECT_NE(reg.counter("y"), a);
  EXPECT_EQ(reg.histogram("h"), reg.histogram("h"));
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
}

TEST(Metrics, CounterIsThreadSafe) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  Counter* c = reg.counter("n");
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([c] {
      for (int i = 0; i < 10000; ++i) c->inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c->value(), 40000u);
}

// --- Histogram --------------------------------------------------------------

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~uint64_t{0}), 64u);
}

TEST(Histogram, BucketBoundIsInclusiveUpperEdge) {
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_bound(10), 1023u);
  EXPECT_EQ(Histogram::bucket_bound(64), ~uint64_t{0});
  // Every value lands in the bucket whose bound covers it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65535ull, 65536ull}) {
    EXPECT_LE(v, Histogram::bucket_bound(Histogram::bucket_of(v))) << v;
  }
}

TEST(Histogram, CountSumAndSnapshot) {
  SKIP_WITHOUT_TELEMETRY();
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap[0], 1u);  // the zero
  EXPECT_EQ(snap[1], 1u);  // 1
  EXPECT_EQ(snap[3], 2u);  // 5 twice (bit width 3)
  uint64_t total = 0;
  for (uint64_t b : snap) total += b;
  EXPECT_EQ(total, 4u);
}

TEST(Histogram, QuantileReturnsBucketUpperBound) {
  SKIP_WITHOUT_TELEMETRY();
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.observe(3);    // bucket 2, bound 3
  for (int i = 0; i < 10; ++i) h.observe(100);  // bucket 7, bound 127
  EXPECT_EQ(h.quantile(0.5), 3u);
  EXPECT_EQ(h.quantile(0.9), 3u);
  EXPECT_EQ(h.quantile(0.99), 127u);
  EXPECT_EQ(h.quantile(1.0), 127u);
}

TEST(Metrics, FGaugeStoresFractionsAndExposesAsGauge) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  FGauge* g = reg.fgauge("subsum_ratio");
  EXPECT_EQ(g->value(), 0.0);
  g->set(0.9375);  // exact in binary, so value() round-trips bit-for-bit
  EXPECT_EQ(g->value(), 0.9375);
  EXPECT_EQ(reg.fgauge("subsum_ratio"), g);  // get-or-register, stable handle
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE subsum_ratio gauge\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_ratio 0.9375\n"), std::string::npos);
}

TEST(Histogram, EmptyQuantileIsZeroAtEveryQ) {
  Histogram h;
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0u) << "q=" << q;
  }
}

TEST(Histogram, ResetReturnsToEmptyState) {
  SKIP_WITHOUT_TELEMETRY();
  Histogram h;
  h.observe(100);
  h.observe(~uint64_t{0});
  ASSERT_EQ(h.count(), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (uint64_t b : h.snapshot()) EXPECT_EQ(b, 0u);
}

// --- Label escaping (format 0.0.4) ------------------------------------------

TEST(Labels, EscapeLabelValuePerFormat004) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Labels, LabeledBakesEscapedLabelIntoSeriesName) {
  EXPECT_EQ(labeled("m", "k", "v"), "m{k=\"v\"}");
  EXPECT_EQ(labeled("m", "k", "a\"b"), "m{k=\"a\\\"b\"}");
}

TEST(Labels, UnescapeInvertsEscape) {
  const std::string gnarly = "quote:\" slash:\\ newline:\n tail";
  EXPECT_EQ(unescape_label_value(escape_label_value(gnarly)), gnarly);
  // An unknown escape keeps the backslash verbatim rather than eating it.
  EXPECT_EQ(unescape_label_value("a\\qb"), "a\\qb");
}

TEST(Labels, RoundTripThroughExpositionAndParser) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  const std::string gnarly = "quote:\" slash:\\ newline:\n tail";
  reg.counter(labeled("subsum_rt_total", "path", gnarly))->inc(5);
  const auto samples = parse_prometheus_text(reg.prometheus_text());
  bool found = false;
  for (const auto& s : samples) {
    if (s.name != "subsum_rt_total") continue;
    found = true;
    ASSERT_NE(s.label("path"), nullptr);
    EXPECT_EQ(*s.label("path"), gnarly);
    EXPECT_EQ(s.value, 5.0);
  }
  EXPECT_TRUE(found);
}

TEST(Promtext, ParsesValuesLabelsAndSkipsCommentsAndGarbage) {
  const auto samples = parse_prometheus_text(
      "# HELP x something\n"
      "# TYPE x counter\n"
      "x 3\n"
      "y{a=\"1\",b=\"two\"} 4.5 1700000000\n"
      "this line is not a sample\n"
      "z -2\n");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "x");
  EXPECT_EQ(samples[0].value, 3.0);
  ASSERT_EQ(samples[1].labels.size(), 2u);
  EXPECT_EQ(*samples[1].label("b"), "two");
  EXPECT_EQ(samples[1].value, 4.5);
  EXPECT_EQ(samples[2].value, -2.0);
  EXPECT_EQ(samples[1].label("missing"), nullptr);
}

// --- Prometheus exposition --------------------------------------------------

TEST(Exposition, CountersGaugesAndTypeLines) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  reg.counter("subsum_publishes_total")->inc(3);
  reg.gauge("subsum_queue_depth")->set(-2);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE subsum_publishes_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_publishes_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE subsum_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_queue_depth -2\n"), std::string::npos);
}

TEST(Exposition, LabeledSeriesShareOneTypeLine) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  reg.counter("subsum_rpc_total{peer=\"0\"}")->inc(1);
  reg.counter("subsum_rpc_total{peer=\"1\"}")->inc(2);
  const std::string text = reg.prometheus_text();
  // One TYPE line for the family, both samples present with labels.
  size_t n = 0;
  for (size_t pos = 0; (pos = text.find("# TYPE subsum_rpc_total counter", pos)) !=
                       std::string::npos;
       ++pos) {
    ++n;
  }
  EXPECT_EQ(n, 1u);
  EXPECT_NE(text.find("subsum_rpc_total{peer=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_rpc_total{peer=\"1\"} 2\n"), std::string::npos);
}

TEST(Exposition, HistogramExpandsToCumulativeBuckets) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  Histogram* h = reg.histogram("subsum_lat_us");
  h->observe(1);
  h->observe(3);
  h->observe(3);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE subsum_lat_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_lat_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  // Cumulative: the le=3 bucket includes the le=1 observation.
  EXPECT_NE(text.find("subsum_lat_us_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_lat_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_lat_us_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_lat_us_count 3\n"), std::string::npos);
  // Empty buckets between 3 and +Inf are elided.
  EXPECT_EQ(text.find("le=\"7\""), std::string::npos);
}

TEST(Exposition, EmptyHistogramStillHasInfBucket) {
  MetricsRegistry reg;
  reg.histogram("subsum_idle_us");
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("subsum_idle_us_bucket{le=\"+Inf\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_idle_us_count 0\n"), std::string::npos);
}

TEST(Exposition, LabeledHistogramKeepsLabelOnEverySeries) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  reg.histogram("subsum_rpc_us{peer=\"3\"}")->observe(2);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE subsum_rpc_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_rpc_us_bucket{peer=\"3\",le=\"3\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_rpc_us_sum{peer=\"3\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("subsum_rpc_us_count{peer=\"3\"} 1\n"), std::string::npos);
}

// --- Exemplars --------------------------------------------------------------

TEST(Exemplar, ObserveExRetainsNewestTracePerBucket) {
  SKIP_WITHOUT_TELEMETRY();
  Histogram h;
  h.enable_exemplars();
  h.observe_ex(3, 0xAAAA);   // bucket 2
  h.observe_ex(3, 0xBBBB);   // same bucket: newest wins
  h.observe_ex(100, 0xCCCC); // bucket 7
  h.observe_ex(5, 0);        // trace 0 = untraced: must not clobber
  const auto b2 = h.exemplar(Histogram::bucket_of(3));
  EXPECT_EQ(b2.trace, 0xBBBBu);
  EXPECT_EQ(b2.value, 3u);
  const auto b7 = h.exemplar(Histogram::bucket_of(100));
  EXPECT_EQ(b7.trace, 0xCCCCu);
  EXPECT_EQ(h.exemplar(40).trace, 0u);  // untouched bucket: none
}

TEST(Exemplar, DisabledHistogramReturnsNone) {
  SKIP_WITHOUT_TELEMETRY();
  Histogram h;
  h.observe_ex(3, 0xAAAA);  // no enable_exemplars(): observation still counts
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.exemplar(Histogram::bucket_of(3)).trace, 0u);
}

TEST(Exemplar, ExposedOnBucketLinesAndParsedBack) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  Histogram* h = reg.histogram_ex("subsum_stage_latency_us{stage=\"match\"}");
  h->observe_ex(100, 0x12abcdef);
  const std::string text = reg.prometheus_text();
  // The bucket line carries the OpenMetrics-style exemplar suffix.
  EXPECT_NE(text.find("# {trace_id=\"0000000012abcdef\"} 100"), std::string::npos);
  const auto samples = parse_prometheus_text(text);
  bool found = false;
  for (const auto& s : samples) {
    if (s.name != "subsum_stage_latency_us_bucket" || s.exemplar_trace.empty()) continue;
    found = true;
    EXPECT_EQ(s.exemplar_trace, "0000000012abcdef");
    EXPECT_EQ(s.exemplar_value, 100.0);
  }
  EXPECT_TRUE(found);
}

TEST(Exemplar, PlainObserveKeepsExpositionUnchanged) {
  SKIP_WITHOUT_TELEMETRY();
  // A 0.0.4-only consumer must see byte-identical output for histograms
  // that never carried an exemplar.
  MetricsRegistry reg;
  reg.histogram("subsum_plain_us")->observe(2);
  const std::string text = reg.prometheus_text();
  EXPECT_EQ(text.find(" # {"), std::string::npos);
  EXPECT_NE(text.find("subsum_plain_us_bucket{le=\"3\"} 1\n"), std::string::npos);
}

// --- Promtext edge cases ----------------------------------------------------

TEST(Promtext, ToleratesCrlfLineEndings) {
  const auto samples = parse_prometheus_text(
      "# TYPE x counter\r\n"
      "x 3\r\n"
      "y{a=\"1\"} 4.5\r\n");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "x");
  EXPECT_EQ(samples[0].value, 3.0);
  ASSERT_NE(samples[1].label("a"), nullptr);
  EXPECT_EQ(*samples[1].label("a"), "1");
}

TEST(Promtext, ParsesNanAndInfGaugeValues) {
  const auto samples = parse_prometheus_text(
      "a NaN\n"
      "b +Inf\n"
      "c -Inf\n");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(std::isnan(samples[0].value));
  EXPECT_TRUE(std::isinf(samples[1].value));
  EXPECT_GT(samples[1].value, 0);
  EXPECT_TRUE(std::isinf(samples[2].value));
  EXPECT_LT(samples[2].value, 0);
}

TEST(Promtext, TruncatedExpositionNeverThrows) {
  // Cut a real exposition at every byte offset: the parser must keep every
  // intact line and never crash on the torn tail.
  MetricsRegistry reg;
  reg.counter(labeled("subsum_cut_total", "k", "va\"l"))->inc(3);
  reg.histogram_ex("subsum_cut_us")->observe_ex(9, 0x1234);
  const std::string text = reg.prometheus_text();
  for (size_t cut = 0; cut <= text.size(); ++cut) {
    const auto samples = parse_prometheus_text(text.substr(0, cut));
    for (const auto& s : samples) EXPECT_FALSE(s.name.empty());
  }
}

TEST(Promtext, MalformedLinesAreSkippedNotFatal) {
  const auto samples = parse_prometheus_text(
      "ok 1\n"
      "{orphan=\"labels\"} 2\n"      // no metric name
      "unterminated{a=\"b 3\n"        // unclosed label quote
      "no_value{a=\"b\"}\n"           // missing value
      "trailing{a=\"b\"} \n"          // empty value
      "exemplar_no_value{le=\"1\"} 2 # {trace_id=\"ff\"}\n"  // dangling exemplar
      "ok2 4\n");
  // The well-formed lines survive; each malformed one is dropped.
  ASSERT_GE(samples.size(), 3u);
  EXPECT_EQ(samples.front().name, "ok");
  EXPECT_EQ(samples.back().name, "ok2");
  for (const auto& s : samples) {
    if (s.name == "exemplar_no_value") {
      // Value parses; the valueless exemplar is discarded, not fatal.
      EXPECT_TRUE(s.exemplar_trace.empty());
    }
  }
}

// --- JSONL ------------------------------------------------------------------

TEST(Jsonl, FixedFieldOrderAndHexTrace) {
  Span s;
  s.trace = 0xabcdef;
  s.broker = 4;
  s.phase = Phase::kMatch;
  s.t_us = 17;
  s.bytes = 3;
  const std::vector<Span> spans = {s};
  EXPECT_EQ(to_jsonl(spans),
            "{\"trace\":\"0000000000abcdef\",\"broker\":4,\"phase\":\"match\","
            "\"t_us\":17,\"bytes\":3}\n");
}

TEST(Jsonl, PeerFieldOnlyWhenPresent) {
  Span s;
  s.trace = 1;
  s.broker = 0;
  s.phase = Phase::kForward;
  s.peer = 9;
  s.t_us = 2;
  s.bytes = 0;
  const std::vector<Span> spans = {s};
  EXPECT_EQ(to_jsonl(spans),
            "{\"trace\":\"0000000000000001\",\"broker\":0,\"phase\":\"forward\","
            "\"peer\":9,\"t_us\":2,\"bytes\":0}\n");
}

TEST(Jsonl, PhaseNamesAreStable) {
  EXPECT_EQ(to_string(Phase::kRecv), "recv");
  EXPECT_EQ(to_string(Phase::kMatch), "match");
  EXPECT_EQ(to_string(Phase::kForward), "forward");
  EXPECT_EQ(to_string(Phase::kDeliver), "deliver");
  EXPECT_EQ(to_string(Phase::kRetry), "retry");
  EXPECT_EQ(to_string(Phase::kRedeliver), "redeliver");
}

// --- trace ids --------------------------------------------------------------

TEST(TraceId, DeterministicAndNeverZero) {
  EXPECT_EQ(mint_trace_id(3, 7, 0), mint_trace_id(3, 7, 0));
  EXPECT_NE(mint_trace_id(3, 7, 0), mint_trace_id(3, 8, 0));
  EXPECT_NE(mint_trace_id(3, 7, 0), mint_trace_id(4, 7, 0));
  EXPECT_NE(mint_trace_id(3, 7, 0), mint_trace_id(3, 7, 1));
  EXPECT_NE(mint_trace_id(0, 0, 0), 0u);  // 0 is reserved for "untraced"
}

// --- per-component memory accounting (obs/memacct.h) ------------------------

TEST(MemAccount, LedgerArithmeticWorksWithoutARegistry) {
  // The ledger is policy input (governor ladder), so it must work unbound
  // and in BOTH builds — no SKIP here.
  MemAccount acct;
  acct.set(MemComponent::kIndexArenas, 1000);
  acct.add(MemComponent::kIndexArenas, 24);
  acct.add(MemComponent::kIndexArenas, -24);
  acct.set(MemComponent::kOutboundQueues, 500);
  EXPECT_EQ(acct.get(MemComponent::kIndexArenas), 1000u);
  EXPECT_EQ(acct.get(MemComponent::kOutboundQueues), 500u);
  EXPECT_EQ(acct.get(MemComponent::kWalBuffers), 0u);
  EXPECT_EQ(acct.total(), 1500u);
}

TEST(MemAccount, GovernorExternalBytesIsGrowthComponentsOnly) {
  MemAccount acct;
  // Growth components: counted.
  acct.set(MemComponent::kIndexArenas, 1);
  acct.set(MemComponent::kHeldSummary, 2);
  acct.set(MemComponent::kShadowSummaries, 4);
  acct.set(MemComponent::kWalBuffers, 8);
  acct.set(MemComponent::kSnapshotBuffers, 16);
  // Governor-streamed queues: excluded (already in usage(); counting them
  // here would double-bill the ladder).
  acct.set(MemComponent::kOutboundQueues, 1u << 20);
  acct.set(MemComponent::kRedeliveryQueue, 1u << 20);
  // Fixed-capacity rings: excluded (config-sized baseline, not load).
  acct.set(MemComponent::kTraceRing, 1u << 20);
  acct.set(MemComponent::kFlightRing, 1u << 20);
  acct.set(MemComponent::kExemplarSlots, 1u << 20);
  acct.set(MemComponent::kProfilerRing, 1u << 20);
  EXPECT_EQ(acct.governor_external_bytes(), 31u);
}

TEST(MemAccount, ComponentLabelValuesAreStable) {
  EXPECT_EQ(to_string(MemComponent::kIndexArenas), "index_arenas");
  EXPECT_EQ(to_string(MemComponent::kHeldSummary), "held_summary");
  EXPECT_EQ(to_string(MemComponent::kShadowSummaries), "shadow_summaries");
  EXPECT_EQ(to_string(MemComponent::kWalBuffers), "wal_buffers");
  EXPECT_EQ(to_string(MemComponent::kSnapshotBuffers), "snapshot_buffers");
  EXPECT_EQ(to_string(MemComponent::kOutboundQueues), "outbound_queues");
  EXPECT_EQ(to_string(MemComponent::kRedeliveryQueue), "redelivery_queue");
  EXPECT_EQ(to_string(MemComponent::kTraceRing), "trace_ring");
  EXPECT_EQ(to_string(MemComponent::kFlightRing), "flight_ring");
  EXPECT_EQ(to_string(MemComponent::kExemplarSlots), "exemplar_slots");
  EXPECT_EQ(to_string(MemComponent::kProfilerRing), "profiler_ring");
}

TEST(MemAccount, MirrorsIntoSubsumMemBytesAndRoundTripsThroughPromtext) {
  SKIP_WITHOUT_TELEMETRY();
  MetricsRegistry reg;
  MemAccount acct;
  acct.set(MemComponent::kWalBuffers, 7);  // set before bind: bind publishes it
  acct.bind_metrics(reg);
  acct.set(MemComponent::kIndexArenas, 123456);
  acct.add(MemComponent::kIndexArenas, 44);

  const auto samples = parse_prometheus_text(reg.prometheus_text());
  uint64_t found = 0;
  for (const auto& s : samples) {
    if (s.name != "subsum_mem_bytes") continue;
    const auto* comp = s.label("component");
    ASSERT_NE(comp, nullptr);
    if (*comp == "index_arenas") {
      EXPECT_EQ(s.value, 123500.0);
      ++found;
    } else if (*comp == "wal_buffers") {
      EXPECT_EQ(s.value, 7.0);
      ++found;
    }
  }
  // Every component registers at bind time, the touched ones carry their
  // ledger values — the scrape a dashboard actually sees.
  EXPECT_EQ(found, 2u);
  uint64_t series = 0;
  for (const auto& s : samples) {
    if (s.name == "subsum_mem_bytes") ++series;
  }
  EXPECT_EQ(series, kMemComponentCount);
}

TEST(ProcessStats, ProcReadIsSaneOrCleanlyAbsent) {
  const ProcessStats ps = read_process_stats();
  if (!ps.ok) GTEST_SKIP() << "no readable /proc on this platform";
  EXPECT_GT(ps.rss_bytes, 0u);
  EXPECT_GE(ps.threads, 1u);
  EXPECT_GT(ps.open_fds, 0u);
  EXPECT_GE(ps.utime_sec + ps.stime_sec, 0.0);
}

}  // namespace
}  // namespace subsum::obs
