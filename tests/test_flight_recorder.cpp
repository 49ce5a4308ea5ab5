// obs::FlightRecorder: the seqlock rings (transitions and spans), the
// CRC-framed dump format and its torn-tail tolerance, the merged timeline
// formatter, the structured logger, and the stage-latency registration —
// plus the NO_TELEMETRY contract that recording compiles to a no-op while
// dumps stay wire-valid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/latency.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace subsum::obs {
namespace {

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(raw.data());
  return {p, p + raw.size()};
}

// --- ring -------------------------------------------------------------------

TEST(FlightRecorder, RecordsInOrderUpToCapacity) {
  FlightRecorder fr(3, 8, /*virtual_time=*/true);
  fr.record_at(10, FrKind::kStart, 0, 0, 5);
  fr.record_at(20, FrKind::kRungChange, 0, 2, 1000);
#ifdef SUBSUM_NO_TELEMETRY
  EXPECT_TRUE(fr.snapshot().empty());  // record_at compiles to a no-op
  GTEST_SKIP() << "records compile out under SUBSUM_NO_TELEMETRY";
#endif
  const auto recs = fr.snapshot();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kind, FrKind::kStart);
  EXPECT_EQ(recs[0].detail, 5u);
  EXPECT_EQ(recs[0].broker, 3u);
  EXPECT_EQ(recs[1].kind, FrKind::kRungChange);
  EXPECT_EQ(recs[1].a, 0u);
  EXPECT_EQ(recs[1].b, 2u);
  EXPECT_EQ(recs[1].t_us, 20u);
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_EQ(fr.appended(), 2u);
#endif
}

TEST(FlightRecorder, OverwritesOldestBeyondCapacity) {
  FlightRecorder fr(0, 4, /*virtual_time=*/true);
  for (uint64_t i = 0; i < 10; ++i) {
    fr.record_at(i, FrKind::kPeriodBegin, 0, 0, i);
  }
#ifdef SUBSUM_NO_TELEMETRY
  EXPECT_TRUE(fr.snapshot().empty());
#else
  const auto recs = fr.snapshot();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs.front().detail, 6u);  // newest 4, oldest first
  EXPECT_EQ(recs.back().detail, 9u);
  EXPECT_EQ(fr.appended(), 10u);
#endif
}

TEST(FlightRecorder, ConcurrentAppendsNeverTear) {
  FlightRecorder fr(0, 64, /*virtual_time=*/true);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&fr, t] {
      for (uint32_t i = 0; i < 2000; ++i) {
        // Invariant checked below: a == b and detail == a for every record,
        // so any torn read/write shows up as a mismatched tuple.
        const uint32_t v = static_cast<uint32_t>(t) * 10000 + i;
        fr.record_at(v, FrKind::kBreakerFlip, v, v, v);
      }
    });
  }
  for (auto& t : ts) t.join();
  for (const auto& r : fr.snapshot()) {
    EXPECT_EQ(r.a, r.b);
    EXPECT_EQ(r.detail, r.a);
    EXPECT_EQ(r.t_us, r.a);
  }
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_EQ(fr.appended(), 8000u);
  EXPECT_EQ(fr.snapshot().size(), 64u);
#endif
}

// --- span ring --------------------------------------------------------------

Span make_span(uint64_t trace, uint64_t t) {
  Span s;
  s.trace = trace;
  s.broker = 1;
  s.phase = Phase::kRecv;
  s.t_us = t;
  return s;
}

TEST(FlightRecorder, SpansAppendAndSnapshotInOrder) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "spans compile out under SUBSUM_NO_TELEMETRY";
#endif
  FlightRecorder fr(0, 8, /*virtual_time=*/true);
  for (uint64_t i = 0; i < 3; ++i) fr.record_span(make_span(7, i));
  const auto spans = fr.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].t_us, 0u);
  EXPECT_EQ(spans[2].t_us, 2u);
  EXPECT_EQ(spans[0], make_span(7, 0));  // a span round-trips one for one
  EXPECT_EQ(fr.appended(), 3u);
  // In the record stream a span is one record of its phase's kind, under
  // the span's own broker.
  const auto recs = fr.snapshot();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].kind, FrKind::kRecv);
  EXPECT_EQ(recs[0].broker, 1u);
  EXPECT_EQ(recs[0].a, Span::kNoPeer);
}

TEST(FlightRecorder, SpansOverwriteOldestAtSpanCapacity) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "spans compile out under SUBSUM_NO_TELEMETRY";
#endif
  FlightRecorder fr(0, 8, /*virtual_time=*/true);
  constexpr uint64_t kCap = FlightRecorder::kSpanCapacity;
  for (uint64_t i = 0; i < kCap + 6; ++i) fr.record_span(make_span(7, i));
  const auto spans = fr.spans();
  ASSERT_EQ(spans.size(), kCap);
  // The newest kCap, oldest first.
  EXPECT_EQ(spans.front().t_us, 6u);
  EXPECT_EQ(spans.back().t_us, kCap + 5);
  EXPECT_EQ(fr.appended(), kCap + 6);
}

TEST(FlightRecorder, SpansCountSilentOverwritesAsDrops) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "spans compile out under SUBSUM_NO_TELEMETRY";
#endif
  FlightRecorder fr(0, 4, /*virtual_time=*/true);
  constexpr uint64_t kCap = FlightRecorder::kSpanCapacity;
  for (uint64_t i = 0; i < kCap; ++i) fr.record_span(make_span(7, i));
  EXPECT_EQ(fr.spans_dropped(), 0u);  // still at capacity
  EXPECT_EQ(fr.spans().size(), kCap);
  for (uint64_t i = 0; i < 6; ++i) fr.record_span(make_span(7, kCap + i));
  EXPECT_EQ(fr.spans_dropped(), 6u);
  EXPECT_EQ(fr.spans().size(), kCap);
  // Transitions have a ring of their own: overwriting them drops no span.
  for (uint64_t i = 0; i < 10; ++i) fr.record_at(i, FrKind::kPeriodBegin, 0, 0, i);
  EXPECT_EQ(fr.spans_dropped(), 6u);
}

TEST(FlightRecorder, SpansFilterByTrace) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "spans compile out under SUBSUM_NO_TELEMETRY";
#endif
  FlightRecorder fr(0, 8, /*virtual_time=*/true);
  fr.record_span(make_span(1, 0));
  fr.record_span(make_span(2, 1));
  fr.record_span(make_span(1, 2));
  const auto only1 = fr.spans(1);
  ASSERT_EQ(only1.size(), 2u);
  EXPECT_EQ(only1[0].t_us, 0u);
  EXPECT_EQ(only1[1].t_us, 2u);
  EXPECT_TRUE(fr.spans(99).empty());
  EXPECT_EQ(fr.spans().size(), 3u);  // trace 0 = every retained span
}

TEST(FlightRecorder, SpansNeverEvictTransitions) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "records compile out under SUBSUM_NO_TELEMETRY";
#endif
  FlightRecorder fr(4, 16, /*virtual_time=*/true);
  fr.record_at(1, FrKind::kRungChange, 0, 2, 1000);
  for (uint64_t i = 0; i < 5 * FlightRecorder::kSpanCapacity; ++i) {
    fr.record_span(make_span(9, 2 + i));
  }
  const auto has_rung = [](const std::vector<FrRecord>& recs) {
    return std::any_of(recs.begin(), recs.end(), [](const FrRecord& r) {
      return r.kind == FrKind::kRungChange && r.b == 2 && r.detail == 1000;
    });
  };
  EXPECT_TRUE(has_rung(fr.snapshot()));
  const auto dump = decode_dump(fr.serialize());
  ASSERT_TRUE(dump.has_value());
  EXPECT_FALSE(dump->truncated);
  EXPECT_TRUE(has_rung(dump->records));
  EXPECT_EQ(dump->records.size(), 1 + FlightRecorder::kSpanCapacity);
  EXPECT_EQ(dump->appended, 1 + 5 * FlightRecorder::kSpanCapacity);
}

TEST(FlightRecorder, SpanKindsAreNamedByPhase) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "spans compile out under SUBSUM_NO_TELEMETRY";
#endif
  FlightRecorder fr(0, 8, /*virtual_time=*/true);
  const Phase phases[] = {Phase::kRecv,    Phase::kMatch, Phase::kForward,
                          Phase::kDeliver, Phase::kRetry, Phase::kRedeliver};
  for (const Phase p : phases) {
    Span s = make_span(5, 0);
    s.phase = p;
    fr.record_span(s);
  }
  const auto recs = fr.snapshot();
  ASSERT_EQ(recs.size(), std::size(phases));
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(to_string(recs[i].kind), to_string(phases[i]));
  }
  EXPECT_EQ(recs.back().kind, FrKind::kRedeliver);
}

TEST(FlightRecorder, ConcurrentSpansServeTraceReadsWithoutTearing) {
  // Writers record spans while a reader serves spans(trace), as kTrace
  // does: every span read back is whole, and only of the asked trace.
  FlightRecorder fr(0, 8);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      for (const Span& s : fr.spans(2)) {
        EXPECT_EQ(s.trace, 2u);
        EXPECT_EQ(s.peer, s.broker);
        EXPECT_EQ(s.bytes, uint64_t{s.broker} * 3);
      }
    }
  });
  std::vector<std::thread> writers;
  for (uint64_t t = 1; t <= 3; ++t) {
    writers.emplace_back([&fr, t] {
      for (uint32_t i = 0; i < 3000; ++i) {
        Span s;
        s.trace = t;
        s.broker = i;
        s.peer = i;
        s.phase = Phase::kForward;
        s.t_us = now_us();
        s.bytes = uint64_t{i} * 3;
        fr.record_span(s);
      }
    });
  }
  for (auto& w : writers) w.join();
  done = true;
  reader.join();
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_EQ(fr.appended(), 9000u);
  EXPECT_EQ(fr.spans_dropped(), 9000u - FlightRecorder::kSpanCapacity);
  EXPECT_EQ(fr.spans(2).size() + fr.spans(1).size() + fr.spans(3).size(),
            FlightRecorder::kSpanCapacity);
#endif
}

TEST(FlightRecorder, TimelineNamesSpansWithPeerAndBytes) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "records compile out under SUBSUM_NO_TELEMETRY";
#endif
  FlightRecorder fr(3, 8, /*virtual_time=*/true);
  Span fwd = make_span(0xabc, 5);
  fwd.phase = Phase::kForward;
  fwd.peer = 4;
  fwd.bytes = 212;
  fr.record_span(fwd);
  fr.record_span(make_span(0xabc, 6));
  const std::string tl = format_timeline(std::vector<FrDump>{*decode_dump(fr.serialize())});
  EXPECT_NE(tl.find("broker 1 forward peer=4 bytes=212 trace=0000000000000abc"),
            std::string::npos)
      << tl;
  EXPECT_NE(tl.find("broker 1 recv bytes=0 trace=0000000000000abc"), std::string::npos) << tl;
}

// --- dump format ------------------------------------------------------------

TEST(FlightRecorder, SerializeDecodeRoundTrip) {
  FlightRecorder fr(7, 16, /*virtual_time=*/true);
  fr.record_at(1, FrKind::kStart, 0, 0, 3);
  fr.record_at(2, FrKind::kBreakerFlip, 1, 1, 0, 0xdeadbeef);
  const auto dump = decode_dump(fr.serialize());
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->version, 1u);
  EXPECT_EQ(dump->broker, 7u);
  EXPECT_EQ(dump->wall_anchor_us, 0u);  // virtual time
  EXPECT_FALSE(dump->truncated);
  EXPECT_EQ(dump->records, fr.snapshot());
#ifndef SUBSUM_NO_TELEMETRY
  ASSERT_EQ(dump->records.size(), 2u);
  EXPECT_EQ(dump->records[1].trace, 0xdeadbeefu);
#endif
}

TEST(FlightRecorder, EmptyDumpIsValid) {
  // The NO_TELEMETRY leg serializes exactly this: header, zero records.
  FlightRecorder fr(2, 8, /*virtual_time=*/true);
  const auto dump = decode_dump(fr.serialize());
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->broker, 2u);
  EXPECT_TRUE(dump->records.empty());
  EXPECT_FALSE(dump->truncated);
}

TEST(FlightRecorder, TornTailKeepsIntactPrefix) {
  FlightRecorder fr(1, 8, /*virtual_time=*/true);
  for (uint64_t i = 0; i < 4; ++i) fr.record_at(i, FrKind::kPeriodBegin, 0, 0, i);
  auto bytes = fr.serialize();
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "no records to tear under SUBSUM_NO_TELEMETRY";
#endif
  // Tear mid-way through the last record (crash during write(2)).
  bytes.resize(bytes.size() - 17);
  const auto dump = decode_dump(bytes);
  ASSERT_TRUE(dump.has_value());
  EXPECT_TRUE(dump->truncated);
  ASSERT_EQ(dump->records.size(), 3u);
  EXPECT_EQ(dump->records[2].detail, 2u);
}

TEST(FlightRecorder, CorruptRecordStopsAtTheFlip) {
  FlightRecorder fr(1, 8, /*virtual_time=*/true);
  for (uint64_t i = 0; i < 3; ++i) fr.record_at(i, FrKind::kPeriodBegin, 0, 0, i);
  auto bytes = fr.serialize();
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "no records to corrupt under SUBSUM_NO_TELEMETRY";
#endif
  // Flip one byte inside the second record's payload: its CRC fails, the
  // reader keeps record 1 and reports truncation.
  const size_t header = 8 + 4 + 32;       // magic + crc + header payload
  const size_t rec = 4 + 40;              // crc + record payload
  bytes[header + rec + 10] ^= std::byte{0xFF};
  const auto dump = decode_dump(bytes);
  ASSERT_TRUE(dump.has_value());
  EXPECT_TRUE(dump->truncated);
  ASSERT_EQ(dump->records.size(), 1u);
}

TEST(FlightRecorder, GarbageAndShortInputsAreRejectedNotFatal) {
  EXPECT_FALSE(decode_dump({}).has_value());
  std::vector<std::byte> junk(64, std::byte{0x5A});
  EXPECT_FALSE(decode_dump(junk).has_value());
  FlightRecorder fr(1, 4, /*virtual_time=*/true);
  auto bytes = fr.serialize();
  for (size_t cut = 0; cut < 8 + 4 + 32; ++cut) {
    EXPECT_FALSE(decode_dump(std::span(bytes.data(), cut)).has_value()) << cut;
  }
}

TEST(FlightRecorder, DumpToFileRoundTrips) {
  const auto dir = std::filesystem::temp_directory_path() / "subsum_fr_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "flight.bin").string();
  FlightRecorder fr(5, 8, /*virtual_time=*/true);
  fr.record_at(9, FrKind::kShutdown);
  ASSERT_TRUE(fr.dump_to(path));
  const auto dump = decode_dump(read_file(path));
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->broker, 5u);
  EXPECT_EQ(dump->records, fr.snapshot());
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, VirtualTimeDumpsAreByteIdenticalAcrossRuns) {
  auto run = [] {
    FlightRecorder fr(1, 16, /*virtual_time=*/true);
    for (uint64_t p = 1; p <= 5; ++p) {
      fr.record_at(p * 1'000'000, FrKind::kPeriodBegin, 0, 0, p);
    }
    fr.record_at(3'000'001, FrKind::kLeaseExpired, 42, 1);
    return fr.serialize();
  };
  EXPECT_EQ(run(), run());  // the sim's reproducibility contract
}

// --- timeline ---------------------------------------------------------------

TEST(FlightRecorder, TimelineMergesBrokersByAnchoredTime) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "records compile out under SUBSUM_NO_TELEMETRY";
#endif
  FrDump a;
  a.broker = 0;
  a.records.push_back({2'000'000, 0, 7340032, 0, 1, 3, FrKind::kRungChange});
  FrDump b;
  b.broker = 1;
  b.records.push_back({1'000'000, 0xabc, 0, 1, 2, 1, FrKind::kBreakerFlip});
  const std::string tl = format_timeline(std::vector<FrDump>{a, b});
  // Broker 1's earlier record sorts first despite arriving second.
  const auto flip = tl.find("broker 1 breaker-flip");
  const auto rung = tl.find("broker 0 rung-change");
  ASSERT_NE(flip, std::string::npos) << tl;
  ASSERT_NE(rung, std::string::npos) << tl;
  EXPECT_LT(flip, rung);
  EXPECT_NE(tl.find("1->3"), std::string::npos) << tl;          // rung edge
  EXPECT_NE(tl.find("trace=0000000000000abc"), std::string::npos) << tl;
}

TEST(FlightRecorder, KindNamesAreStable) {
  EXPECT_EQ(to_string(FrKind::kStart), "start");
  EXPECT_EQ(to_string(FrKind::kRungChange), "rung-change");
  EXPECT_EQ(to_string(FrKind::kBreakerFlip), "breaker-flip");
  EXPECT_EQ(to_string(FrKind::kDropOldest), "drop-oldest");
  EXPECT_EQ(to_string(FrKind::kSlowConsumer), "slow-consumer-disconnect");
  EXPECT_EQ(to_string(FrKind::kLeaseExpired), "lease-expired");
  EXPECT_EQ(to_string(FrKind::kEpochBump), "epoch-bump");
  EXPECT_EQ(to_string(FrKind::kWalTruncateHeal), "wal-truncate-heal");
  EXPECT_EQ(to_string(FrKind::kShutdown), "shutdown");
  EXPECT_EQ(to_string(FrKind::kDump), "dump");
  EXPECT_EQ(to_string(FrKind::kFatalSignal), "fatal-signal");
  EXPECT_EQ(to_string(FrKind::kPeriodBegin), "period-begin");
}

// --- structured logger ------------------------------------------------------

std::string capture_log(LogLevel cfg, LogLevel at, const char* msg,
                        uint64_t trace = 0, std::initializer_list<LogKv> kv = {}) {
  std::FILE* f = std::tmpfile();
  Logger log;
  log.configure(cfg, f, /*broker=*/3);
  log.log(at, "test", msg, trace, kv);
  std::fflush(f);
  std::rewind(f);
  char buf[512] = {};
  const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  return std::string(buf, n);
}

TEST(Log, EmitsJsonlWithTraceAndKv) {
  const std::string line =
      capture_log(LogLevel::kInfo, LogLevel::kWarn, "rung change", 0xab,
                  {{"old", 0}, {"new", 2}});
#ifdef SUBSUM_NO_TELEMETRY
  EXPECT_TRUE(line.empty());
#else
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"broker\":3"), std::string::npos);
  EXPECT_NE(line.find("\"component\":\"test\""), std::string::npos);
  EXPECT_NE(line.find("\"msg\":\"rung change\""), std::string::npos);
  EXPECT_NE(line.find("\"trace\":\"00000000000000ab\""), std::string::npos);
  EXPECT_NE(line.find("\"old\":0"), std::string::npos);
  EXPECT_NE(line.find("\"new\":2"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
#endif
}

TEST(Log, LevelGateAndOffByDefault) {
  EXPECT_TRUE(capture_log(LogLevel::kError, LogLevel::kWarn, "below gate").empty());
  EXPECT_TRUE(capture_log(LogLevel::kOff, LogLevel::kError, "off").empty());
  Logger unconfigured;
  EXPECT_FALSE(unconfigured.enabled(LogLevel::kError));  // silent by default
}

TEST(Log, RateLimitSuppressesAndSummarizes) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "logger compiles out under SUBSUM_NO_TELEMETRY";
#endif
  std::FILE* f = std::tmpfile();
  Logger log;
  log.configure(LogLevel::kInfo, f, 0, /*max_lines_per_sec=*/5);
  for (int i = 0; i < 50; ++i) log.log(LogLevel::kInfo, "t", "spam");
  EXPECT_EQ(log.emitted(), 5u);
  EXPECT_EQ(log.suppressed(), 45u);
  std::fclose(f);
}

TEST(Log, ParseLogLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kOff);
}

TEST(Log, JsonEscapesControlCharsAndQuotes) {
  std::string out;
  json_escape("a\"b\\c\nd\te", out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te");
}

// --- stage set --------------------------------------------------------------

TEST(StageSet, RegistersEveryStageWithExemplars) {
  MetricsRegistry reg;
  StageSet stages(reg);
  stages.observe(Stage::kMatch, 7, 0x77);
  stages.observe(Stage::kE2e, 1000);
  const std::string text = reg.prometheus_text();
  for (const char* name :
       {"ingress_decode", "admission", "wal_fsync", "match", "route_hop",
        "outbound_queue", "writer_flush", "e2e"}) {
    EXPECT_NE(text.find(std::string("stage=\"") + name + "\""), std::string::npos)
        << name;
  }
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_EQ(stages.hist(Stage::kMatch)->count(), 1u);
  EXPECT_EQ(stages.hist(Stage::kMatch)
                ->exemplar(Histogram::bucket_of(7)).trace,
            0x77u);
#endif
}

TEST(StageSet, StageNamesAreStable) {
  EXPECT_EQ(to_string(Stage::kIngressDecode), "ingress_decode");
  EXPECT_EQ(to_string(Stage::kAdmission), "admission");
  EXPECT_EQ(to_string(Stage::kWalFsync), "wal_fsync");
  EXPECT_EQ(to_string(Stage::kMatch), "match");
  EXPECT_EQ(to_string(Stage::kRouteHop), "route_hop");
  EXPECT_EQ(to_string(Stage::kOutboundQueue), "outbound_queue");
  EXPECT_EQ(to_string(Stage::kWriterFlush), "writer_flush");
  EXPECT_EQ(to_string(Stage::kE2e), "e2e");
}

}  // namespace
}  // namespace subsum::obs
