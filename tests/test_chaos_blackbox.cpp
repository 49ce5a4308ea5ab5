// Chaos suite (ctest label "chaos"): the black-box flight recorder under a
// kill. A stalled consumer plus a publish storm drives broker 2's governor
// through its rung ladder, then the broker is killed; survivors' breakers
// open against the corpse. The acceptance bar: the dead broker's on-disk
// flight dump decodes, and the merged cross-broker timeline names the rung
// changes and breaker flips that preceded death — with zero logging
// configured anywhere.
//
// The dump also carries the walk spans journaled beside the transitions,
// so it names the deliveries of the publishes the victim was serving.
//
// A second test pins the exemplar workflow: stage-latency histograms carry
// exemplar trace ids that resolve, via the trace RPC, to the publish's
// span chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/promtext.h"
#include "overlay/topologies.h"
#include "workload/stock_schema.h"

namespace subsum::net {
namespace {

using namespace std::chrono_literals;
using model::EventBuilder;
using model::Op;
using model::Schema;
using model::SubscriptionBuilder;
using overlay::BrokerId;

RpcPolicy tight_policy() {
  RpcPolicy p;
  p.connect_timeout = 200ms;
  p.io_timeout = 1000ms;
  p.backoff = {5ms, 40ms, 2};
  return p;
}

ClientOptions tight_client() {
  ClientOptions o;
  o.connect_timeout = 500ms;
  o.rpc_timeout = 30000ms;
  o.backoff = {5ms, 40ms, 4};
  return o;
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(raw.data());
  return {p, p + raw.size()};
}

TEST(BlackboxChaos, KilledBrokerLeavesTimelineNamingRungChangesAndBreakerFlips) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "flight records compile out under SUBSUM_NO_TELEMETRY";
#endif
  const Schema s = workload::stock_schema();
  const overlay::Graph g = overlay::fig7_tree();
  const auto dir =
      std::filesystem::temp_directory_path() / "subsum_blackbox_chaos";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // A budget equal to one connection's queue cap: a single stalled consumer
  // walks the governor through every rung. Breakers open fast (2 terminal
  // failures) and stay open (long cooldown) so the flip is a clean edge.
  Cluster cluster(s, g, core::GeneralizePolicy::kSafe, tight_policy(),
                  dir.string(), [](BrokerConfig& cfg) {
                    cfg.governor.conn_queue_max_bytes = 128u << 10;
                    cfg.governor.memory_budget_bytes = 128u << 10;
                    cfg.governor.write_stall_timeout = 2000ms;
                    cfg.governor.conn_sndbuf_bytes = 64u << 10;
                    cfg.governor.breaker_open_after = 2;
                    cfg.governor.breaker_cooldown = 60000ms;
                  });

  // Stalled consumer on broker 2: its outbound queue is the storm's sink.
  const BrokerId victim = 2;
  auto inj = std::make_unique<FaultInjector>(cluster.port_of(victim));
  auto stalled = std::make_unique<Client>(inj->port(), s, tight_client());
  stalled->subscribe(
      SubscriptionBuilder(s).where("symbol", Op::kEq, "storm").build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());

  inj->stall_reads(20'000ms);
  ASSERT_TRUE(inj->stalled());
  auto publisher = cluster.connect(1, tight_client());
  const std::string blob(16u << 10, 'b');
  std::vector<uint64_t> storm_traces;
  for (int i = 0; i < 40; ++i) {
    try {
      storm_traces.push_back(publisher->publish(EventBuilder(s)
                                                    .set("symbol", "storm")
                                                    .set("exchange", blob)
                                                    .set("volume", int64_t{i})
                                                    .build()));
    } catch (const std::exception&) {
      // Admission rejections under deep overload are the governor working
      // as designed; the storm only needs to fill the victim's queue.
    }
  }
  // Give the victim's governor a moment to account the queued bytes.
  std::this_thread::sleep_for(200ms);

  // Death. kill() runs the clean-stop dump path, so the on-disk black box
  // must exist and decode regardless of what the storm did to the queues.
  cluster.kill(victim);
  inj->stall_reads(0ms);
  inj->stop();
  stalled.reset();

  // Survivors keep routing toward the corpse until their breakers open.
  for (int i = 0; i < 8; ++i) {
    try {
      publisher->publish(EventBuilder(s)
                             .set("symbol", "storm")
                             .set("volume", int64_t{100 + i})
                             .build());
    } catch (const std::exception&) {
    }
  }

  // The dead broker's dump, straight off disk.
  const std::string victim_path =
      (dir / ("broker-" + std::to_string(victim)) / "flight.bin").string();
  ASSERT_TRUE(std::filesystem::exists(victim_path));
  const auto victim_dump = obs::decode_dump(read_file(victim_path));
  ASSERT_TRUE(victim_dump.has_value()) << "black box unreadable";
  EXPECT_EQ(victim_dump->broker, victim);
  EXPECT_FALSE(victim_dump->records.empty());
  // The same dump journals the walks that reached the victim: deliver
  // spans of the storm's own publishes.
  EXPECT_TRUE(std::any_of(victim_dump->records.begin(), victim_dump->records.end(),
                          [&](const obs::FrRecord& r) {
                            return r.kind == obs::FrKind::kDeliver &&
                                   std::count(storm_traces.begin(), storm_traces.end(),
                                              r.trace) > 0;
                          }))
      << "no deliver span of a storm publish in the victim's dump";

  // Survivors' dumps: broker 0 over the wire (the kDump RPC), the rest
  // in-process. The RPC's own service shows up as a "dump" record.
  std::vector<obs::FrDump> dumps{*victim_dump};
  {
    auto c = cluster.connect(0, tight_client());
    const auto rpc_dump = obs::decode_dump(c->flight_dump());
    ASSERT_TRUE(rpc_dump.has_value()) << "kDump RPC payload unreadable";
    EXPECT_EQ(rpc_dump->broker, 0u);
    bool served = false;
    for (const auto& r : rpc_dump->records) served |= r.kind == obs::FrKind::kDump;
    EXPECT_TRUE(served) << "kDump service not recorded in its own dump";
    dumps.push_back(*rpc_dump);
  }
  for (BrokerId b = 1; b < cluster.size(); ++b) {
    if (!cluster.alive(b)) continue;
    const auto d = obs::decode_dump(cluster.node(b).flight_recorder().serialize());
    ASSERT_TRUE(d.has_value());
    dumps.push_back(*d);
  }

  const std::string timeline = obs::format_timeline(dumps);
  // The incident story an operator needs, by name: the victim's governor
  // climbing its rungs, its clean shutdown, and a survivor's breaker
  // opening against it.
  EXPECT_NE(timeline.find("broker 2 rung-change"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("broker 2 shutdown"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("breaker-flip"), std::string::npos) << timeline;
  EXPECT_NE(timeline.find("->open"), std::string::npos) << timeline;

  publisher.reset();
  cluster.stop();
  std::filesystem::remove_all(dir);
}

TEST(BlackboxChaos, StageExemplarsResolveToSpanChains) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "exemplars compile out under SUBSUM_NO_TELEMETRY";
#endif
  const Schema s = workload::stock_schema();
  Cluster cluster(s, overlay::fig7_tree(), core::GeneralizePolicy::kSafe,
                  tight_policy());

  auto sub = cluster.connect(2, tight_client());
  sub->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "XMPL").build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());

  auto pub = cluster.connect(0, tight_client());
  std::vector<uint64_t> traces;
  for (int i = 0; i < 20; ++i) {
    traces.push_back(pub->publish(EventBuilder(s)
                                      .set("symbol", "XMPL")
                                      .set("volume", int64_t{i})
                                      .build()));
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sub->next_notification(5000ms).has_value()) << "event " << i;
  }

  // The publisher broker's exposition must carry stage histograms whose
  // buckets retain exemplar trace ids.
  const auto samples =
      obs::parse_prometheus_text(cluster.node(0).metrics().prometheus_text());
  uint64_t exemplar_trace = 0;
  std::string exemplar_stage;
  for (const auto& sample : samples) {
    if (sample.name != "subsum_stage_latency_us_bucket") continue;
    if (sample.exemplar_trace.empty()) continue;
    uint64_t t = 0;
    const auto [ptr, ec] = std::from_chars(
        sample.exemplar_trace.data(),
        sample.exemplar_trace.data() + sample.exemplar_trace.size(), t, 16);
    ASSERT_EQ(ec, std::errc{}) << "unparseable exemplar " << sample.exemplar_trace;
    if (const std::string* stage = sample.label("stage"); stage != nullptr) {
      exemplar_stage = *stage;
    }
    exemplar_trace = t;
    if (exemplar_stage == "e2e") break;  // prefer the end-to-end stage
  }
  ASSERT_NE(exemplar_trace, 0u) << "no stage bucket retained an exemplar";

  // The exemplar belongs to a publish this test made, and it resolves over
  // the trace RPC to that publish's span chain — the full p99-spike ->
  // trace-id -> span-chain workflow, in one process.
  EXPECT_NE(std::find(traces.begin(), traces.end(), exemplar_trace), traces.end())
      << "exemplar trace " << std::hex << exemplar_trace
      << " is not one of this test's publishes (stage " << exemplar_stage << ")";
  const auto spans = pub->fetch_trace(exemplar_trace);
  ASSERT_FALSE(spans.empty()) << "exemplar trace did not resolve to spans";
  for (const auto& span : spans) EXPECT_EQ(span.trace, exemplar_trace);
}

}  // namespace
}  // namespace subsum::net
