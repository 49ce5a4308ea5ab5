// Overload governor (net/governor.h): token-bucket determinism, circuit
// breaker transitions, the degradation ladder's strict shed ordering, the
// slow-consumer bounded-queue policy end to end, and the retry-after
// admission-control handshake between broker and client.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/fault_injector.h"
#include "net/governor.h"
#include "obs/memacct.h"
#include "obs/metrics.h"
#include "overlay/topologies.h"
#include "util/backoff.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::net {
namespace {

using namespace std::chrono_literals;
using model::EventBuilder;
using model::Op;
using model::Schema;
using model::SubId;
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

// --- TokenBucket -------------------------------------------------------------

TEST(TokenBucket, DeterministicScheduleFromExplicitTimestamps) {
  // 2 tokens/s, burst 1: one immediate admit, then one every 500ms.
  TokenBucket tb(/*rate_per_sec=*/2, /*burst=*/1);
  uint64_t retry_ms = 0;
  EXPECT_TRUE(tb.try_acquire(0));
  EXPECT_FALSE(tb.try_acquire(0, &retry_ms));
  EXPECT_EQ(retry_ms, 500u);  // exact refill time, not a guess
  EXPECT_FALSE(tb.try_acquire(499'999, &retry_ms));
  EXPECT_EQ(retry_ms, 1u);
  EXPECT_TRUE(tb.try_acquire(500'000));
  EXPECT_FALSE(tb.try_acquire(500'000));
  // Burst capacity accrues while idle but never exceeds the burst.
  EXPECT_TRUE(tb.try_acquire(10'000'000));
  EXPECT_FALSE(tb.try_acquire(10'000'000));
}

TEST(TokenBucket, BurstAdmitsBackToBack) {
  TokenBucket tb(/*rate_per_sec=*/1, /*burst=*/3);
  EXPECT_TRUE(tb.try_acquire(0));
  EXPECT_TRUE(tb.try_acquire(0));
  EXPECT_TRUE(tb.try_acquire(0));
  EXPECT_FALSE(tb.try_acquire(0));
}

TEST(TokenBucket, RateZeroIsUnlimited) {
  TokenBucket tb(0, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(tb.try_acquire(0));
}

// --- CircuitBreaker ----------------------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndRecloses) {
  CircuitBreaker br(/*open_after=*/2, /*cooldown=*/100ms);
  const uint64_t t0 = 1'000'000;
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);

  br.on_failure(t0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);  // one strike is noise
  br.on_failure(t0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);

  EXPECT_FALSE(br.allow(t0 + 50'000));  // inside the cooldown: fail fast
  EXPECT_TRUE(br.allow(t0 + 100'000));  // cooldown over: ONE half-open probe
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(br.allow(t0 + 100'000));  // concurrent caller refused

  br.on_success();
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow(t0 + 100'000));
}

TEST(CircuitBreaker, FailedProbeReopensWithFreshCooldown) {
  CircuitBreaker br(1, 100ms);
  br.on_failure(0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(br.allow(100'000));  // half-open probe
  br.on_failure(100'000);          // probe failed
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(br.allow(150'000));  // new cooldown runs from the probe failure
  EXPECT_TRUE(br.allow(200'000));
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker br(3, 100ms);
  br.on_failure(0);
  br.on_failure(0);
  br.on_success();
  br.on_failure(0);
  br.on_failure(0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);  // streak broken at 2
  br.on_failure(0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreaker, ZeroDisables) {
  CircuitBreaker br(0, 1ms);
  for (int i = 0; i < 10; ++i) br.on_failure(0);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow(0));
}

// --- degradation ladder ------------------------------------------------------

TEST(Governor, LadderShedsInStrictPriorityOrder) {
  GovernorConfig cfg;
  cfg.memory_budget_bytes = 1000;
  obs::MetricsRegistry m;
  Governor g(cfg, /*peers=*/0, m);
  using Shed = Governor::Shed;

  const auto shed_set = [&] {
    std::set<Shed> on;
    for (Shed c : {Shed::kProbe, Shed::kTrace, Shed::kRedelivery, Shed::kPublish,
                   Shed::kNotify, Shed::kControl}) {
      if (g.shedding(c)) on.insert(c);
    }
    return on;
  };

  EXPECT_EQ(g.rung(), 0);
  EXPECT_TRUE(shed_set().empty());

  g.add_usage(500);  // 50%
  EXPECT_EQ(g.rung(), 1);
  EXPECT_EQ(shed_set(), (std::set<Shed>{Shed::kProbe}));

  g.add_usage(150);  // 65%
  EXPECT_EQ(g.rung(), 2);
  EXPECT_EQ(shed_set(), (std::set<Shed>{Shed::kProbe, Shed::kTrace}));

  g.add_usage(150);  // 80%
  EXPECT_EQ(g.rung(), 3);
  EXPECT_EQ(shed_set(), (std::set<Shed>{Shed::kProbe, Shed::kTrace, Shed::kRedelivery}));

  g.add_usage(150);  // 95%
  EXPECT_EQ(g.rung(), 4);
  EXPECT_EQ(shed_set(),
            (std::set<Shed>{Shed::kProbe, Shed::kTrace, Shed::kRedelivery, Shed::kPublish}));
  // Rung 4 rejects publishes through admission, flagged as a shed.
  const auto adm = g.admit_publish();
  EXPECT_FALSE(adm.ok);
  EXPECT_TRUE(adm.shed);
  EXPECT_GT(adm.retry_after_ms, 0u);
  EXPECT_EQ(g.shed_count(Governor::Shed::kPublish), 1u);

  // Control traffic is NEVER shed, at any rung. Ever.
  EXPECT_FALSE(g.shedding(Shed::kControl));
  EXPECT_EQ(g.shed_count(Shed::kControl), 0u);

  // Recovery walks back down the ladder; the peak stays on record.
  g.sub_usage(950);
  EXPECT_EQ(g.rung(), 0);
  EXPECT_TRUE(shed_set().empty());
  EXPECT_TRUE(g.admit_publish().ok);
  EXPECT_EQ(g.peak_usage(), 950u);
}

TEST(Governor, ConnectionSlotsAreBounded) {
  GovernorConfig cfg;
  cfg.max_connections = 2;
  obs::MetricsRegistry m;
  Governor g(cfg, 0, m);
  EXPECT_TRUE(g.try_acquire_connection());
  EXPECT_TRUE(g.try_acquire_connection());
  EXPECT_FALSE(g.try_acquire_connection());
  g.release_connection();
  EXPECT_TRUE(g.try_acquire_connection());
  EXPECT_EQ(g.connections(), 2u);
}

// --- backoff jitter + retry-after floor (reconnect-storm satellites) ---------

TEST(BackoffJitter, DeterministicPerSeedAndBoundedByPolicy) {
  const util::BackoffPolicy policy{10ms, 500ms, 16};
  util::Backoff a(policy, 7), b(policy, 7), c(policy, 8);
  bool diverged = false;
  for (int i = 0; i < 15; ++i) {
    const auto da = a.next_delay(), db = b.next_delay(), dc = c.next_delay();
    ASSERT_TRUE(da && db && dc);
    EXPECT_EQ(*da, *db);  // same seed => same schedule
    if (*da != *dc) diverged = true;
    EXPECT_GE(*da, policy.base);  // every delay within [base, cap]
    EXPECT_LE(*da, policy.cap);
    EXPECT_GE(*dc, policy.base);
    EXPECT_LE(*dc, policy.cap);
  }
  EXPECT_TRUE(diverged);  // different seeds must not march in lockstep
}

TEST(BackoffJitter, RetryAfterFloorOverridesCapAndFeedsJitterState) {
  // cap 100ms < floor 250ms: the server's hint wins — it knows when it
  // will accept work again.
  const util::BackoffPolicy policy{10ms, 100ms, 8};
  util::Backoff b(policy, 3);
  const auto d = b.next_delay(250ms);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 250ms);
  // Subsequent un-floored delays jitter off the raised value but respect
  // the cap again.
  const auto d2 = b.next_delay();
  ASSERT_TRUE(d2);
  EXPECT_GE(*d2, policy.base);
  EXPECT_LE(*d2, policy.cap);
}

// --- admission control end to end --------------------------------------------

Schema schema_v() { return workload::stock_schema(); }

TEST(Admission, PublishRateLimitRejectsWithRetryAfterAndClientRecovers) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1), core::GeneralizePolicy::kSafe, tight_policy(), {},
                  [](BrokerConfig& cfg) {
                    cfg.governor.publish_rate_per_sec = 4;
                    cfg.governor.publish_burst = 1;
                  });
  auto client = cluster.connect(0, tight_client());
  const auto t0 = std::chrono::steady_clock::now();
  client->publish(EventBuilder(s).set("symbol", "a").build());  // takes the token
  client->publish(EventBuilder(s).set("symbol", "b").build());  // must wait ~250ms
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 200ms);  // the second publish honored the refill hint
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_GE(cluster.node(0).metrics().counter_value(
                "subsum_governor_rejected_publishes_total"),
            1u);
#endif
}

TEST(Admission, ExhaustedRetryBudgetSurfacesThrottledWithHint) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1), core::GeneralizePolicy::kSafe, tight_policy(), {},
                  [](BrokerConfig& cfg) {
                    cfg.governor.publish_rate_per_sec = 1;
                    cfg.governor.publish_burst = 1;
                  });
  ClientOptions opts = tight_client();
  opts.backoff.max_attempts = 1;  // no retries: the rejection surfaces raw
  auto client = cluster.connect(0, opts);
  client->publish(EventBuilder(s).set("symbol", "a").build());
  try {
    client->publish(EventBuilder(s).set("symbol", "b").build());
    FAIL() << "second publish should have been throttled";
  } catch (const Throttled& t) {
    EXPECT_EQ(t.code(), ErrorMsg::kThrottled);
    EXPECT_GT(t.retry_after_ms(), 0u);
  }
}

TEST(Admission, SubscriptionCapRejectsBeyondLimitWithoutStateChange) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1), core::GeneralizePolicy::kSafe, tight_policy(), {},
                  [](BrokerConfig& cfg) { cfg.governor.max_subscriptions = 2; });
  ClientOptions opts = tight_client();
  opts.backoff.max_attempts = 1;
  auto client = cluster.connect(0, opts);
  client->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "a").build());
  client->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "b").build());
  try {
    client->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "c").build());
    FAIL() << "third subscribe should have been rejected";
  } catch (const Throttled& t) {
    EXPECT_EQ(t.code(), ErrorMsg::kOverCapacity);
  }
  EXPECT_EQ(cluster.node(0).snapshot().local_subs, 2u);
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_GE(cluster.node(0).metrics().counter_value(
                "subsum_governor_rejected_subscribes_total"),
            1u);
#endif
  // The connection survives the rejection: unsubscribing still works.
  const auto owned = client->owned_subscriptions();
  ASSERT_EQ(owned.size(), 2u);
  client->unsubscribe(owned[0]);
  EXPECT_EQ(cluster.node(0).snapshot().local_subs, 1u);
}

TEST(Admission, ConnectionCapRefusesExcessConnections) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1), core::GeneralizePolicy::kSafe, tight_policy(), {},
                  [](BrokerConfig& cfg) { cfg.governor.max_connections = 1; });
  ClientOptions opts = tight_client();
  opts.auto_reconnect = false;
  auto first = cluster.connect(0, opts);  // holds the only slot
  first->publish(EventBuilder(s).set("symbol", "a").build());
  auto second = cluster.connect(0, opts);  // TCP accepts, governor refuses
  EXPECT_THROW(
      second->publish(EventBuilder(s).set("symbol", "b").build()),
      NetError);
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_GE(cluster.node(0).metrics().counter_value(
                "subsum_governor_rejected_connections_total"),
            1u);
#endif
  // The admitted connection is unaffected.
  first->publish(EventBuilder(s).set("symbol", "c").build());
}

TEST(Admission, ConnectionCapRefusalKeepsDeltaAnnouncements) {
  // A broker at its connection cap answers any connection, a summary
  // announcement's included, with kError. That refuses one attempt; it is
  // not a verdict on the link, so once slots free up the sender goes on
  // announcing deltas against the base the receiver still holds.
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2), core::GeneralizePolicy::kSafe, tight_policy(), {},
                  [](BrokerConfig& cfg) {
                    if (cfg.id == 1) cfg.governor.max_connections = 3;
                  });
  auto client = cluster.connect(0, tight_client());
  int next_symbol = 0;
  const auto subscribe_one = [&] {
    client->subscribe(SubscriptionBuilder(s)
                          .where("symbol", Op::kEq, "s" + std::to_string(next_symbol++))
                          .build());
  };
  // Enough rows at broker 0 that a one-subscription delta pays for itself.
  for (int i = 0; i < 200; ++i) subscribe_one();
  ASSERT_TRUE(cluster.run_propagation_period().complete());  // full image
  ASSERT_TRUE(cluster.run_propagation_period().complete());  // delta
  const auto& m = cluster.node(0).metrics();
  const auto wait_for_connections = [&](uint64_t n) {
    for (int i = 0; i < 200 && cluster.node(1).governor().connections() != n; ++i) {
      std::this_thread::sleep_for(10ms);
    }
    ASSERT_EQ(cluster.node(1).governor().connections(), n);
  };
  {
    // Broker 1's three slots stay taken through one period in which broker
    // 0 has a change to announce: that announcement is refused. Handlers of
    // the last period's connections release their slots asynchronously.
    wait_for_connections(0);
    std::vector<Socket> held;
    for (int i = 0; i < 3; ++i) held.push_back(connect_local(cluster.port_of(1), 500ms));
    wait_for_connections(3);
    subscribe_one();
    (void)cluster.run_propagation_period();
  }
  wait_for_connections(0);
  [[maybe_unused]] const uint64_t deltas = m.counter_value("subsum_summary_delta_sends_total");
  [[maybe_unused]] const uint64_t fulls = m.counter_value("subsum_summary_full_sends_total");
  for (int i = 0; i < 3; ++i) {
    subscribe_one();
    ASSERT_TRUE(cluster.run_propagation_period().complete());
  }
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_EQ(m.counter_value("subsum_summary_delta_sends_total"), deltas + 3);
  EXPECT_EQ(m.counter_value("subsum_summary_full_sends_total"), fulls);
#endif
  // The link converged either way: broker 1 mirrors what broker 0 holds.
  EXPECT_EQ(cluster.node(1).shadow_digests().at(0), cluster.node(0).held_digest());
}

// --- slow-consumer policy end to end -----------------------------------------

TEST(SlowConsumer, BoundedQueueDropsOldestThenDisconnectsStalledReader) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1), core::GeneralizePolicy::kSafe, tight_policy(), {},
                  [](BrokerConfig& cfg) {
                    cfg.governor.conn_queue_max_bytes = 256u << 10;
                    cfg.governor.write_stall_timeout = 200ms;
                    cfg.governor.memory_budget_bytes = 1u << 20;
                    // Without the sndbuf clamp, kernel autotuning absorbs
                    // the whole storm and the writer never blocks.
                    cfg.governor.conn_sndbuf_bytes = 32u << 10;
                  });

  // The stalled consumer subscribes over a raw socket and then never reads
  // again (a real Client cannot model this: its reader thread always
  // drains the socket, absorbing any backpressure).
  Socket raw = connect_local(cluster.port_of(0));
  // Clamp the receive window: kernel autotuning would otherwise absorb
  // many MB on loopback before the broker's writer ever blocks.
  raw.set_recv_buffer(16u << 10);
  {
    util::BufWriter w;
    put_subscription(
        w, SubscriptionBuilder(s).where("symbol", Op::kEq, "storm").build());
    w.put_varint(0);  // permanent
    send_frame(raw, MsgKind::kSubscribe, w.bytes());
    const auto ack = recv_frame(raw);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->kind, MsgKind::kSubscribeAck);
  }

  // A healthy subscriber to the same events must keep receiving.
  auto healthy = cluster.connect(0, tight_client());
  healthy->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "storm").build());

  auto publisher = cluster.connect(0, tight_client());
  const std::string blob(32u << 10, 'x');  // 32 KiB payload per event
  // Enough volume to punch through kernel socket buffering (a few hundred
  // KiB on loopback) AND the 256 KiB queue cap before the write deadline
  // cuts the stalled consumer off.
  constexpr int kEvents = 80;
  for (int i = 0; i < kEvents; ++i) {
    publisher->publish(EventBuilder(s)
                           .set("symbol", "storm")
                           .set("exchange", blob)
                           .set("volume", int64_t{i})
                           .build());
    std::this_thread::sleep_for(2ms);  // let the healthy writer keep pace
  }

  // The healthy client kept receiving throughout the storm. A transient
  // scheduler hiccup may cost it one queue's worth of frames at most; the
  // stalled consumer must never starve it.
  int got = 0;
  while (got < kEvents) {
    const auto note = healthy->next_notification(got == 0 ? 5000ms : 2000ms);
    if (!note.has_value()) break;
    ++got;
  }
  EXPECT_GE(got, kEvents - 8) << "healthy client starved";

  const Governor& gov = cluster.node(0).governor();
  // ~2.5 MiB hit a 256 KiB queue ceiling: drop-oldest must have engaged.
  EXPECT_GT(gov.shed_count(Governor::Shed::kNotify), 0u);
  // Global accounting never exceeded the budget (the per-connection cap is
  // far below it and redeliveries were idle).
  EXPECT_LE(gov.peak_usage(), 1u << 20);
  // The stalled reader was eventually disconnected by the write deadline
  // (the governor's own counter, so this holds under SUBSUM_NO_TELEMETRY).
  bool disconnected = false;
  for (int i = 0; i < 100 && !disconnected; ++i) {
    disconnected = gov.slow_disconnects() >= 1;
    if (!disconnected) std::this_thread::sleep_for(50ms);
  }
  EXPECT_TRUE(disconnected);
  // Once the writer gave up, the dead connection's queue bytes were
  // returned to the budget.
  for (int i = 0; i < 100 && gov.usage() != 0; ++i) std::this_thread::sleep_for(20ms);
  EXPECT_EQ(gov.usage(), 0u);
}

// --- fault-injector throttle determinism (satellite) -------------------------

TEST(FaultInjectorThrottle, PacesForwardedBytes) {
  // A plain echo server behind a throttled proxy: 64 KiB at 256 KiB/s must
  // take ~250ms to arrive.
  Listener srv(0);
  std::thread echo([&] {
    auto s = srv.accept();
    if (!s) return;
    std::byte buf[4096];
    try {
      for (;;) {
        const size_t n = s->recv_some(buf);
        if (n == 0) break;
        s->send_all(std::span(buf, n));
      }
    } catch (const NetError&) {
    }
  });
  FaultInjector inj(srv.port());
  inj.throttle(256u << 10);
  inj.set_seed(42);

  Socket c = connect_local(inj.port());
  const std::vector<std::byte> chunk(64u << 10, std::byte{0xab});
  const auto t0 = std::chrono::steady_clock::now();
  c.send_all(chunk);
  std::vector<std::byte> back(chunk.size());
  ASSERT_TRUE(c.recv_exact(back));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Nominal 250ms with ±25% seeded jitter: anything under ~120ms means the
  // throttle did not pace at all.
  EXPECT_GE(elapsed, 120ms);
  c.shutdown_both();
  inj.stop();
  srv.close();
  echo.join();
}

TEST(FaultInjectorThrottle, StallWindowPausesForwardingThenRecovers) {
  Listener srv(0);
  std::thread echo([&] {
    auto s = srv.accept();
    if (!s) return;
    std::byte buf[4096];
    try {
      for (;;) {
        const size_t n = s->recv_some(buf);
        if (n == 0) break;
        s->send_all(std::span(buf, n));
      }
    } catch (const NetError&) {
    }
  });
  FaultInjector inj(srv.port());
  Socket c = connect_local(inj.port());

  // Prove the path works, then stall it and show the echo stops flowing
  // for the window and resumes by itself afterwards.
  const std::byte probe[4] = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
  c.send_all(probe);
  std::byte back[4];
  ASSERT_TRUE(c.recv_exact(back));

  inj.stall_reads(300ms);
  EXPECT_TRUE(inj.stalled());
  const auto t0 = std::chrono::steady_clock::now();
  c.send_all(probe);
  ASSERT_TRUE(c.recv_exact(back));  // arrives only after the stall lifts
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 250ms);
  EXPECT_FALSE(inj.stalled());
  c.shutdown_both();
  inj.stop();
  srv.close();
  echo.join();
}

// --- memory-accounting-driven degradation (obs/memacct.h feed) ---------------

TEST(Governor, ExternalBytesDriveTheLadderLikeQueueUsage) {
  GovernorConfig cfg;
  cfg.memory_budget_bytes = 1000;
  obs::MetricsRegistry m;
  Governor g(cfg, /*peers=*/0, m);

  // Pushed component accounting climbs the same rungs as streamed queue
  // usage — deterministic injected readings, no broker needed.
  EXPECT_EQ(g.rung(), 0);
  g.set_external_bytes(500);
  EXPECT_EQ(g.rung(), 1);
  g.set_external_bytes(650);
  EXPECT_EQ(g.rung(), 2);
  g.set_external_bytes(800);
  EXPECT_EQ(g.rung(), 3);
  g.set_external_bytes(950);
  EXPECT_EQ(g.rung(), 4);
  EXPECT_FALSE(g.admit_publish().ok);

  // The ladder input is the SUM: queue usage and external accounting
  // combine, and each re-push is absolute (no accumulation).
  g.set_external_bytes(400);
  EXPECT_EQ(g.rung(), 0);
  g.add_usage(100);
  EXPECT_EQ(g.ladder_bytes(), 500u);
  EXPECT_EQ(g.rung(), 1);
  g.sub_usage(100);
  g.set_external_bytes(0);
  EXPECT_EQ(g.rung(), 0);
  EXPECT_TRUE(g.admit_publish().ok);
}

TEST(Governor, BrokerMemoryAccountingFeedsTheRung) {
  // End to end: a broker with a deliberately tiny memory budget grows its
  // held summary + frozen index past it; refresh_memory_accounting() must
  // push the summed component bytes into the governor and move the rung.
  const Schema s = workload::stock_schema();
  Cluster cluster(s, overlay::Graph(1), core::GeneralizePolicy::kSafe, {}, {},
                  [](BrokerConfig& cfg) {
                    cfg.governor.memory_budget_bytes = 4u << 10;  // 4KB
                  });
  auto& node = cluster.node(0);

  node.refresh_memory_accounting();
  const uint64_t baseline = node.mem_account().governor_external_bytes();
  EXPECT_EQ(node.governor().external_bytes(), baseline);

  // A few hundred distinct subscriptions: the held summary's wire image
  // and the frozen index dwarf the 4KB budget.
  auto client = cluster.connect(0);
  for (int i = 0; i < 300; ++i) {
    client->subscribe(SubscriptionBuilder(s)
                          .where("price", Op::kGt, static_cast<double>(i))
                          .where("volume", Op::kLt, int64_t{1000 + i})
                          .build());
  }
  cluster.run_propagation_period();

  node.refresh_memory_accounting();
  const auto& acct = node.mem_account();
  const uint64_t external = acct.governor_external_bytes();
  EXPECT_GT(external, baseline);
  EXPECT_GT(external, 4096u);
  // The governor sees exactly the account's summed growth components...
  EXPECT_EQ(node.governor().external_bytes(), external);
  EXPECT_GE(node.governor().ladder_bytes(), external);
  // ...and the ladder reacts to it: 4KB budget, tens of KB of summary.
  EXPECT_EQ(node.governor().rung(), 4);
  // The attribution itself is live: summary bytes are the big owner here.
  EXPECT_GT(acct.get(obs::MemComponent::kHeldSummary), 0u);
}

TEST(Governor, DefaultBudgetKeepsAFanoutHeavyOwnerHealthy) {
  // A default-configured line(2): broker 0 owns 20k stock-schema
  // subscriptions generated like fleetbench's fanout_heavy owner filler,
  // broker 1 holds their summary. After a period and a publish (which
  // builds the frozen indexes) each ledger carries the held summary, a
  // delta base or shadow of it and an index, more than 8 MiB (rung 4 on
  // a budget that size). The default budget must leave both brokers
  // healthy and admitting publishes.
  const Schema s = workload::stock_schema();
  Cluster cluster(s, overlay::line(2));
  auto owner = cluster.connect(0);
  workload::SubGenParams sp;
  sp.subsumption = 0.3;
  workload::SubscriptionGenerator gen(s, sp, 12345);
  for (int i = 0; i < 20000; ++i) owner->subscribe(gen.next());
  cluster.run_propagation_period();
  auto other = cluster.connect(1);
  const auto event = EventBuilder(s).set("symbol", "probe").build();
  owner->publish(event);
  other->publish(event);
  for (BrokerId b = 0; b < 2; ++b) {
    auto& node = cluster.node(b);
    node.refresh_memory_accounting();
    EXPECT_GT(node.governor().external_bytes(), uint64_t{8} << 20) << "broker " << b;
    EXPECT_GT(node.mem_account().get(obs::MemComponent::kIndexArenas), 0u) << "broker " << b;
    EXPECT_EQ(node.governor().rung(), 0) << "broker " << b;
  }
  EXPECT_NO_THROW(owner->publish(event));
  EXPECT_NO_THROW(other->publish(event));
}

}  // namespace
}  // namespace subsum::net
