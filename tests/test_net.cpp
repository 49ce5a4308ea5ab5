#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "core/matcher.h"
#include "net/cluster.h"
#include "net/fault_injector.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/promtext.h"
#include "overlay/topologies.h"
#include "sim/system.h"
#include "util/rng.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"
#include "workload/sub_gen.h"

namespace subsum::net {
namespace {

using namespace std::chrono_literals;
using model::EventBuilder;
using model::Op;
using model::Schema;
using model::SubId;
using model::Subscription;
using model::SubscriptionBuilder;
using overlay::BrokerId;

Schema schema_v() { return workload::stock_schema(); }

TEST(Socket, ListenerConnectSendRecv) {
  Listener listener(0);
  ASSERT_GT(listener.port(), 0);
  std::thread server([&] {
    auto s = listener.accept();
    ASSERT_TRUE(s.has_value());
    std::byte buf[5];
    ASSERT_TRUE(s->recv_exact(buf));
    s->send_all(buf);  // echo
  });
  Socket c = connect_local(listener.port());
  const std::byte msg[5] = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
                            std::byte{5}};
  c.send_all(msg);
  std::byte back[5];
  ASSERT_TRUE(c.recv_exact(back));
  EXPECT_TRUE(std::equal(std::begin(msg), std::end(msg), std::begin(back)));
  server.join();
}

TEST(Socket, CleanEofReturnsFalse) {
  Listener listener(0);
  std::thread server([&] {
    auto s = listener.accept();
    ASSERT_TRUE(s.has_value());
    // Close immediately.
  });
  Socket c = connect_local(listener.port());
  server.join();
  std::byte buf[1];
  EXPECT_FALSE(c.recv_exact(buf));
}

TEST(Socket, ConnectRefusedThrows) {
  // Grab a port, then close it so nothing is listening.
  uint16_t dead_port;
  {
    Listener l(0);
    dead_port = l.port();
  }
  EXPECT_THROW(connect_local(dead_port), NetError);
}

TEST(Framing, RoundTrip) {
  Listener listener(0);
  std::thread server([&] {
    auto s = listener.accept();
    ASSERT_TRUE(s.has_value());
    auto f = recv_frame(*s);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, MsgKind::kPublish);
    send_frame(*s, MsgKind::kPublishAck, f->payload);
  });
  Socket c = connect_local(listener.port());
  const std::vector<std::byte> payload = {std::byte{9}, std::byte{8}};
  send_frame(c, MsgKind::kPublish, payload);
  auto reply = recv_frame(c);
  server.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, MsgKind::kPublishAck);
  EXPECT_EQ(reply->payload, payload);
}

TEST(Framing, EmptyPayloadAndEof) {
  Listener listener(0);
  std::thread server([&] {
    auto s = listener.accept();
    ASSERT_TRUE(s.has_value());
    auto f = recv_frame(*s);
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(f->payload.empty());
    EXPECT_FALSE(recv_frame(*s).has_value());  // clean EOF after close
  });
  {
    Socket c = connect_local(listener.port());
    send_frame(c, MsgKind::kStats, {});
  }
  server.join();
}

TEST(Protocol, EventRoundTrip) {
  const Schema s = schema_v();
  const auto e = EventBuilder(s)
                     .set("price", 8.40)
                     .set("symbol", "OTE")
                     .set("volume", int64_t{132700})
                     .build();
  util::BufWriter w;
  put_event(w, e);
  util::BufReader r(w.bytes());
  EXPECT_EQ(get_event(r, s), e);
}

TEST(Protocol, SubscriptionRoundTrip) {
  const Schema s = schema_v();
  const auto sub = SubscriptionBuilder(s)
                       .where("price", Op::kGt, 8.30)
                       .where("price", Op::kLt, 8.70)
                       .where("symbol", Op::kPrefix, "OT")
                       .build();
  util::BufWriter w;
  put_subscription(w, sub);
  util::BufReader r(w.bytes());
  EXPECT_EQ(get_subscription(r, s), sub);
}

TEST(Protocol, SubIdRoundTrip) {
  util::BufWriter w;
  const SubId id{23, 999999, 0x3FF};
  put_sub_id(w, id);
  util::BufReader r(w.bytes());
  EXPECT_EQ(get_sub_id(r), id);
}

TEST(Protocol, RejectsUnknownAttributes) {
  const Schema s = schema_v();
  util::BufWriter w;
  w.put_varint(1);
  w.put_varint(99);  // bogus attribute id
  w.put_i64(1);
  util::BufReader r(w.bytes());
  EXPECT_THROW(get_event(r, s), util::DecodeError);
}

TEST(Protocol, BitmapHelpers) {
  auto bm = routing::make_bitmap(13);
  EXPECT_EQ(bm.size(), 2u);
  EXPECT_EQ(routing::bitmap_count(bm, 13), 0u);
  for (size_t i = 0; i < 13; ++i) {
    EXPECT_FALSE(routing::bitmap_get(bm, i));
    routing::bitmap_set(bm, i);
    EXPECT_TRUE(routing::bitmap_get(bm, i));
    EXPECT_EQ(routing::bitmap_count(bm, 13), i + 1);
  }
}

TEST(Protocol, MessageRoundTrips) {
  const Schema s = schema_v();
  const auto e = EventBuilder(s).set("price", 1.5).build();

  SummaryMsg sm;
  sm.from = 7;
  sm.merged_brokers = {1, 2, 7};
  sm.removals = {SubId{1, 2, 3}};
  sm.summary = {std::byte{0xAA}, std::byte{0xBB}};
  const auto sm2 = decode_summary_msg(encode(sm));
  EXPECT_EQ(sm2.from, sm.from);
  EXPECT_EQ(sm2.merged_brokers, sm.merged_brokers);
  EXPECT_EQ(sm2.removals, sm.removals);
  EXPECT_EQ(sm2.summary, sm.summary);

  EventMsg em;
  em.origin = 3;
  em.seq = 42;
  em.brocli = routing::make_bitmap(24);
  routing::bitmap_set(em.brocli, 5);
  em.event = e;
  const auto em2 = decode_event_msg(encode(em, s), s);
  EXPECT_EQ(em2.origin, 3u);
  EXPECT_EQ(em2.seq, 42u);
  EXPECT_TRUE(routing::bitmap_get(em2.brocli, 5));
  EXPECT_EQ(em2.event, e);

  DeliverMsg dm{9, {SubId{9, 1, 4}}, e};
  const auto dm2 = decode_deliver_msg(encode(dm, s), s);
  EXPECT_EQ(dm2.examined_at, 9u);
  EXPECT_EQ(dm2.ids, dm.ids);
  EXPECT_EQ(dm2.event, e);

  const auto tm = decode_trigger_msg(encode(TriggerMsg{4}));
  EXPECT_EQ(tm.iteration, 4u);
}

// ---------------------------------------------------------------------------
// Live broker tests
// ---------------------------------------------------------------------------

TEST(BrokerNode, SubscribePublishNotifySingleBroker) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1));
  auto client = cluster.connect(0);

  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "OTE").build();
  const SubId id = client->subscribe(sub);
  EXPECT_EQ(id.broker, 0u);
  EXPECT_EQ(id.local, 0u);

  client->publish(EventBuilder(s).set("symbol", "OTE").set("price", 8.4).build());
  const auto note = client->next_notification(2000ms);
  ASSERT_TRUE(note.has_value());
  EXPECT_EQ(note->ids, std::vector<SubId>{id});
  ASSERT_NE(note->event.find(s.id_of("price")), nullptr);

  // Non-matching publish produces no notification.
  client->publish(EventBuilder(s).set("symbol", "X").build());
  EXPECT_FALSE(client->next_notification(100ms).has_value());
}

TEST(BrokerNode, UnsubscribeStopsNotifications) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1));
  auto client = cluster.connect(0);
  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build();
  const SubId id = client->subscribe(sub);
  client->unsubscribe(id);
  client->publish(EventBuilder(s).set("symbol", "A").build());
  EXPECT_FALSE(client->next_notification(100ms).has_value());
}

// An unsubscribe names its subscription by id, and only the id's home
// broker may act on it. Another broker acks it and changes nothing: not the
// subscriber of its own subscription with the same local id, ...
TEST(BrokerNode, UnsubscribeOfForeignIdKeepsLocalSubscriber) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2));
  auto client = cluster.connect(0);
  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build();
  const SubId id = client->subscribe(sub);
  client->unsubscribe(SubId{1, id.local, id.attrs});
  client->publish(EventBuilder(s).set("symbol", "A").build());
  const auto note = client->next_notification(2000ms);
  ASSERT_TRUE(note.has_value());
  EXPECT_EQ(note->ids, std::vector<SubId>{id});
}

// ... nor the summary rows it holds for the owner's subscription.
TEST(BrokerNode, UnsubscribeOfPeerSubscriptionKeepsItRouted) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2));
  auto owner = cluster.connect(1);
  auto other = cluster.connect(0);
  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build();
  const SubId id = owner->subscribe(sub);
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  other->unsubscribe(id);
  for (int period = 0; period < 3; ++period) {
    other->publish(EventBuilder(s).set("symbol", "A").build());
    const auto note = owner->next_notification(2000ms);
    ASSERT_TRUE(note.has_value()) << "period " << period;
    EXPECT_EQ(note->ids, std::vector<SubId>{id});
    ASSERT_TRUE(cluster.run_propagation_period().complete());
  }
}

// A reconnecting client re-attaches its ids on a new connection while the
// old one may still be half open. When the old connection finally closes,
// it must not unbind the ids the new connection took over.
TEST(BrokerNode, ClosingOldConnectionKeepsReattachedBinding) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1));
  auto old_conn = cluster.connect(0);
  auto publisher = cluster.connect(0);
  const SubId id =
      old_conn->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build());

  Socket fresh = connect_local(cluster.port_of(0), 500ms);
  fresh.set_recv_timeout(2000ms);
  send_frame(fresh, MsgKind::kAttach, encode(AttachMsg{{id}}));
  const auto ack = recv_frame(fresh);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->kind, MsgKind::kAttachAck);

  // A handler thread takes its connection's governor slot asynchronously
  // (the publisher has made no RPC yet): sample the count only once all
  // three connections hold one.
  const auto admitted_by = std::chrono::steady_clock::now() + 5s;
  while (cluster.node(0).governor().connections() < 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), admitted_by) << "connections never admitted";
    std::this_thread::sleep_for(5ms);
  }
  const uint64_t before = cluster.node(0).governor().connections();
  old_conn.reset();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.node(0).governor().connections() >= before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "old connection never closed";
    std::this_thread::sleep_for(5ms);
  }

  publisher->publish(EventBuilder(s).set("symbol", "A").build());
  const auto note = recv_frame(fresh);
  ASSERT_TRUE(note.has_value());
  ASSERT_EQ(note->kind, MsgKind::kNotify);
  EXPECT_EQ(decode_notify_msg(note->payload, s).ids, std::vector<SubId>{id});
}

// stop() races a connection accepted just before it: the handler must not
// register (and then block on) a connection stop() has already swept.
TEST(BrokerNode, StopNeverHangsOnConnectionAcceptedDuringStop) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::Graph(1));
  for (int i = 0; i < 200; ++i) {
    auto client = cluster.connect(0);
    cluster.kill(0);
    cluster.restart(0);
  }
  auto client = cluster.connect(0);
  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build();
  EXPECT_EQ(client->subscribe(sub).broker, 0u);
}

// The owner re-filters every delivered candidate against its exact home
// table, so summary precision is counted there, on every delivery: ids
// delivered are the candidates, ids the re-filter kept are the exact ones.
TEST(BrokerNode, QualityCountersCountEveryDeliveryAtTheOwner) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "telemetry compiled out (SUBSUM_NO_TELEMETRY)";
#endif
  const Schema s = schema_v();
  const auto symbol = s.id_of("symbol");
  Cluster cluster(s, overlay::line(2), core::GeneralizePolicy::kAggressive);
  auto subscriber = cluster.connect(1);
  auto publisher = cluster.connect(0);

  // Skewed string equalities and prefixes under aggressive generalization
  // (the reduced ablation-(c) workload): the summary trades rows for
  // false positives.
  core::NaiveMatcher exact;
  util::Rng rng(31);
  for (int i = 0; i < 300; ++i) {
    const std::string k = "s" + std::to_string(rng.below(16));
    const double roll = rng.uniform01();
    Subscription sub =
        roll < 0.6   ? SubscriptionBuilder(s)
                         .where(symbol, Op::kEq, k + "-" + std::to_string(rng.below(40)))
                         .build()
        : roll < 0.9 ? SubscriptionBuilder(s).where(symbol, Op::kPrefix, k).build()
                     : SubscriptionBuilder(s).where(symbol, Op::kNe, k + "-0").build();
    const SubId id = subscriber->subscribe(sub);
    exact.add({id, std::move(sub)});
  }
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  // Broker 0 examines every event and delivers broker 1's candidates.
  const core::BrokerSummary walked = cluster.node(0).held_summary();

  uint64_t candidates = 0, notified = 0;
  for (int i = 0; i < 40; ++i) {
    const auto e = EventBuilder(s)
                       .set(symbol, "s" + std::to_string(rng.below(16)) + "-" +
                                        std::to_string(rng.below(40)))
                       .build();
    for (const SubId& id : core::match(walked, e)) candidates += id.broker == 1 ? 1 : 0;
    publisher->publish(e);
    const size_t want = exact.match(e).size();
    size_t got = 0;
    while (got < want) {
      const auto note = subscriber->next_notification(2000ms);
      ASSERT_TRUE(note.has_value()) << "event " << i;
      got += note->ids.size();
    }
    notified += got;
  }
  for (const auto& note : subscriber->drain_notifications()) notified += note.ids.size();

  ASSERT_GT(candidates, notified);  // the summary really over-approximates
  const auto& owner = cluster.node(1).metrics();
  EXPECT_EQ(owner.counter_value("subsum_quality_candidate_ids_total"), candidates);
  EXPECT_EQ(owner.counter_value("subsum_quality_exact_ids_total"), notified);
  EXPECT_EQ(owner.counter_value("subsum_summary_false_positive_ids_total"),
            candidates - notified);
  // The walking broker owns nothing, so it counts nothing.
  EXPECT_EQ(cluster.node(0).metrics().counter_value("subsum_quality_candidate_ids_total"), 0u);
}

// The summary gauges are computed by the scrape itself, so each scrape
// describes the held summary as it is then.
TEST(BrokerNode, ScrapeReportsTheCurrentSummary) {
#ifdef SUBSUM_NO_TELEMETRY
  GTEST_SKIP() << "telemetry compiled out (SUBSUM_NO_TELEMETRY)";
#endif
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2));
  auto c0 = cluster.connect(0);
  auto c1 = cluster.connect(1);
  // Returns (wire bytes, rows) after checking both against the node.
  const auto scrape = [&] {
    const auto samples = obs::parse_prometheus_text(c0->stats_text());
    const core::BrokerSummary held = cluster.node(0).held_summary();
    std::optional<double> wire;
    for (const auto& sm : samples) {
      if (sm.name == "subsum_summary_wire_bytes" && sm.labels.empty()) wire = sm.value;
    }
    EXPECT_TRUE(wire.has_value());
    EXPECT_EQ(wire.value_or(-1), static_cast<double>(cluster.node(0).snapshot().held_wire_bytes));
    size_t total_rows = 0;
    for (model::AttrId a = 0; a < s.attr_count(); ++a) {
      const size_t rows = model::is_arithmetic(s.type_of(a)) ? held.aacs(a).pieces().size()
                                                             : held.sacs(a).rows().size();
      total_rows += rows;
      std::optional<double> reported;
      for (const auto& sm : samples) {
        const std::string* attr = sm.label("attr");
        if (sm.name == "subsum_summary_row_ids_count" && attr && *attr == s.spec(a).name) {
          reported = sm.value;
        }
      }
      EXPECT_EQ(reported.value_or(-1), static_cast<double>(rows)) << s.spec(a).name;
    }
    return std::make_pair(wire.value_or(0), total_rows);
  };

  c0->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build());
  c1->subscribe(SubscriptionBuilder(s).where("price", Op::kGt, 10.0).build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  const auto first = scrape();

  c0->subscribe(SubscriptionBuilder(s).where("symbol", Op::kPrefix, "B").build());
  c1->subscribe(SubscriptionBuilder(s)
                    .where("price", Op::kLt, 5.0)
                    .where("volume", Op::kGe, int64_t{100})
                    .build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  const auto second = scrape();
  EXPECT_GT(second.first, first.first);
  EXPECT_GT(second.second, first.second);
}

// Algorithm 2 gives a sink (no neighbor of equal or higher degree) no send
// target, so a sink never announces and its own removals have nowhere to
// go: its own iteration drops its queue. On fig 7 the sinks are 4, 7 and
// 10; leaf 12 sends to 10 every period, which drains its queue. On CW-24,
// broker 17 is no sink, but its one neighbor of equal degree (12) sends to
// it first every period, so 17 never gets a target either: its queue is
// dropped at its own iteration.
TEST(BrokerNode, SinkNeverQueuesRemovals) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::fig7_tree());
  const std::vector<BrokerId> sinks = {4, 7, 10};
  const BrokerId leaf = 12;
  std::map<BrokerId, std::unique_ptr<Client>> clients;
  for (const BrokerId b : {BrokerId{4}, BrokerId{7}, BrokerId{10}, leaf}) {
    clients[b] = cluster.connect(b);
  }
  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build();
  for (int period = 0; period < 4; ++period) {
    SCOPED_TRACE("period " + std::to_string(period));
    for (auto& [b, c] : clients) {
      for (int i = 0; i < 5; ++i) c->unsubscribe(c->subscribe(sub));
    }
    EXPECT_EQ(cluster.node(leaf).snapshot().pending_removals, 5u);
    ASSERT_TRUE(cluster.run_propagation_period().complete());
    for (const BrokerId b : sinks) EXPECT_EQ(cluster.node(b).snapshot().pending_removals, 0u);
    EXPECT_EQ(cluster.node(leaf).snapshot().pending_removals, 0u);
  }

  Cluster cw24(s, overlay::cable_wireless_24());
  std::vector<std::unique_ptr<Client>> cw_clients;
  for (BrokerId b = 0; b < cw24.size(); ++b) cw_clients.push_back(cw24.connect(b));
  for (int period = 0; period < 3; ++period) {
    SCOPED_TRACE("CW-24 period " + std::to_string(period));
    for (auto& c : cw_clients) {
      for (int i = 0; i < 5; ++i) c->unsubscribe(c->subscribe(sub));
    }
    ASSERT_TRUE(cw24.run_propagation_period().complete());
    for (BrokerId b = 0; b < cw24.size(); ++b) {
      EXPECT_EQ(cw24.node(b).snapshot().pending_removals, 0u) << "broker " << b;
    }
  }
}

// A dead send target no longer grows the removal queue with every
// unsubscribe: past the cap the queue is dropped. No removal is lost for
// it: the link's acked base still holds the ids, so once the link heals
// the next delta's row edits take them out of the receiver's shadow, and
// its period rebuild out of its held summary. On line(2) broker 1 also
// announces to broker 0 and so echoes broker 0's own ids back; broker 0's
// rebuild must not take them from that echo.
TEST(BrokerNode, RemovalQueueIsBoundedBehindADeadTarget) {
  const Schema s = schema_v();
  RpcPolicy rpc;
  rpc.connect_timeout = 250ms;
  rpc.io_timeout = 500ms;
  rpc.backoff = {5ms, 20ms, 1};
  Cluster cluster(s, overlay::line(2), core::GeneralizePolicy::kSafe, rpc);
  auto client = cluster.connect(0);
  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "gone").build();
  const size_t n = BrokerNode::kMaxPendingRemovals + 8;
  std::vector<SubId> ids;
  for (size_t i = 0; i < n; ++i) ids.push_back(client->subscribe(sub));
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  const auto event = EventBuilder(s).set("symbol", "gone").build();
  ASSERT_EQ(core::match_reference(cluster.node(1).held_summary(), event).size(), n);

  // Broker 0's only send target goes dark; every subscription leaves in
  // one period.
  FaultInjector inj(cluster.port_of(1));
  inj.set_mode(FaultInjector::Mode::kBlackhole);
  cluster.node(0).set_peer_ports({cluster.port_of(0), inj.port()});
  for (const SubId& id : ids) client->unsubscribe(id);
  for (int period = 0; period < 2; ++period) {
    ASSERT_TRUE(cluster.run_propagation_period().complete());
    EXPECT_LE(cluster.node(0).snapshot().pending_removals, BrokerNode::kMaxPendingRemovals);
  }

  cluster.node(0).set_peer_ports({cluster.port_of(0), cluster.port_of(1)});
  for (int period = 0; period < 2; ++period) {
    ASSERT_TRUE(cluster.run_propagation_period().complete());
  }
  EXPECT_EQ(cluster.node(1).shadow_digests().at(0), cluster.node(0).held_digest());
  const auto hit = core::match_reference(cluster.node(1).held_summary(), event);
  for (const SubId& id : ids) {
    ASSERT_EQ(std::count(hit.begin(), hit.end(), id), 0) << id.to_string();
  }
}

// A peer that acked a base gets a delta, however small the summary: no
// size test swaps it for the full image.
TEST(BrokerNode, DeltaSentWheneverBaseIsAcked) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2));
  auto client = cluster.connect(0);
  int next_symbol = 0;
  const auto subscribe = [&](int n) {
    for (int i = 0; i < n; ++i) {
      client->subscribe(SubscriptionBuilder(s)
                            .where("symbol", Op::kEq, "s" + std::to_string(next_symbol++))
                            .build());
    }
  };
  subscribe(2);
  ASSERT_TRUE(cluster.run_propagation_period().complete());  // first contact: full
  const auto& m = cluster.node(0).metrics();
  [[maybe_unused]] const uint64_t deltas = m.counter_value("subsum_summary_delta_sends_total");
  [[maybe_unused]] const uint64_t fulls = m.counter_value("subsum_summary_full_sends_total");
  subscribe(10);
  ASSERT_TRUE(cluster.run_propagation_period().complete());
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_EQ(m.counter_value("subsum_summary_delta_sends_total"), deltas + 1);
  EXPECT_EQ(m.counter_value("subsum_summary_full_sends_total"), fulls);
#endif
  EXPECT_EQ(cluster.node(1).shadow_digests().at(0), cluster.node(0).held_digest());
}

// A restarted receiver holds no shadow, so it refuses the next delta from
// each sender (kNeedFull). The sender answers with its full image in the
// same trigger, carrying the delta's removals: the receiver drops a removed
// id in the period that announces the removal, even though the summary it
// recovered from its snapshot still held the id.
TEST(BrokerNode, RefusedDeltaIsRepairedWithItsRemovals) {
  const Schema s = schema_v();
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "subsum_net/" + info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Cluster cluster(s, overlay::star(3), core::GeneralizePolicy::kSafe, {}, dir,
                  [](BrokerConfig& cfg) { cfg.snapshot_wal_threshold = 1; });
  std::vector<std::unique_ptr<Client>> leaves;
  for (BrokerId b : {BrokerId{1}, BrokerId{2}}) {
    leaves.push_back(cluster.connect(b));
    for (int i = 0; i < 50; ++i) {
      leaves.back()->subscribe(
          SubscriptionBuilder(s)
              .where("symbol", Op::kEq, "b" + std::to_string(b) + "-" + std::to_string(i))
              .build());
    }
  }
  const SubId x =
      leaves[1]->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "X").build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  // One subscription at the centre writes a snapshot, which holds the
  // leaves' rows as well.
  cluster.connect(0)->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "c").build());
  cluster.kill(0);
  cluster.restart(0);

  const auto x_event = EventBuilder(s).set("symbol", "X").build();
  const auto centre_holds_x = [&] {
    const auto ids = core::match(cluster.node(0).held_summary(), x_event);
    return std::find(ids.begin(), ids.end(), x) != ids.end();
  };
  ASSERT_TRUE(centre_holds_x());
  leaves[1]->unsubscribe(x);
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  EXPECT_FALSE(centre_holds_x());
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_EQ(cluster.node(0).metrics().counter_value("subsum_summary_sync_total"), 0u);
  for (BrokerId b : {BrokerId{1}, BrokerId{2}}) {
    EXPECT_EQ(cluster.node(b).metrics().counter_value("subsum_summary_sync_total"), 1u)
        << "leaf " << b;
  }
#endif
  for (BrokerId b : {BrokerId{1}, BrokerId{2}}) {
    EXPECT_EQ(cluster.node(0).shadow_digests().at(b), cluster.node(b).held_digest());
  }
}

// Every trigger, announcement and walk hop arrives on a fresh connection
// with its own handler thread. The broker joins finished handlers as it
// runs, not only at stop(): an unjoined thread keeps its stack mapped.
TEST(BrokerNode, FinishedHandlerThreadsAreReaped) {
  const auto maps_lines = [] {
    std::ifstream maps("/proc/self/maps");
    size_t n = 0;
    for (std::string line; std::getline(maps, line);) ++n;
    return n;
  };
  if (maps_lines() == 0) GTEST_SKIP() << "no /proc/self/maps";
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2));
  auto client = cluster.connect(0);
  client->subscribe(SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  const size_t before = maps_lines();
  for (int period = 0; period < 200; ++period) {
    ASSERT_TRUE(cluster.run_propagation_period().complete());
  }
  EXPECT_LT(maps_lines(), before + 200);
}

// The period clock sends iteration 1 to every broker, which starts its
// period, and iteration i >= 2 only to the brokers of degree i, the only
// ones it makes act. Fake brokers count the kTrigger frames of one period.
TEST(Cluster, PeriodClockTriggersOnlyBrokersThatAct) {
  for (const overlay::Graph& g : {overlay::fig7_tree(), overlay::cable_wireless_24()}) {
    SCOPED_TRACE(std::to_string(g.size()) + " brokers");
    struct FakeBroker {
      Listener listener{0};
      std::atomic<int> triggers{0};
      std::thread thread;
    };
    std::vector<std::unique_ptr<FakeBroker>> fakes;
    std::vector<uint16_t> ports;
    for (BrokerId b = 0; b < g.size(); ++b) {
      auto& f = *fakes.emplace_back(std::make_unique<FakeBroker>());
      ports.push_back(f.listener.port());
      f.thread = std::thread([&f] {
        while (auto conn = f.listener.accept()) {
          try {
            while (const auto frame = recv_frame(*conn)) {
              if (frame->kind != MsgKind::kTrigger) break;
              ++f.triggers;
              send_frame(*conn, MsgKind::kTriggerAck, {});
            }
          } catch (const NetError&) {
            // The controller hung up mid-frame; serve its next connection.
          }
        }
      });
    }
    EXPECT_TRUE(clock_propagation_period(g, ports, RpcPolicy{}).complete());
    for (auto& f : fakes) {
      f->listener.close();
      f->thread.join();
    }
    for (BrokerId b = 0; b < g.size(); ++b) {
      EXPECT_EQ(fakes[b]->triggers.load(), g.degree(b) == 1 ? 1 : 2) << "broker " << b;
    }
  }
}

TEST(Cluster, Fig7EndToEndOverTcp) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::fig7_tree());

  // Paper example 3: brokers 4, 8, 13 (nodes 3, 7, 12) subscribe.
  auto c3 = cluster.connect(3);
  auto c7 = cluster.connect(7);
  auto c12 = cluster.connect(12);
  auto publisher = cluster.connect(0);

  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "evt").build();
  const SubId id3 = c3->subscribe(sub);
  const SubId id7 = c7->subscribe(sub);
  const SubId id12 = c12->subscribe(sub);

  cluster.run_propagation_period();

  // Propagation left broker 4 (paper broker 5) knowing brokers 0-5.
  EXPECT_EQ(cluster.node(4).snapshot().merged_brokers, 6u);
  EXPECT_EQ(cluster.node(7).snapshot().merged_brokers, 4u);
  EXPECT_EQ(cluster.node(10).snapshot().merged_brokers, 3u);

  publisher->publish(EventBuilder(s).set("symbol", "evt").build());

  const auto n3 = c3->next_notification(2000ms);
  const auto n7 = c7->next_notification(2000ms);
  const auto n12 = c12->next_notification(2000ms);
  ASSERT_TRUE(n3 && n7 && n12);
  EXPECT_EQ(n3->ids, std::vector<SubId>{id3});
  EXPECT_EQ(n7->ids, std::vector<SubId>{id7});
  EXPECT_EQ(n12->ids, std::vector<SubId>{id12});

  // Exactly-once: no further notifications anywhere.
  EXPECT_FALSE(c3->next_notification(100ms).has_value());
  EXPECT_FALSE(c7->next_notification(100ms).has_value());
  EXPECT_FALSE(c12->next_notification(100ms).has_value());
}

// Differential test of the two substrates: one workload of subscribes,
// publishes, unsubscribes and lease expiries replayed through SimSystem and
// a TCP Cluster, which share their routing code (routing::examine/next_hop/
// send_target) and their home state (core::HomeTable: c2 allocation,
// leases, refilter). Per publish it compares the delivered sets and,
// where telemetry is compiled in, the walk's visit order (followed through
// the kForward spans every broker logs) and the summed subsum_walk_*
// counters against the sim's RouteResult. The controller triggers brokers
// one at a time in id order, which is the sim's immediate delivery. line(2)
// is left out: there each broker clears its pairing state at its own
// iteration-1 trigger, so the Merged_Brokers sets differ.
TEST(Cluster, TcpMatchesSimSystemOnRandomWorkload) {
#ifdef SUBSUM_NO_TELEMETRY
  constexpr bool kTelemetry = false;
#else
  constexpr bool kTelemetry = true;
#endif
  const Schema s = schema_v();
  // In RouteResult order: walks, visited, forward_hops, delivery_hops,
  // skipped, undeliverable.
  const std::vector<std::string> kWalkCounters = {
      "subsum_walk_total",
      "subsum_walk_visits_total",
      "subsum_walk_forward_hops_total",
      "subsum_walk_delivery_hops_total",
      "subsum_walk_reselects_total",
      "subsum_walk_undeliverable_total",
  };
  for (const auto& g : {overlay::fig7_tree(), overlay::cable_wireless_24()}) {
    SCOPED_TRACE("brokers: " + std::to_string(g.size()));
    Cluster cluster(s, g);
    sim::SystemConfig sim_cfg;
    sim_cfg.schema = s;
    sim_cfg.graph = g;
    sim_cfg.propagation.immediate_delivery = true;
    sim::SimSystem sim(sim_cfg);

    workload::SubGenParams sp;
    sp.subsumption = 0.5;
    workload::SubscriptionGenerator gen(s, sp, 2024);
    workload::EventGenerator events(s, gen.pools(), {}, 2025);
    util::Rng rng(2026);

    std::vector<std::unique_ptr<Client>> clients;
    for (BrokerId b = 0; b < g.size(); ++b) clients.push_back(cluster.connect(b));
    const auto tcp_walk_counters = [&] {
      std::vector<uint64_t> sum(kWalkCounters.size(), 0);
      for (BrokerId b = 0; b < g.size(); ++b) {
        for (size_t c = 0; c < sum.size(); ++c) {
          sum[c] += cluster.node(b).metrics().counter_value(kWalkCounters[c]);
        }
      }
      return sum;
    };
    const auto both_periods = [&](int periods) {
      for (int p = 0; p < periods; ++p) {
        ASSERT_TRUE(cluster.run_propagation_period().complete());
        sim.run_propagation_period();
      }
    };

    const auto tcp_home_totals = [&] {
      std::pair<size_t, size_t> subs_and_leases;
      for (BrokerId b = 0; b < g.size(); ++b) {
        const auto snap = cluster.node(b).snapshot();
        subs_and_leases.first += snap.local_subs;
        subs_and_leases.second += snap.active_leases;
      }
      return subs_and_leases;
    };

    // Every fifth subscription carries a two-period lease in both
    // substrates: live through the first round, expired at the first
    // churn period.
    const auto leased = [](size_t i) { return i % 5 == 4; };
    std::vector<std::pair<SubId, Subscription>> live;
    for (size_t i = 0; i < 80; ++i) {
      const auto home = static_cast<BrokerId>(rng.below(g.size()));
      const Subscription sub = gen.next();
      const uint32_t lease = leased(i) ? 2 : 0;
      const SubId tcp_id = clients[home]->subscribe(sub, lease);
      const SubId sim_id = sim.subscribe(home, sub, lease);
      ASSERT_EQ(tcp_id, sim_id);
      live.emplace_back(sim_id, sub);
    }
    both_periods(1);
    EXPECT_EQ(tcp_home_totals(), std::make_pair(size_t{80}, size_t{16}));

    const auto publish_round = [&](const char* phase) {
      for (int i = 0; i < 30; ++i) {
        SCOPED_TRACE(std::string(phase) + " event " + std::to_string(i));
        // Half the events are built to match a live subscription, so the
        // walks deliver; the rest come from the generator.
        std::optional<model::Event> built;
        if (i % 2 == 0) {
          built = workload::matching_event(s, live[rng.below(live.size())].second);
        }
        const model::Event e = built ? *built : events.next();
        const auto origin = static_cast<BrokerId>(rng.below(g.size()));
        const auto counters_before = tcp_walk_counters();
        const uint64_t trace = clients[origin]->publish(e);
        const auto expected = sim.publish(origin, e);

        // publish() is synchronous end-to-end, so every notification was
        // written before it returned. Block only where something is
        // expected; drain the rest to catch spurious extras.
        std::map<BrokerId, size_t> expected_per_owner;
        for (const auto& id : expected.delivered) ++expected_per_owner[id.broker];
        std::vector<SubId> tcp_ids;
        for (const auto& [owner, want] : expected_per_owner) {
          size_t got = 0;
          while (got < want) {
            auto note = clients[owner]->next_notification(2000ms);
            ASSERT_TRUE(note.has_value()) << "missing notification at broker " << owner;
            for (const auto& id : note->ids) tcp_ids.push_back(id);
            got += note->ids.size();
          }
        }
        for (auto& c : clients) {
          for (const auto& note : c->drain_notifications()) {
            for (const auto& id : note.ids) tcp_ids.push_back(id);
          }
        }
        std::sort(tcp_ids.begin(), tcp_ids.end());
        EXPECT_EQ(tcp_ids, expected.delivered);
        if (!kTelemetry) continue;

        const auto counters_after = tcp_walk_counters();
        const std::vector<uint64_t> sim_counts = {
            1,
            expected.route.visited.size(),
            expected.route.forward_hops,
            expected.route.delivery_hops,
            expected.route.skipped.size(),
            expected.route.undeliverable.size()};
        for (size_t c = 0; c < kWalkCounters.size(); ++c) {
          EXPECT_EQ(counters_after[c] - counters_before[c], sim_counts[c]) << kWalkCounters[c];
        }
        std::map<uint32_t, uint32_t> forwarded_to;
        for (BrokerId b = 0; b < g.size(); ++b) {
          for (const auto& span : clients[b]->fetch_trace(trace)) {
            if (span.phase == obs::Phase::kForward) forwarded_to[span.broker] = span.peer;
          }
        }
        std::vector<BrokerId> visited = {origin};
        while (visited.size() <= g.size() && forwarded_to.contains(visited.back())) {
          visited.push_back(forwarded_to.at(visited.back()));
        }
        EXPECT_EQ(visited, expected.route.visited);
      }
    };
    publish_round("before churn");

    // Churn: every third subscription leaves, and the remaining leased
    // ones expire at the first period below. TCP removals reach brokers
    // beyond the first neighbor a period after the sim's global removal,
    // so both substrates run two periods before the second round.
    std::vector<std::pair<SubId, Subscription>> kept;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i % 3 == 0) {
        clients[live[i].first.broker]->unsubscribe(live[i].first);
        sim.unsubscribe(live[i].first);
      } else if (!leased(i)) {
        kept.push_back(live[i]);
      }
    }
    live = std::move(kept);
    both_periods(2);
    EXPECT_EQ(tcp_home_totals(), std::make_pair(live.size(), size_t{0}));
    if (kTelemetry) {
      uint64_t tcp_expired = 0;
      for (BrokerId b = 0; b < g.size(); ++b) {
        tcp_expired += cluster.node(b).metrics().counter_value("subsum_lease_expired_total");
      }
      EXPECT_EQ(tcp_expired, 11u);
      EXPECT_EQ(sim.metrics().counter_value("subsum_lease_expired_total"), 11u);
    }
    publish_round("after churn");
  }
}

TEST(Cluster, SnapshotReflectsSubscriptions) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2));
  auto client = cluster.connect(0);
  const auto sub = SubscriptionBuilder(s).where("price", Op::kGt, 1.0).build();
  client->subscribe(sub);
  client->subscribe(sub);
  const auto snap = cluster.node(0).snapshot();
  EXPECT_EQ(snap.local_subs, 2u);
  EXPECT_GT(snap.held_wire_bytes, 0u);
}

TEST(Cluster, ClientConnectionDropIsTolerated) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2));
  {
    auto doomed = cluster.connect(0);
    const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "A").build();
    doomed->subscribe(sub);
  }  // client closes; its subscription's notifications go nowhere
  auto publisher = cluster.connect(1);
  cluster.run_propagation_period();
  // Publishing must not crash or hang even though the subscriber is gone.
  publisher->publish(EventBuilder(s).set("symbol", "A").build());
  const auto snap = cluster.node(0).snapshot();
  EXPECT_EQ(snap.local_subs, 1u);
}

}  // namespace
}  // namespace subsum::net
