// Partial-frame property test across ALL frame kinds: a valid frame
// truncated at any byte offset — or a full-length frame of junk, or a list
// count far beyond its payload — must never crash the broker or mutate
// its state. Extends the kSummary-only integrity tests in test_fault.cpp
// to the whole protocol surface.
#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "net/cluster.h"
#include "overlay/topologies.h"
#include "util/bytes.h"
#include "workload/stock_schema.h"

namespace subsum::net {
namespace {

using namespace std::chrono_literals;
using model::EventBuilder;
using model::Op;
using model::Schema;
using model::SubId;
using model::SubscriptionBuilder;

Schema schema_v() { return workload::stock_schema(); }

RpcPolicy tight_policy() {
  RpcPolicy p;
  p.connect_timeout = 250ms;
  p.io_timeout = 1000ms;
  p.backoff = {5ms, 40ms, 2};
  return p;
}

/// connect_local with a few retries: the test opens hundreds of
/// connections in a tight loop, which can transiently fill the accept
/// backlog.
Socket connect_patiently(uint16_t port) {
  for (int attempt = 0;; ++attempt) {
    try {
      return connect_local(port, 500ms);
    } catch (const NetError&) {
      if (attempt >= 20) throw;
      std::this_thread::sleep_for(20ms);
    }
  }
}

/// One complete wire frame: u32 len | u8 kind | payload.
std::vector<std::byte> wire_frame(MsgKind kind, std::span<const std::byte> payload) {
  util::BufWriter w;
  w.put_u32(static_cast<uint32_t>(payload.size()));
  w.put_u8(static_cast<uint8_t>(kind));
  w.put_bytes(payload);
  return std::move(w).take();
}

/// A structurally valid payload for every kind the broker can receive.
/// Acks and kNotify are client-bound; the broker treats them as unknown,
/// which must be just as harmless.
std::vector<std::pair<MsgKind, std::vector<std::byte>>> valid_payloads(
    const Schema& s, size_t brokers) {
  const auto sub = SubscriptionBuilder(s).where("symbol", Op::kEq, "probe").build();
  const auto event = EventBuilder(s).set("symbol", "probe").build();
  const SubId id{1, 0, sub.mask()};
  const core::WireConfig wire{
      model::SubIdCodec(static_cast<uint32_t>(brokers), uint64_t{1} << 20,
                        s.attr_count()),
      8};
  core::BrokerSummary summary(s);
  summary.add(sub, id);

  std::vector<std::pair<MsgKind, std::vector<std::byte>>> out;
  {
    util::BufWriter w;
    put_subscription(w, sub);
    out.emplace_back(MsgKind::kSubscribe, std::move(w).take());
  }
  out.emplace_back(MsgKind::kAttach, encode(AttachMsg{{id}}));
  {
    util::BufWriter w;
    put_sub_id(w, id);
    out.emplace_back(MsgKind::kUnsubscribe, std::move(w).take());
  }
  {
    util::BufWriter w;
    put_event(w, event);
    out.emplace_back(MsgKind::kPublish, std::move(w).take());
  }
  SummaryMsg sm;
  sm.from = 1;
  sm.merged_brokers = {1};
  sm.epochs = {0};
  sm.removals = {id};
  sm.summary = core::encode_summary(summary, wire);
  out.emplace_back(MsgKind::kSummary, encode(sm));
  EventMsg em;
  em.origin = 1;
  em.seq = 42;
  em.brocli = routing::make_bitmap(brokers);
  routing::bitmap_set(em.brocli, 1);
  em.event = event;
  out.emplace_back(MsgKind::kEvent, encode(em, s));
  out.emplace_back(MsgKind::kDeliver, encode(DeliverMsg{1, {id}, event}, s));
  out.emplace_back(MsgKind::kNotify, encode(NotifyMsg{{id}, event}, s));
  out.emplace_back(MsgKind::kTrigger, encode(TriggerMsg{1}));
  out.emplace_back(MsgKind::kStats, std::vector<std::byte>{});
  out.emplace_back(MsgKind::kTrace, encode(TraceRequestMsg{7, 8}));
  out.emplace_back(MsgKind::kDump, std::vector<std::byte>{});
  out.emplace_back(MsgKind::kDumpAck, std::vector<std::byte>{});
  out.emplace_back(MsgKind::kSubscribeAck, encode(SubscribeAckMsg{id}));
  out.emplace_back(MsgKind::kAttachAck, encode(AttachAckMsg{1}));
  out.emplace_back(MsgKind::kError, std::vector<std::byte>{});
  // Governor admission rejection: kError with a retry-after payload.
  out.emplace_back(MsgKind::kError, encode(ErrorMsg{ErrorMsg::kThrottled, 250}));

  // v4 soft-state frames (PROTOCOL v4): a structurally valid delta
  // announcement and lease renewals — plus their acks, which are
  // client/peer-bound and must be harmless as unknowns.
  {
    core::BrokerSummary grown = summary;
    const auto sub2 = SubscriptionBuilder(s).where("symbol", Op::kEq, "probe2").build();
    grown.add(sub2, SubId{1, 1, sub2.mask()});
    const core::SummaryImage base = core::extract_image(summary);
    const core::SummaryImage target = core::extract_image(grown);
    core::DeltaHeader hdr;
    hdr.base_version = 1;
    hdr.new_version = 2;
    hdr.base_digest = core::image_digest(base);
    hdr.new_digest = core::image_digest(target);
    SummaryDeltaMsg dm;
    dm.from = 1;
    dm.merged_brokers = {1};
    dm.epochs = {0};
    dm.removals = {id};
    dm.delta = core::encode_delta(core::diff_images(base, target), s, wire, hdr);
    out.emplace_back(MsgKind::kSummaryDelta, encode(dm));
  }
  out.emplace_back(MsgKind::kLeaseRenew, encode(LeaseRenewMsg{{id}}));
  out.emplace_back(MsgKind::kSummaryDeltaAck,
                   encode(SummaryDeltaAckMsg{SummaryDeltaAckMsg::kApplied}));
  out.emplace_back(MsgKind::kLeaseRenewAck, encode(LeaseRenewAckMsg{1}));
  // Kinds 24/25, v4's repair pull and its reply, retired in v5: a v4 peer
  // may still send them, and they must be as harmless as any unknown kind.
  {
    util::BufWriter requester;
    requester.put_u32(1);
    out.emplace_back(static_cast<MsgKind>(24), std::move(requester).take());
  }
  out.emplace_back(static_cast<MsgKind>(25), encode(sm));
  return out;
}

/// One payload per kind that carries a list, whose count claims 2^40
/// entries in six bytes followed by six zero bytes: no decoder may size an
/// allocation by the count before checking it against the payload.
std::vector<std::pair<MsgKind, std::vector<std::byte>>> count_bomb_payloads(size_t brokers) {
  const auto bomb = [](std::span<const std::byte> prefix) {
    util::BufWriter w;
    w.put_bytes(prefix);
    w.put_varint(uint64_t{1} << 40);
    for (int i = 0; i < 6; ++i) w.put_u8(0);
    return std::move(w).take();
  };
  util::BufWriter event_prefix;  // origin, seq, BROCLI; then the attribute count
  event_prefix.put_u32(1);
  event_prefix.put_u64(42);
  const auto brocli = routing::make_bitmap(brokers);
  event_prefix.put_varint(brocli.size());
  event_prefix.put_bytes(brocli);
  util::BufWriter deliver_prefix;  // examining broker; then the id count
  deliver_prefix.put_u32(1);
  return {
      {MsgKind::kSubscribe, bomb({})},  // constraint count
      {MsgKind::kAttach, bomb({})},     // id counts
      {MsgKind::kLeaseRenew, bomb({})},
      {MsgKind::kPublish, bomb({})},  // event attribute count
      {MsgKind::kEvent, bomb(event_prefix.bytes())},
      {MsgKind::kDeliver, bomb(deliver_prefix.bytes())},
      {MsgKind::kNotify, bomb({})},
  };
}

/// Decodes `payload` the way its receiver does.
void decode_as(MsgKind kind, std::span<const std::byte> payload, const Schema& s) {
  util::BufReader r(payload);
  switch (kind) {
    case MsgKind::kSubscribe:
      (void)get_subscription(r, s);
      return;
    case MsgKind::kAttach:
      (void)decode_attach_msg(payload);
      return;
    case MsgKind::kLeaseRenew:
      (void)decode_lease_renew_msg(payload);
      return;
    case MsgKind::kPublish:
      (void)get_event(r, s);
      return;
    case MsgKind::kEvent:
      (void)decode_event_msg(payload, s);
      return;
    case MsgKind::kDeliver:
      (void)decode_deliver_msg(payload, s);
      return;
    case MsgKind::kNotify:
      (void)decode_notify_msg(payload, s);
      return;
    default:
      FAIL() << "no decoder for kind " << static_cast<int>(kind);
  }
}

TEST(Protocol, WireCountsBeyondPayloadThrow) {
  const Schema s = schema_v();
  for (const auto& bomb : count_bomb_payloads(2)) {
    EXPECT_THROW(decode_as(bomb.first, bomb.second, s), util::DecodeError)
        << "kind " << static_cast<int>(bomb.first);
  }
}

TEST(FrameIntegrity, AnyTruncationOfAnyKindNeverCrashesOrMutatesState) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2), core::GeneralizePolicy::kSafe, tight_policy());
  auto keeper = cluster.connect(1);
  const SubId kept = keeper->subscribe(
      SubscriptionBuilder(s).where("symbol", Op::kEq, "keep").build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  const auto before = cluster.node(1).snapshot();

  for (const auto& [kind, payload] : valid_payloads(s, cluster.size())) {
    const auto frame = wire_frame(kind, payload);
    // Every strict prefix: the frame dies inside the header or payload.
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      Socket raw = connect_patiently(cluster.port_of(1));
      raw.send_all(std::span(frame).first(cut));
    }  // abrupt close each iteration
  }
  std::this_thread::sleep_for(100ms);  // drain the handler threads

  const auto after = cluster.node(1).snapshot();
  EXPECT_EQ(after.local_subs, before.local_subs);
  EXPECT_EQ(after.merged_brokers, before.merged_brokers);
  EXPECT_EQ(after.held_wire_bytes, before.held_wire_bytes);
  EXPECT_EQ(after.pending_redeliveries, before.pending_redeliveries);

  // The broker is still fully alive: a real round-trip works.
  auto c0 = cluster.connect(0);
  c0->publish(EventBuilder(s).set("symbol", "keep").build());
  const auto note = keeper->next_notification(2000ms);
  ASSERT_TRUE(note.has_value());
  EXPECT_EQ(note->ids, std::vector<SubId>{kept});
}

TEST(FrameIntegrity, FullLengthJunkPayloadsAreRejectedWithoutMutation) {
  const Schema s = schema_v();
  Cluster cluster(s, overlay::line(2), core::GeneralizePolicy::kSafe, tight_policy());
  auto keeper = cluster.connect(1);
  const SubId kept = keeper->subscribe(
      SubscriptionBuilder(s).where("symbol", Op::kEq, "keep").build());
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  const auto before = cluster.node(1).snapshot();

  // All-0xFF payloads overflow every varint/length field on decode, and
  // count bombs claim lists far longer than their payloads; the broker
  // must reject the frame (dropping the connection is fine) with its state
  // untouched.
  auto frames = count_bomb_payloads(cluster.size());
  for (const auto& [kind, payload] : valid_payloads(s, cluster.size())) {
    frames.emplace_back(kind, std::vector<std::byte>(payload.size() + 16, std::byte{0xFF}));
  }
  for (const auto& [kind, junk] : frames) {
    Socket raw = connect_patiently(cluster.port_of(1));
    raw.set_recv_timeout(2000ms);
    send_frame(raw, kind, junk);
    try {
      (void)recv_frame(raw);  // ack, kError, or a dropped connection
    } catch (const NetError&) {
    }
  }
  std::this_thread::sleep_for(100ms);

  const auto after = cluster.node(1).snapshot();
  EXPECT_EQ(after.local_subs, before.local_subs);
  EXPECT_EQ(after.merged_brokers, before.merged_brokers);
  EXPECT_EQ(after.held_wire_bytes, before.held_wire_bytes);

  auto c0 = cluster.connect(0);
  c0->publish(EventBuilder(s).set("symbol", "keep").build());
  const auto note = keeper->next_notification(2000ms);
  ASSERT_TRUE(note.has_value());
  EXPECT_EQ(note->ids, std::vector<SubId>{kept});
}

}  // namespace
}  // namespace subsum::net
