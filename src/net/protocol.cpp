#include "net/protocol.h"

#include <algorithm>

namespace subsum::net {

using model::AttrType;
using model::Value;

void put_value(util::BufWriter& w, const Value& v) {
  switch (v.type()) {
    case AttrType::kInt:
      w.put_i64(v.as_int());
      break;
    case AttrType::kFloat:
      w.put_f64(v.as_float());
      break;
    case AttrType::kString:
      w.put_string(v.as_string());
      break;
  }
}

Value get_value(util::BufReader& r, AttrType type) {
  switch (type) {
    case AttrType::kInt:
      return Value(r.get_i64());
    case AttrType::kFloat:
      return Value(r.get_f64());
    case AttrType::kString:
      return Value(r.get_string());
  }
  throw util::DecodeError("bad attribute type");
}

void put_event(util::BufWriter& w, const model::Event& e) {
  w.put_varint(e.attrs().size());
  for (const auto& a : e.attrs()) {
    w.put_varint(a.attr);
    put_value(w, a.value);
  }
}

model::Event get_event(util::BufReader& r, const model::Schema& schema) {
  const uint64_t n = r.get_count(2);  // varint attribute id, value >= 1 byte
  std::vector<model::EventAttr> attrs;
  attrs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const auto id = static_cast<model::AttrId>(r.get_varint());
    if (id >= schema.attr_count()) throw util::DecodeError("event attribute id out of range");
    attrs.push_back({id, get_value(r, schema.type_of(id))});
  }
  return model::Event(schema, std::move(attrs));
}

void put_subscription(util::BufWriter& w, const model::Subscription& s) {
  w.put_varint(s.constraints().size());
  for (const auto& c : s.constraints()) {
    w.put_varint(c.attr);
    w.put_u8(static_cast<uint8_t>(c.op));
    put_value(w, c.operand);
  }
}

model::Subscription get_subscription(util::BufReader& r, const model::Schema& schema) {
  const uint64_t n = r.get_count(3);  // varint attribute id, u8 op, operand >= 1 byte
  std::vector<model::Constraint> cs;
  cs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const auto id = static_cast<model::AttrId>(r.get_varint());
    if (id >= schema.attr_count()) throw util::DecodeError("constraint attribute out of range");
    const auto op = static_cast<model::Op>(r.get_u8());
    const AttrType t = schema.type_of(id);
    const AttrType operand_type =
        model::op_valid_for(op, t) ? t : AttrType::kString;  // validation below rejects
    cs.push_back({id, op, get_value(r, operand_type)});
  }
  return model::Subscription(schema, std::move(cs));  // validates ops/types
}

void put_sub_id(util::BufWriter& w, const model::SubId& id) {
  w.put_u32(id.broker);
  w.put_u32(id.local);
  w.put_varint(id.attrs);
}

model::SubId get_sub_id(util::BufReader& r) {
  model::SubId id;
  id.broker = r.get_u32();
  id.local = r.get_u32();
  id.attrs = r.get_varint();
  return id;
}

namespace {

void put_sub_ids(util::BufWriter& w, const std::vector<model::SubId>& ids) {
  w.put_varint(ids.size());
  for (const auto& id : ids) put_sub_id(w, id);
}

// put_sub_id's smallest encoding: two u32s and a one-byte varint.
constexpr size_t kMinSubIdBytes = 9;

std::vector<model::SubId> get_sub_ids(util::BufReader& r) {
  const uint64_t n = r.get_count(kMinSubIdBytes);
  std::vector<model::SubId> ids;
  ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) ids.push_back(get_sub_id(r));
  return ids;
}

void put_envelope(util::BufWriter& w, const SummaryEnvelope& m,
                  std::span<const std::byte> body) {
  w.put_u32(m.from);
  w.put_varint(m.merged_brokers.size());
  for (auto id : m.merged_brokers) w.put_u32(id);
  for (size_t i = 0; i < m.merged_brokers.size(); ++i) {
    w.put_u64(i < m.epochs.size() ? m.epochs[i] : 0);
  }
  put_sub_ids(w, m.removals);
  w.put_varint(body.size());
  w.put_bytes(body);
}

/// Reads the envelope into `m` and returns the body blob.
std::vector<std::byte> get_envelope(util::BufReader& r, SummaryEnvelope& m) {
  m.from = r.get_u32();
  const uint64_t nb = r.get_varint();
  for (uint64_t i = 0; i < nb; ++i) m.merged_brokers.push_back(r.get_u32());
  for (uint64_t i = 0; i < nb; ++i) m.epochs.push_back(r.get_u64());
  m.removals = get_sub_ids(r);
  const auto body = r.get_bytes(r.get_varint());
  return {body.begin(), body.end()};
}

}  // namespace

std::vector<std::byte> encode(const SubscribeAckMsg& m) {
  util::BufWriter w;
  put_sub_id(w, m.id);
  return std::move(w).take();
}

SubscribeAckMsg decode_subscribe_ack(std::span<const std::byte> b) {
  util::BufReader r(b);
  return {get_sub_id(r)};
}

std::vector<std::byte> encode(const ErrorMsg& m) {
  util::BufWriter w;
  w.put_u8(m.code);
  w.put_varint(m.retry_after_ms);
  return std::move(w).take();
}

ErrorMsg decode_error_msg(std::span<const std::byte> b) {
  // Tolerant by design: kError long predates this payload, so anything a
  // pre-governor peer sends (empty) — or a truncation — reads as generic.
  ErrorMsg m;
  try {
    util::BufReader r(b);
    if (r.done()) return m;
    m.code = r.get_u8();
    if (!r.done()) {
      m.retry_after_ms =
          static_cast<uint32_t>(std::min<uint64_t>(r.get_varint(), UINT32_MAX));
    }
  } catch (const util::DecodeError&) {
    return ErrorMsg{};
  }
  return m;
}

std::vector<std::byte> encode(const SummaryMsg& m) {
  util::BufWriter w;
  put_envelope(w, m, m.summary);
  w.put_u64(m.version);
  w.put_u64(m.digest);
  return std::move(w).take();
}

SummaryMsg decode_summary_msg(std::span<const std::byte> b) {
  util::BufReader r(b);
  SummaryMsg m;
  m.summary = get_envelope(r, m);
  m.version = r.get_u64();
  m.digest = r.get_u64();
  return m;
}

std::vector<std::byte> encode(const SummaryDeltaMsg& m) {
  util::BufWriter w;
  put_envelope(w, m, m.delta);
  return std::move(w).take();
}

SummaryDeltaMsg decode_summary_delta_msg(std::span<const std::byte> b) {
  util::BufReader r(b);
  SummaryDeltaMsg m;
  m.delta = get_envelope(r, m);
  return m;
}

std::vector<std::byte> encode(const SummaryDeltaAckMsg& m) {
  util::BufWriter w;
  w.put_u8(m.status);
  return std::move(w).take();
}

SummaryDeltaAckMsg decode_summary_delta_ack(std::span<const std::byte> b) {
  util::BufReader r(b);
  SummaryDeltaAckMsg m;
  m.status = r.get_u8();
  if (m.status > SummaryDeltaAckMsg::kNeedFull) {
    throw util::DecodeError("bad delta-ack status");
  }
  return m;
}

std::vector<std::byte> encode(const LeaseRenewMsg& m) {
  util::BufWriter w;
  put_sub_ids(w, m.ids);
  return std::move(w).take();
}

LeaseRenewMsg decode_lease_renew_msg(std::span<const std::byte> b) {
  util::BufReader r(b);
  return {get_sub_ids(r)};
}

std::vector<std::byte> encode(const LeaseRenewAckMsg& m) {
  util::BufWriter w;
  w.put_u32(m.renewed);
  return std::move(w).take();
}

LeaseRenewAckMsg decode_lease_renew_ack(std::span<const std::byte> b) {
  util::BufReader r(b);
  return {r.get_u32()};
}

std::vector<std::byte> encode(const EventMsg& m, const model::Schema& schema) {
  (void)schema;
  util::BufWriter w;
  w.put_u32(m.origin);
  w.put_u64(m.seq);
  w.put_varint(m.brocli.size());
  w.put_bytes(m.brocli);
  put_event(w, m.event);
  w.put_u64(m.trace);  // v3 trailing field; v2 decoders ignore trailing bytes
  return std::move(w).take();
}

EventMsg decode_event_msg(std::span<const std::byte> b, const model::Schema& schema) {
  util::BufReader r(b);
  EventMsg m;
  m.origin = r.get_u32();
  m.seq = r.get_u64();
  const uint64_t len = r.get_varint();
  const auto bytes = r.get_bytes(len);
  m.brocli.assign(bytes.begin(), bytes.end());
  m.event = get_event(r, schema);
  if (r.remaining() >= 8) m.trace = r.get_u64();  // absent in v2 frames -> 0
  return m;
}

std::vector<std::byte> encode(const DeliverMsg& m, const model::Schema& schema) {
  (void)schema;
  util::BufWriter w;
  w.put_u32(m.examined_at);
  put_sub_ids(w, m.ids);
  put_event(w, m.event);
  w.put_u64(m.trace);  // v3 trailing field
  return std::move(w).take();
}

DeliverMsg decode_deliver_msg(std::span<const std::byte> b, const model::Schema& schema) {
  util::BufReader r(b);
  DeliverMsg m;
  m.examined_at = r.get_u32();
  m.ids = get_sub_ids(r);
  m.event = get_event(r, schema);
  if (r.remaining() >= 8) m.trace = r.get_u64();
  return m;
}

std::vector<std::byte> encode(const NotifyMsg& m, const model::Schema& schema) {
  (void)schema;
  util::BufWriter w;
  put_sub_ids(w, m.ids);
  put_event(w, m.event);
  return std::move(w).take();
}

NotifyMsg decode_notify_msg(std::span<const std::byte> b, const model::Schema& schema) {
  util::BufReader r(b);
  NotifyMsg m;
  m.ids = get_sub_ids(r);
  m.event = get_event(r, schema);
  return m;
}

std::vector<std::byte> encode(const TriggerMsg& m) {
  util::BufWriter w;
  w.put_u32(m.iteration);
  return std::move(w).take();
}

TriggerMsg decode_trigger_msg(std::span<const std::byte> b) {
  util::BufReader r(b);
  return {r.get_u32()};
}

std::vector<std::byte> encode(const AttachMsg& m) {
  util::BufWriter w;
  put_sub_ids(w, m.ids);
  return std::move(w).take();
}

AttachMsg decode_attach_msg(std::span<const std::byte> b) {
  util::BufReader r(b);
  return {get_sub_ids(r)};
}

std::vector<std::byte> encode(const AttachAckMsg& m) {
  util::BufWriter w;
  w.put_u32(m.bound);
  return std::move(w).take();
}

AttachAckMsg decode_attach_ack(std::span<const std::byte> b) {
  util::BufReader r(b);
  return {r.get_u32()};
}

std::vector<std::byte> encode(const TraceRequestMsg& m) {
  util::BufWriter w;
  w.put_u64(m.trace);
  w.put_u32(m.max_spans);
  return std::move(w).take();
}

TraceRequestMsg decode_trace_request(std::span<const std::byte> b) {
  util::BufReader r(b);
  TraceRequestMsg m;
  m.trace = r.get_u64();
  m.max_spans = r.get_u32();
  return m;
}

std::vector<std::byte> encode(const ProfileRequestMsg& m) {
  util::BufWriter w;
  w.put_u8(m.action);
  w.put_u32(m.hz);
  return std::move(w).take();
}

ProfileRequestMsg decode_profile_request(std::span<const std::byte> b) {
  util::BufReader r(b);
  ProfileRequestMsg m;
  m.action = r.get_u8();
  m.hz = r.get_u32();
  return m;
}

std::vector<std::byte> encode(const ProfileReplyMsg& m) {
  util::BufWriter w(32 + m.folded.size());
  w.put_u8(m.running);
  w.put_u32(m.hz);
  w.put_u64(m.samples);
  w.put_u64(m.dropped);
  w.put_string(m.folded);
  return std::move(w).take();
}

ProfileReplyMsg decode_profile_reply(std::span<const std::byte> b) {
  util::BufReader r(b);
  ProfileReplyMsg m;
  m.running = r.get_u8();
  m.hz = r.get_u32();
  m.samples = r.get_u64();
  m.dropped = r.get_u64();
  m.folded = r.get_string();
  return m;
}

std::vector<std::byte> encode(const TraceReplyMsg& m) {
  util::BufWriter w;
  w.put_varint(m.spans.size());
  for (const obs::Span& s : m.spans) {
    w.put_u64(s.trace);
    w.put_u32(s.broker);
    w.put_u8(static_cast<uint8_t>(s.phase));
    w.put_u32(s.peer);
    w.put_u64(s.t_us);
    w.put_u64(s.bytes);
  }
  return std::move(w).take();
}

TraceReplyMsg decode_trace_reply(std::span<const std::byte> b) {
  util::BufReader r(b);
  TraceReplyMsg m;
  const uint64_t n = r.get_varint();
  m.spans.reserve(n < 65536 ? n : 65536);
  for (uint64_t i = 0; i < n; ++i) {
    obs::Span s;
    s.trace = r.get_u64();
    s.broker = r.get_u32();
    const uint8_t phase = r.get_u8();
    if (phase > static_cast<uint8_t>(obs::Phase::kRedeliver)) {
      throw util::DecodeError("bad span phase");
    }
    s.phase = static_cast<obs::Phase>(phase);
    s.peer = r.get_u32();
    s.t_us = r.get_u64();
    s.bytes = r.get_u64();
    m.spans.push_back(s);
  }
  return m;
}

}  // namespace subsum::net
