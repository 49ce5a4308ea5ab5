// Wire payloads for the broker protocol. Model objects are encoded with the
// util::BufWriter primitives; summaries reuse the core wire format
// (core/serialize.h) embedded as an opaque byte string.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/event.h"
#include "model/subscription.h"
#include "obs/trace.h"
#include "overlay/graph.h"
#include "util/bytes.h"

namespace subsum::net {

// --- model primitives -------------------------------------------------------

void put_value(util::BufWriter& w, const model::Value& v);
model::Value get_value(util::BufReader& r, model::AttrType type);

void put_event(util::BufWriter& w, const model::Event& e);
model::Event get_event(util::BufReader& r, const model::Schema& schema);

void put_subscription(util::BufWriter& w, const model::Subscription& s);
model::Subscription get_subscription(util::BufReader& r, const model::Schema& schema);

/// Uncompressed SubId (12 bytes + varint mask); peer-to-peer messages favor
/// simplicity over the packed c1|c2|c3 form used inside summaries.
void put_sub_id(util::BufWriter& w, const model::SubId& id);
model::SubId get_sub_id(util::BufReader& r);

// --- message payloads --------------------------------------------------------

struct SubscribeAckMsg {
  model::SubId id;
};

/// kError payload (optional — pre-governor brokers send kError with an
/// empty payload, which decodes as {kGeneric, 0}; v3/v4 clients that never
/// look at the payload see a plain error, so no protocol version bump).
/// Non-generic codes mean the broker explicitly did NOT act on the request
/// and the client may retry after retry_after_ms.
struct ErrorMsg {
  enum Code : uint8_t {
    kGeneric = 0,       // unknown frame kind / malformed request
    kThrottled = 1,     // publish token bucket empty
    kOverCapacity = 2,  // subscription/connection cap reached
    kShedding = 3,      // degradation ladder is rejecting this class
  };
  uint8_t code = kGeneric;
  uint32_t retry_after_ms = 0;  // 0 = no hint
};

/// The envelope every summary announcement shares (kSummary and
/// kSummaryDelta). On the wire it precedes the length-prefixed body blob,
/// and one encoder/decoder pair codes it.
struct SummaryEnvelope {
  overlay::BrokerId from = 0;
  std::vector<overlay::BrokerId> merged_brokers;
  std::vector<uint64_t> epochs;        // aligned with merged_brokers; 0 = ephemeral
  std::vector<model::SubId> removals;  // maintenance piggyback
};

struct SummaryMsg : SummaryEnvelope {
  std::vector<std::byte> summary;  // core/serialize wire format
  /// Trailing fields: the sender's summary version and image digest at
  /// encode time, which seed the receiver's shadow for later delta bases.
  uint64_t version = 0;
  uint64_t digest = 0;
};

/// v4 delta announcement: the body is a core/delta wire blob (its
/// DeltaHeader carries epoch, base/new versions and digests).
struct SummaryDeltaMsg : SummaryEnvelope {
  std::vector<std::byte> delta;  // core/delta wire format
};

/// Delta-ack status: whether the receiver's shadow landed on the digest the
/// sender stamped. A sender whose delta is acked kNeedFull answers with its
/// full image (PROTOCOL v5: announcements only ever flow sender → receiver).
struct SummaryDeltaAckMsg {
  enum Status : uint8_t { kApplied = 0, kNeedFull = 1 };
  uint8_t status = kApplied;
};

/// Sent by a reconnecting client to re-bind subscription ids it already
/// owns (e.g. after the broker crash-recovered them from its store) to the
/// new connection, without re-subscribing.
struct AttachMsg {
  std::vector<model::SubId> ids;
};

struct AttachAckMsg {
  uint32_t bound = 0;  // how many of the requested ids the broker knew
};

/// Refreshes the soft-state lease on subscriptions this client owns; each
/// listed id gets its remaining lifetime reset to its full TTL.
struct LeaseRenewMsg {
  std::vector<model::SubId> ids;
};

struct LeaseRenewAckMsg {
  uint32_t renewed = 0;  // how many ids had a live lease to refresh
};

struct EventMsg {
  overlay::BrokerId origin = 0;
  uint64_t seq = 0;                 // publisher-assigned, for tie rotation
  std::vector<std::byte> brocli;    // bitmap, one bit per broker (routing/event_router.h)
  model::Event event;
  /// Trace id minted at publish (PROTOCOL v3). Encoded as a trailing
  /// field, so v2 frames decode with trace 0 and v2 peers ignore it.
  uint64_t trace = 0;
};

struct DeliverMsg {
  overlay::BrokerId examined_at = 0;
  std::vector<model::SubId> ids;
  model::Event event;
  uint64_t trace = 0;  // trailing v3 field; 0 from v2 peers
};

/// Admin RPC: drive the sampling CPU profiler (obs/profiler.h). Added
/// without a version bump, like kDump: pre-profiler brokers answer
/// kError, and NO_TELEMETRY brokers answer a stopped profiler with empty
/// folded stacks — both of which clients must tolerate.
struct ProfileRequestMsg {
  enum Action : uint8_t {
    kStatus = 0,  // report state only
    kStart = 1,   // arm sampling at `hz` (0 = the broker's default, 97)
    kStop = 2,    // disarm sampling; captured samples stay fetchable
    kFetch = 3,   // drain + symbolize: the reply carries folded stacks
  };
  uint8_t action = kStatus;
  uint32_t hz = 0;
};

struct ProfileReplyMsg {
  uint8_t running = 0;
  uint32_t hz = 0;          // active rate; 0 when stopped
  uint64_t samples = 0;     // captured since process start
  uint64_t dropped = 0;     // lost to ring overwrite before a drain
  std::string folded;       // collapsed stacks (kFetch only; else empty)
};

/// Admin RPC: fetch recent spans from a broker's span ring.
struct TraceRequestMsg {
  uint64_t trace = 0;      // 0 = all retained spans
  uint32_t max_spans = 0;  // 0 = no cap; otherwise the newest N
};

struct TraceReplyMsg {
  std::vector<obs::Span> spans;  // oldest first
};

struct NotifyMsg {
  std::vector<model::SubId> ids;
  model::Event event;
};

struct TriggerMsg {
  uint32_t iteration = 0;
};

std::vector<std::byte> encode(const SubscribeAckMsg& m);
SubscribeAckMsg decode_subscribe_ack(std::span<const std::byte> b);

std::vector<std::byte> encode(const ErrorMsg& m);
/// Tolerant: an empty or truncated payload decodes as {kGeneric, 0}.
ErrorMsg decode_error_msg(std::span<const std::byte> b);

std::vector<std::byte> encode(const SummaryMsg& m);
SummaryMsg decode_summary_msg(std::span<const std::byte> b);

std::vector<std::byte> encode(const SummaryDeltaMsg& m);
SummaryDeltaMsg decode_summary_delta_msg(std::span<const std::byte> b);

std::vector<std::byte> encode(const SummaryDeltaAckMsg& m);
SummaryDeltaAckMsg decode_summary_delta_ack(std::span<const std::byte> b);

std::vector<std::byte> encode(const LeaseRenewMsg& m);
LeaseRenewMsg decode_lease_renew_msg(std::span<const std::byte> b);

std::vector<std::byte> encode(const LeaseRenewAckMsg& m);
LeaseRenewAckMsg decode_lease_renew_ack(std::span<const std::byte> b);

std::vector<std::byte> encode(const EventMsg& m, const model::Schema& schema);
EventMsg decode_event_msg(std::span<const std::byte> b, const model::Schema& schema);

std::vector<std::byte> encode(const DeliverMsg& m, const model::Schema& schema);
DeliverMsg decode_deliver_msg(std::span<const std::byte> b, const model::Schema& schema);

std::vector<std::byte> encode(const NotifyMsg& m, const model::Schema& schema);
NotifyMsg decode_notify_msg(std::span<const std::byte> b, const model::Schema& schema);

std::vector<std::byte> encode(const TriggerMsg& m);
TriggerMsg decode_trigger_msg(std::span<const std::byte> b);

std::vector<std::byte> encode(const AttachMsg& m);
AttachMsg decode_attach_msg(std::span<const std::byte> b);

std::vector<std::byte> encode(const AttachAckMsg& m);
AttachAckMsg decode_attach_ack(std::span<const std::byte> b);

std::vector<std::byte> encode(const TraceRequestMsg& m);
TraceRequestMsg decode_trace_request(std::span<const std::byte> b);

std::vector<std::byte> encode(const ProfileRequestMsg& m);
ProfileRequestMsg decode_profile_request(std::span<const std::byte> b);

std::vector<std::byte> encode(const ProfileReplyMsg& m);
ProfileReplyMsg decode_profile_reply(std::span<const std::byte> b);

std::vector<std::byte> encode(const TraceReplyMsg& m);
TraceReplyMsg decode_trace_reply(std::span<const std::byte> b);

}  // namespace subsum::net
