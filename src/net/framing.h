// Length-prefixed message framing: u32 payload length (LE), u8 kind,
// payload bytes. The 64 MiB frame cap bounds memory against malformed or
// hostile peers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/socket.h"

namespace subsum::net {

enum class MsgKind : uint8_t {
  // client <-> broker
  kSubscribe = 1,
  kSubscribeAck = 2,
  kUnsubscribe = 3,
  kUnsubscribeAck = 4,
  kPublish = 5,
  kPublishAck = 6,
  kNotify = 7,
  kAttach = 8,  // re-bind recovered subscription ids after reconnect
  kAttachAck = 9,
  kLeaseRenew = 10,  // refresh the soft-state lease on owned subscriptions
  kLeaseRenewAck = 11,
  // broker <-> broker
  kSummary = 16,
  kSummaryAck = 17,
  kEvent = 18,  // BROCLI walk forward
  kEventAck = 19,
  kDeliver = 20,  // event + matched ids to the owner broker
  kDeliverAck = 21,
  kSummaryDelta = 22,  // v4: row edits against an (epoch, version) base
  kSummaryDeltaAck = 23,
  // 24/25 (v4's repair pull) are retired since v5: answered kError.
  // control plane
  kTrigger = 32,  // run propagation iteration i
  kTriggerAck = 33,
  kStats = 34,   // empty request; ack carries Prometheus text exposition
  kStatsAck = 35,
  kTrace = 36,   // TraceRequestMsg; ack carries recent spans (obs/trace.h)
  kTraceAck = 37,
  kDump = 38,    // empty request; ack carries a flight-recorder dump
  kDumpAck = 39,  //   (obs/flight_recorder.h file format, verbatim)
  kProfile = 40,  // ProfileRequestMsg: start/stop/fetch the CPU profiler
  kProfileAck = 41,  //   ack carries ProfileReplyMsg (folded stacks)
  kError = 63,
};

constexpr size_t kMaxFrameBytes = 64u << 20;

struct Frame {
  MsgKind kind = MsgKind::kError;
  std::vector<std::byte> payload;
};

/// Writes one frame; throws NetError.
void send_frame(Socket& s, MsgKind kind, std::span<const std::byte> payload);

/// Reads one frame. nullopt on clean EOF; throws NetError on malformed or
/// oversized frames.
std::optional<Frame> recv_frame(Socket& s);

}  // namespace subsum::net
