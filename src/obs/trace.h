// Causal event tracing: a 64-bit trace id minted at publish and carried in
// the wire frame (PROTOCOL v3) and through the sim router, producing
// per-event span logs. Spans are journaled in the span ring of the
// broker's flight recorder (obs/flight_recorder.h): wait-free,
// overwrite-oldest, so a live broker's memory cost is bounded, the most
// recent traffic is always inspectable (kTrace admin RPC,
// `tools/subsum_stats --trace`), and every flight dump carries the walks
// that were in flight.
//
// A span is one phase of one event's life at one broker:
//   recv      the event arrived (kPublish or kEvent frame)
//   match     the merged summary was matched
//   forward   the BROCLI walk forwarded to `peer`
//   deliver   matched ids were delivered (to `peer`, or locally when
//             peer == broker)
//   retry     a peer RPC attempt failed and will be retried (peer = target)
//   redeliver a queued delivery was re-attempted from the redelivery queue
//
// Timestamps are microseconds from an arbitrary per-process origin
// (steady clock) in the TCP broker, and deterministic virtual time (the
// walk's step counter) in the simulator — which makes sim traces
// byte-for-byte reproducible and therefore testable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace subsum::obs {

enum class Phase : uint8_t {
  kRecv = 0,
  kMatch = 1,
  kForward = 2,
  kDeliver = 3,
  kRetry = 4,
  kRedeliver = 5,
};

/// "recv", "match", ... (stable wire/JSONL names).
std::string_view to_string(Phase p) noexcept;

struct Span {
  static constexpr uint32_t kNoPeer = 0xffffffffu;

  uint64_t trace = 0;        // 0 = untraced (pre-v3 peer); never minted
  uint32_t broker = 0;       // broker that recorded the span
  Phase phase = Phase::kRecv;
  uint32_t peer = kNoPeer;   // forward/deliver/retry target; kNoPeer otherwise
  uint64_t t_us = 0;         // microseconds; virtual time in the simulator
  uint64_t bytes = 0;        // wire bytes of the frame (match spans: id count)

  bool operator==(const Span&) const = default;
};

/// One span per line:
/// {"trace":"0000000000000000","broker":0,"phase":"recv","t_us":0,"bytes":0}
/// with `,"peer":N` inserted before t_us when the span has a peer. The
/// field order is fixed, so equal span sequences give equal bytes — the
/// sim determinism tests compare this output directly.
std::string to_jsonl(std::span<const Span> spans);

/// Deterministic 64-bit mix (splitmix64 finalizer) of the publish site and
/// sequence — unique enough for ring-lifetime trace ids without any global
/// coordination. The simulator passes salt 0 so ids (and thus span logs)
/// are reproducible; TCP brokers salt with the wall clock.
uint64_t mint_trace_id(uint32_t broker, uint64_t seq, uint64_t salt) noexcept;

/// Microseconds since an arbitrary per-process origin (steady clock).
/// Compiled to a constant 0 under SUBSUM_NO_TELEMETRY so `now_us() - t0`
/// timing pairs vanish along with the observe() they feed.
#ifndef SUBSUM_NO_TELEMETRY
uint64_t now_us() noexcept;
#else
inline uint64_t now_us() noexcept { return 0; }
#endif

}  // namespace subsum::obs
