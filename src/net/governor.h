// Broker-wide resource governor: the overload-protection policy layer.
//
// Four concerns, one budget:
//
//   1. Bounded per-connection outbound queues. The broker enqueues data
//      frames (kNotify) instead of writing them inline; the governor
//      accounts every queued byte against a global memory budget and the
//      per-connection caps live in GovernorConfig. Slow-consumer policy is
//      drop-oldest data frames on overflow, then disconnect once a single
//      write stalls past write_stall_timeout (a mid-frame send timeout
//      corrupts the stream, so disconnecting is the only safe option).
//
//   2. Admission control. A token-bucket paces publish admissions and hard
//      caps bound subscriptions/connections; rejections carry a
//      retry-after hint on the wire (net/protocol.h ErrorMsg) that
//      net::Client folds into its backoff instead of hammering a shedding
//      broker.
//
//   3. Per-peer circuit breakers. N consecutive terminal RPC failures
//      (NetTimeout/PeerUnreachable after the retry budget) open the
//      breaker; calls then fail fast — BROCLI walks re-select around the
//      sick peer without burning the RPC deadline — until a cooldown
//      admits one half-open probe.
//
//   4. A degradation ladder driven by usage/budget. Rungs shed in strict
//      priority order: the owner-side quality count, then trace spans,
//      then TTL'd redeliveries, then new publish admissions. Control-plane
//      traffic (summary announcements — deltas, full images, the full
//      image that repairs a refused delta — and leases) is NEVER shed —
//      soft-state convergence must survive overload — and the `control`
//      shed counter exists only so tests and operators can assert it
//      stays zero.
//
// Timing and accounting use std::chrono::steady_clock and the governor's
// own atomics — NOT obs::now_us(), which compiles to a constant 0 under
// -DSUBSUM_NO_TELEMETRY. Policy decisions are therefore identical in both
// builds; the obs registry only mirrors them. TokenBucket and
// CircuitBreaker take explicit timestamps so tests can pin schedules.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "overlay/graph.h"

namespace subsum::net {

struct GovernorConfig {
  // --- admission control ----------------------------------------------------
  /// Publish admissions per second (token bucket). 0 = unlimited.
  uint64_t publish_rate_per_sec = 0;
  /// Bucket capacity (burst size). 0 = one second's worth of rate.
  uint64_t publish_burst = 0;
  /// Concurrent client/peer connections served. 0 = unlimited.
  uint64_t max_connections = 0;
  /// Outstanding local subscriptions admitted by the governor. 0 = only the
  /// (much larger) BrokerConfig::max_subs_per_broker id-space bound applies.
  uint64_t max_subscriptions = 0;
  /// Base retry-after hint stamped on capacity/shed rejections; rate-limit
  /// rejections compute the exact token-refill time instead.
  std::chrono::milliseconds retry_after{250};

  // --- per-connection outbound queues ---------------------------------------
  /// Queued outbound data bytes per connection before drop-oldest engages.
  size_t conn_queue_max_bytes = 1u << 20;
  /// Queued outbound data frames per connection before drop-oldest engages.
  size_t conn_queue_max_frames = 1024;
  /// Deadline for any single outbound write (covers acks too, via the
  /// socket send timeout). A write that stalls past it disconnects the
  /// connection: the frame boundary is lost mid-stream, and a consumer
  /// this far behind is not coming back. 0 (unbounded) is unsupported —
  /// a writer blocked forever under conn->write_mu would deadlock broker
  /// shutdown — so BrokerNode clamps <= 0 back to this default.
  std::chrono::milliseconds write_stall_timeout{2000};
  /// Kernel send-buffer clamp (SO_SNDBUF) on accepted connections. The
  /// byte budget above only bounds user-space queues; without this clamp
  /// Linux autotuning parks up to tcp_wmem[2] (often 4 MB) per stalled
  /// consumer in the kernel before the writer ever blocks. 0 = kernel
  /// default (unclamped).
  size_t conn_sndbuf_bytes = 0;

  // --- peer circuit breakers ------------------------------------------------
  /// Consecutive terminal failures before a peer's breaker opens.
  /// 0 disables circuit breaking entirely.
  uint32_t breaker_open_after = 4;
  /// How long an open breaker fails fast before admitting one half-open
  /// probe. Kept short relative to a propagation period so a recovered
  /// peer rejoins within the next period.
  std::chrono::milliseconds breaker_cooldown{150};

  // --- degradation ladder ---------------------------------------------------
  /// Global budget for governor-accounted bytes: outbound queues, the
  /// redelivery queue and the memory ledger's growth lines (index arenas,
  /// summaries, WAL and snapshot buffers). Usage/budget drives the ladder
  /// rung. The default keeps a broker holding fanout_heavy-sized tables on
  /// rung 0: a 20k-subscription owner accounts ~15 MB, a sink merging two
  /// such owners ~32 MB.
  size_t memory_budget_bytes = size_t{128} << 20;
};

/// Deterministic token bucket; the caller supplies timestamps (µs on any
/// monotone clock). Internally synchronized.
class TokenBucket {
 public:
  /// rate 0 = unlimited (try_acquire always succeeds).
  TokenBucket(uint64_t rate_per_sec, uint64_t burst) noexcept;

  /// Takes one token accrued as of now_us. On refusal returns false and,
  /// when retry_after_ms is non-null, stores the ceiling of the time until
  /// a token will be available (>= 1).
  bool try_acquire(uint64_t now_us, uint64_t* retry_after_ms = nullptr) noexcept;

  [[nodiscard]] uint64_t rate() const noexcept { return rate_; }

 private:
  uint64_t rate_;        // tokens per second
  uint64_t capacity_;    // micro-tokens (token * 1e6)
  std::mutex mu_;
  uint64_t micro_tokens_;
  uint64_t last_us_ = 0;
};

/// Per-peer circuit breaker: closed -> open after N consecutive terminal
/// failures; open -> half-open after the cooldown, admitting exactly one
/// probe; probe success closes, probe failure re-opens. Internally
/// synchronized; timestamps are caller-supplied for determinism.
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  /// open_after 0 disables the breaker (allow() is always true).
  CircuitBreaker(uint32_t open_after, std::chrono::milliseconds cooldown) noexcept;

  /// Whether a call may proceed at now_us. An open breaker inside the
  /// cooldown refuses; past it, transitions to half-open and admits ONE
  /// in-flight probe (concurrent callers are refused until it resolves).
  bool allow(uint64_t now_us) noexcept;
  void on_success() noexcept;
  void on_failure(uint64_t now_us) noexcept;

  [[nodiscard]] State state() const noexcept;

 private:
  uint32_t open_after_;
  uint64_t cooldown_us_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint64_t opened_at_us_ = 0;
  bool probe_in_flight_ = false;
};

class Governor {
 public:
  /// Shed classes, in strict ladder order. kNotify is the slow-consumer
  /// drop-oldest policy (not a ladder rung: it is per-connection); kControl
  /// is never shed and exists so its counter can be asserted zero.
  enum class Shed : uint8_t { kProbe = 0, kTrace, kRedelivery, kPublish, kNotify, kControl };

  /// `peers` sizes the breaker array (one per broker id); `m` receives the
  /// mirror metrics (health gauge, shed counters, queue histograms).
  Governor(GovernorConfig cfg, size_t peers, obs::MetricsRegistry& m);

  [[nodiscard]] const GovernorConfig& config() const noexcept { return cfg_; }

  // --- degradation ladder ---------------------------------------------------
  /// Current rung from usage/budget: 0 healthy; 1 sheds probes (>=50%);
  /// 2 also sheds trace spans (>=65%); 3 also sheds new redeliveries
  /// (>=80%); 4 also rejects new publishes (>=95%).
  [[nodiscard]] int rung() const noexcept;
  /// Whether class c is shed at the current rung (always false for
  /// kControl and kNotify).
  [[nodiscard]] bool shedding(Shed c) const noexcept;
  /// Bumps the per-class shed counter (mirror metric).
  void count_shed(Shed c) noexcept;
  [[nodiscard]] uint64_t shed_count(Shed c) const noexcept;

  // --- budget accounting (outbound queues + redeliveries) -------------------
  void add_usage(size_t bytes) noexcept;
  void sub_usage(size_t bytes) noexcept;
  [[nodiscard]] size_t usage() const noexcept {
    return usage_bytes_.load(std::memory_order_relaxed);
  }
  /// Injects the summed per-component memory accounting (obs/memacct.h)
  /// for everything the add_usage/sub_usage stream does NOT cover —
  /// frozen-index arenas, summary images, WAL/snapshot buffers, telemetry
  /// rings. The ladder degrades on usage() + external, i.e. on measured
  /// broker memory, not outbound-queue bytes alone. Deterministic for
  /// tests: nothing is read from the OS — callers push readings.
  void set_external_bytes(uint64_t bytes) noexcept;
  [[nodiscard]] uint64_t external_bytes() const noexcept {
    return external_bytes_.load(std::memory_order_relaxed);
  }
  /// The degradation ladder's input: usage() + external_bytes().
  [[nodiscard]] uint64_t ladder_bytes() const noexcept {
    return usage_bytes_.load(std::memory_order_relaxed) +
           external_bytes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of usage() since construction.
  [[nodiscard]] size_t peak_usage() const noexcept {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  /// Record one enqueue into a connection queue (depth/bytes histograms).
  void observe_queue(size_t depth, size_t bytes) noexcept;
  /// A writer hit the stall deadline and cut the connection. Kept on the
  /// governor's own atomics so tests can observe the slow-consumer policy
  /// without telemetry.
  void count_slow_disconnect() noexcept {
    slow_disconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t slow_disconnects() const noexcept {
    return slow_disconnects_.load(std::memory_order_relaxed);
  }

  // --- admission ------------------------------------------------------------
  struct Admission {
    bool ok = true;
    bool shed = false;  // refused by the ladder (rung 4), not the rate limit
    uint32_t retry_after_ms = 0;
  };
  /// Token bucket + rung-4 shedding, in that order of reporting (a shed
  /// rejection wins: its hint is the base retry_after, not a refill time).
  Admission admit_publish() noexcept;
  /// Whether one more local subscription may be admitted given the current
  /// count (the caller holds its own table lock and passes the count).
  [[nodiscard]] bool admit_subscription(uint64_t current) const noexcept;
  /// Counts a refused subscribe (the admission check itself is const and
  /// lock-free so the caller can probe without committing).
  void count_rejected_subscription() noexcept;
  /// Connection slots. try_acquire_connection/release_connection bracket a
  /// connection handler's lifetime.
  bool try_acquire_connection() noexcept;
  void release_connection() noexcept;
  [[nodiscard]] uint64_t connections() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Retry-after hint for capacity/shed rejections, in ms.
  [[nodiscard]] uint32_t retry_after_hint() const noexcept {
    return static_cast<uint32_t>(cfg_.retry_after.count());
  }

  // --- peer circuit breakers ------------------------------------------------
  /// Whether an RPC to `peer` may proceed now; false = fail fast.
  bool breaker_allow(overlay::BrokerId peer) noexcept;
  void breaker_success(overlay::BrokerId peer) noexcept;
  void breaker_failure(overlay::BrokerId peer) noexcept;
  [[nodiscard]] CircuitBreaker::State breaker_state(overlay::BrokerId peer) const noexcept;
  [[nodiscard]] uint64_t breaker_fastfails() const noexcept;

  /// µs on the process-wide steady clock (independent of SUBSUM_NO_TELEMETRY).
  static uint64_t steady_now_us() noexcept;

  /// Incident observers: rung changes and breaker flips are edge-detected
  /// here (the policy's own state machine) and recorded to the flight
  /// recorder / logger. Either may be null; call before traffic. Policy
  /// decisions never read these — they are write-only breadcrumbs, so the
  /// ladder behaves identically under -DSUBSUM_NO_TELEMETRY.
  void set_observer(obs::FlightRecorder* flight, obs::Logger* log) noexcept;

 private:
  void refresh_rung_gauge() noexcept;
  void set_breaker_gauge(overlay::BrokerId peer) noexcept;

  GovernorConfig cfg_;
  TokenBucket publish_bucket_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  obs::FlightRecorder* flight_ = nullptr;  // not owned; see set_observer
  obs::Logger* log_ = nullptr;             // not owned
  std::atomic<int> last_rung_{0};
  std::unique_ptr<std::atomic<uint8_t>[]> last_breaker_;  // per-peer state
  std::atomic<uint64_t> usage_bytes_{0};
  std::atomic<uint64_t> external_bytes_{0};  // memacct components, pushed
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> fastfails_{0};
  std::atomic<uint64_t> slow_disconnects_{0};
  std::atomic<uint64_t> shed_counts_[6] = {};  // own copy: valid sans telemetry

  // Mirror metrics (no-ops under SUBSUM_NO_TELEMETRY; never read back for
  // policy).
  obs::Gauge* gauge_rung_ = nullptr;            // subsum_health_rung
  obs::Gauge* gauge_usage_ = nullptr;           // subsum_outbound_usage_bytes
  obs::Gauge* gauge_ladder_ = nullptr;          // subsum_governor_memory_bytes
  obs::Gauge* gauge_budget_ = nullptr;          // subsum_memory_budget_bytes
  obs::Counter* ctr_shed_[6] = {};              // subsum_shed_total{class=...}
  obs::Counter* ctr_rejected_publish_ = nullptr;
  obs::Counter* ctr_rejected_subscribe_ = nullptr;
  obs::Counter* ctr_rejected_connection_ = nullptr;
  obs::Counter* ctr_breaker_fastfail_ = nullptr;
  obs::Histogram* hist_queue_depth_ = nullptr;  // subsum_outbound_queue_depth
  obs::Histogram* hist_queue_bytes_ = nullptr;  // subsum_outbound_queue_bytes
  std::vector<obs::Gauge*> gauge_breaker_;      // subsum_peer_circuit_state{peer=N}
};

}  // namespace subsum::net
