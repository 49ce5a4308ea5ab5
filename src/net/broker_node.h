// A real broker daemon speaking the subsum protocol over TCP.
//
// Each BrokerNode runs a listener plus one handler thread per connection;
// the accept loop joins the handlers that finished as it goes, so a
// long-running broker does not accumulate dead threads' stacks.
// It keeps the same state as a SimSystem broker: the home table
// (core::HomeTable: its own subscriptions, their leases and the c2
// allocator), the held merged summary, and the Merged_Brokers set. The
// only home state of its own is which connection each subscription
// notifies.
//
// Algorithm 2 runs as externally clocked rounds: a controller (see
// cluster.h) sends kTrigger(iteration) to every node; a node whose degree
// equals the iteration performs its summary send synchronously
// (connect -> kSummary/kSummaryDelta -> ack) before acknowledging the
// trigger, so a round barrier at the controller yields exactly the paper's
// iteration semantics. Unlike the bandwidth-measured sim layer, each
// period's announcement describes the node's whole held image: a row delta
// whenever the neighbor has acked a base, or the full image on first
// contact and on the periodic refresh (a state-based, self-healing
// variant; merging is idempotent). Announcements flow one way, sender to
// receiver: a receiver that cannot apply a delta acks kNeedFull and the
// sender pushes its full image within the same trigger.
//
// Algorithm 3 runs fully in-band: kPublish starts the BROCLI walk at the
// client's broker; each broker matches, sends kDeliver to fresh owners,
// and forwards kEvent to the highest-degree broker not in the BROCLI
// bitmap. Event forwarding is synchronous end-to-end, so a client's
// publish() returns only after the whole walk (and all deliveries) have
// completed — which makes the distributed system deterministic to test.
//
// The routing decisions are not this file's: the BROCLI step
// (routing::examine, routing::next_hop), Algorithm 2's send target
// (routing::send_target), the Merged_Brokers union (routing::merge_brokers)
// and the owner's exact re-filter (core::HomeTable::refilter) are the
// same functions SimSystem calls. Cluster.TcpMatchesSimSystemOnRandomWorkload
// replays one workload through both and compares delivered sets, walk
// order and subsum_walk_* counts.
//
// Locking: `mu_` guards all broker state and is NEVER held across a
// network call; peer RPCs therefore cannot deadlock (a blocked walk thread
// at broker A does not prevent A from serving kDeliver on another
// connection). A walk step holds it only for the match and the
// Merged_Brokers copy.
//
// Telemetry reads what the broker already computes. Summary precision is
// counted at the owner's exact re-filter, on every delivery (core/
// quality.h); the summary gauges (wire-vs-model drift, row occupancy,
// shard balance) are computed only when a kStats scrape asks for them.
//
// Fault tolerance: every peer RPC runs under RpcPolicy deadlines and a
// backoff-paced retry loop, so no broker call can block forever on a dead
// or stalled peer. When the chosen walk hop stays unreachable after
// retries, the walk marks it in the BROCLI bitmap (its subscribers are
// unreachable too) and forwards to the next-highest-degree live broker;
// failed kDelivers are queued and re-tried at the start of each
// propagation period (at-most-once overall: the queue is bounded and
// in-memory). A restarted broker re-learns routing state from the
// state-based full-summary sends within the following periods.
//
// Durability: with BrokerConfig::data_dir set, every accepted subscribe/
// unsubscribe is WAL-logged and fsync'd before the ack (store/
// broker_store.h), the state is periodically compacted to a snapshot, and
// construction runs crash recovery before the listener starts. Each
// incarnation gets a monotonically increasing epoch, stamped on summary
// announcements; peers discard held rows from older incarnations when a
// higher epoch appears (see on_summary), so a crash-restart cannot leave
// zombie routing state in the overlay. Ephemeral brokers stamp epoch 0,
// which opts out of staleness ordering entirely.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "core/home_table.h"
#include "core/matcher.h"
#include "core/quality.h"
#include "core/serialize.h"
#include "model/schema.h"
#include "net/framing.h"
#include "net/governor.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "obs/latency.h"
#include "obs/log.h"
#include "obs/memacct.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "overlay/graph.h"
#include "routing/event_router.h"
#include "routing/propagation.h"
#include "store/broker_store.h"
#include "util/backoff.h"

namespace subsum::net {

/// Deadlines and retry pacing for every RPC a broker (or the cluster
/// controller) makes to a peer.
struct RpcPolicy {
  std::chrono::milliseconds connect_timeout{500};
  std::chrono::milliseconds io_timeout{2000};
  util::BackoffPolicy backoff{std::chrono::milliseconds{20},
                              std::chrono::milliseconds{500}, 3};
};

/// A peer RPC failed even after the policy's retry budget.
class PeerUnreachable : public NetError {
 public:
  PeerUnreachable(overlay::BrokerId peer, const std::string& what)
      : NetError(what), peer_(peer) {}
  [[nodiscard]] overlay::BrokerId peer() const noexcept { return peer_; }

 private:
  overlay::BrokerId peer_;
};

struct BrokerConfig {
  overlay::BrokerId id = 0;
  model::Schema schema;
  overlay::Graph graph;  // the full overlay: ids, adjacency, degrees
  core::GeneralizePolicy policy = core::GeneralizePolicy::kSafe;
  uint64_t max_subs_per_broker = uint64_t{1} << 20;
  uint16_t port = 0;  // 0 = ephemeral (in-process clusters); fixed for CLI use
  RpcPolicy rpc;
  /// Data directory for crash durability. Empty = ephemeral: no WAL, no
  /// snapshots, epoch 0 on announcements (the pre-durability behavior).
  std::string data_dir;
  /// Compact (snapshot + WAL truncate) once this many records accumulate.
  uint64_t snapshot_wal_threshold = 256;
  // --- soft-state summaries (PROTOCOL v4) -----------------------------------
  /// Lease length, in propagation periods, stamped on subscriptions that do
  /// not carry their own TTL. 0 = permanent (the pre-v4 behavior). A leased
  /// subscription whose owner neither renews (kLeaseRenew) nor re-attaches
  /// within the window is expired at the period boundary exactly like an
  /// unsubscribe.
  uint32_t default_lease_periods = 0;
  // --- overload governor (net/governor.h) -----------------------------------
  /// Backpressure, admission control, peer circuit breakers, and the
  /// degradation ladder. Defaults are permissive (no rate limit, no
  /// connection cap) so existing deployments see only the new bounded
  /// outbound queues and breakers.
  GovernorConfig governor;
  // --- observability (obs/) -------------------------------------------------
  /// Flight-recorder ring capacity (state-transition records retained).
  size_t flight_capacity = 1024;
  /// Where stop() and the kDump RPC write the flight-recorder dump file.
  /// Empty with a data_dir set => "<data_dir>/flight.bin"; empty without
  /// a data_dir => no file is written (kDump still serves the bytes).
  std::string flight_dump_path;
  /// Structured logging (obs/log.h). kOff (the default) keeps the broker
  /// exactly as silent as before.
  obs::LogLevel log_level = obs::LogLevel::kOff;
  std::FILE* log_sink = nullptr;  // null = stderr; must outlive the node
  uint64_t log_max_lines_per_sec = 200;
  /// Arm the sampling CPU profiler (obs/profiler.h) at this rate from
  /// startup; 0 = registered-but-idle (arm later via the kProfile RPC, or
  /// fleet-wide via the SUBSUM_PROFILE_HZ environment — how the chaos CI
  /// jobs collect folded-stack artifacts). The profiler is process-wide,
  /// so in an in-process cluster the first node to start it wins; the node
  /// that started it stops it and, when durable, dumps profile.folded
  /// into its data_dir beside flight.bin.
  uint32_t profile_hz = 0;
  /// Sample-ring capacity handed to the profiler before arming.
  size_t profile_ring_capacity = obs::Profiler::kDefaultRingCapacity;
};

class BrokerNode {
 public:
  /// Binds an ephemeral loopback port and starts serving.
  explicit BrokerNode(BrokerConfig cfg);
  ~BrokerNode();

  BrokerNode(const BrokerNode&) = delete;
  BrokerNode& operator=(const BrokerNode&) = delete;

  [[nodiscard]] uint16_t port() const noexcept { return listener_.port(); }
  [[nodiscard]] overlay::BrokerId id() const noexcept { return cfg_.id; }

  /// Ports of all brokers, indexed by broker id. Must be set (by the
  /// controller) before any propagation or publish traffic.
  void set_peer_ports(std::vector<uint16_t> ports);

  /// Stops the listener and joins all handler threads.
  void stop();

  /// Whether stop() has run (a killed broker in a Cluster).
  [[nodiscard]] bool stopped() const noexcept { return stopping_.load(); }

  /// Introspection for tests: current held-summary stats and counts.
  struct Snapshot {
    size_t local_subs = 0;
    size_t merged_brokers = 0;
    size_t held_wire_bytes = 0;
    size_t pending_redeliveries = 0;
    uint64_t epoch = 0;  // 0 when ephemeral (no data dir)
    size_t active_leases = 0;
    size_t pending_removals = 0;  // own removals awaiting the next send
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Order-independent content digest of the held summary (core/delta.h).
  /// The anti-entropy convergence criterion for tests: after quiet periods,
  /// a receiver's shadow digest for a sender equals the sender's announced
  /// digest link by link.
  [[nodiscard]] uint64_t held_digest() const;

  /// Test hook: a copy of the held summary, taken under the state lock
  /// (the differential tests match it against core::match_reference).
  [[nodiscard]] core::BrokerSummary held_summary() const;

  /// Per-sender digests of the mirrored (shadow) images this broker holds.
  [[nodiscard]] std::map<overlay::BrokerId, uint64_t> shadow_digests() const;

  /// This incarnation's epoch; 0 when the broker is ephemeral.
  [[nodiscard]] uint64_t epoch() const noexcept { return epoch_; }

  /// Telemetry registry (counters, gauges, histograms). Thread-safe; the
  /// kStats admin RPC serves its Prometheus text exposition. Migrated
  /// event counters live here under Prometheus names
  /// (`subsum_summary_stale_dropped_total`, ...).
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Recent spans (publish walks, deliveries, retries); served by kTrace.
  [[nodiscard]] const obs::TraceRing& trace_ring() const noexcept { return trace_ring_; }

  /// Black-box state-transition ring (rung changes, breaker flips, sheds,
  /// lease expiries, ...); dumped on stop(), fatal signal, and kDump.
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const noexcept {
    return flight_;
  }
  /// Mutable handle for obs::install_fatal_dump (the handler appends a
  /// fatal-signal record before dumping).
  [[nodiscard]] obs::FlightRecorder& flight_recorder() noexcept { return flight_; }

  /// Where dumps go: cfg.flight_dump_path, or "<data_dir>/flight.bin"
  /// when a data dir is set; empty = file dumps disabled.
  [[nodiscard]] std::string flight_dump_path() const;

  /// Structured logger (configured from BrokerConfig; kOff by default).
  [[nodiscard]] obs::Logger& log() noexcept { return log_; }

  /// What recovery found in the data directory (all false when ephemeral
  /// or the directory was empty).
  struct RecoveryInfo {
    bool recovered = false;           // any durable state was loaded
    bool wal_torn = false;            // a torn/corrupt log tail was discarded
    bool snapshot_fell_back = false;  // snapshot corrupt: log-only replay
    bool own_image_verified = false;  // snapshot's own image matched rebuild
  };
  [[nodiscard]] RecoveryInfo recovery() const noexcept { return recovery_; }

  /// Test hook: the wire image of the broker's OWN summary (rebuilt from
  /// the home table, epoch field zeroed) — comparable bit-for-bit across
  /// restarts.
  [[nodiscard]] std::vector<std::byte> own_summary_wire() const;

  /// The overload governor: budget usage, shed counters, breaker states.
  [[nodiscard]] const Governor& governor() const noexcept { return *governor_; }

  /// Recomputes per-component memory attribution (obs/memacct.h) from the
  /// live owners — frozen index, held/shadow images, WAL/snapshot bytes,
  /// queues, rings — and pushes the governor-external sum into the
  /// degradation ladder. The held summary is estimated from its row and
  /// id counts, never encoded. Called on every kStats scrape and at each
  /// period boundary; tests call it directly for deterministic rung
  /// assertions.
  void refresh_memory_accounting();

  /// The component byte ledger (read-side for tests and subsum_top).
  [[nodiscard]] const obs::MemAccount& mem_account() const noexcept { return memacct_; }

 private:
  /// One queued outbound data frame; the enqueue timestamp and trace id
  /// feed the outbound_queue / writer_flush stage histograms.
  struct QueuedFrame {
    std::vector<std::byte> payload;
    uint64_t enqueued_us = 0;
    uint64_t trace = 0;
  };

  struct ClientConn {
    Socket* sock = nullptr;  // valid while the handler thread runs
    std::mutex write_mu;     // serializes direct (ack) writes with the writer
    /// Bounded outbound data queue (encoded kNotify payloads), drained by
    /// this connection's writer thread. Overflow drops the OLDEST frames
    /// (a consumer this far behind prefers fresh events); a single write
    /// stalling past GovernorConfig::write_stall_timeout disconnects.
    std::mutex q_mu;
    std::condition_variable q_cv;
    std::deque<QueuedFrame> outq;
    size_t outq_bytes = 0;
    bool writer_stop = false;
  };

  void accept_loop();
  void handle_connection(Socket sock);

  /// Queues one kNotify payload on `conn`, enforcing the per-connection
  /// byte/frame budgets (drop-oldest) and the global governor accounting.
  /// `trace` rides along for the outbound-queue stage histograms.
  void enqueue_notify(const std::shared_ptr<ClientConn>& conn,
                      std::vector<std::byte> payload, uint64_t trace);
  /// Per-connection writer: drains outq under the write deadline; a
  /// stalled or dead consumer is disconnected (slow-consumer policy).
  void writer_loop(std::shared_ptr<ClientConn> conn);

  /// Trace-span sink, shed-gated by the degradation ladder (rung >= 2
  /// drops spans instead of appending).
  void record_span(const obs::Span& sp);

  // Frame handlers; `conn` is this connection's shared write handle.
  void on_subscribe(Socket& s, const std::shared_ptr<ClientConn>& conn, const Frame& f,
                    std::vector<uint32_t>& owned_locals);
  void on_attach(Socket& s, const std::shared_ptr<ClientConn>& conn, const Frame& f,
                 std::vector<uint32_t>& owned_locals);
  void on_unsubscribe(Socket& s, ClientConn& conn, const Frame& f);
  void on_publish(Socket& s, ClientConn& conn, const Frame& f);
  void on_summary(Socket& s, ClientConn& conn, const Frame& f);
  void on_summary_delta(Socket& s, ClientConn& conn, const Frame& f);
  void on_lease_renew(Socket& s, ClientConn& conn, const Frame& f);
  void on_event(Socket& s, ClientConn& conn, const Frame& f);
  void on_deliver(Socket& s, ClientConn& conn, const Frame& f);
  void on_trigger(Socket& s, ClientConn& conn, const Frame& f);
  void on_stats(Socket& s, ClientConn& conn, const Frame& f);
  void on_trace(Socket& s, ClientConn& conn, const Frame& f);
  void on_dump(Socket& s, ClientConn& conn, const Frame& f);
  void on_profile(Socket& s, ClientConn& conn, const Frame& f);

  /// One step of the BROCLI walk executed at this broker. Mutates the
  /// bitmap in `msg`, performs deliveries and the onward forward (both
  /// synchronous), then returns. Unreachable hops are marked in the bitmap
  /// and skipped; unreachable delivery owners are queued for redelivery.
  /// `frame_bytes` is the wire size of the kPublish/kEvent payload that
  /// carried the event; it sizes the recv span.
  void walk_step(EventMsg msg, size_t frame_bytes);

  /// Owner side of a delivery (kDeliver, or the walk's local branch):
  /// re-filters `ids` against the exact home table, counts the delivered
  /// vs kept ids in the quality probe, and queues one kNotify per
  /// subscriber connection.
  void notify_owners(std::span<const model::SubId> ids, const model::Event& event,
                     uint64_t trace);

  /// Connects, sends, and awaits the ack of `kind` (the kind numbered one
  /// above it, framing.h), all under RpcPolicy deadlines, retrying with
  /// backoff; returns the ack frame. Any other reply, kError included,
  /// fails the attempt. Throws PeerUnreachable once the retry budget is
  /// spent. `ack_timeout` overrides io_timeout for the ack wait (the kEvent
  /// ack covers the peer's whole downstream walk). Each successful
  /// round-trip lands in the per-peer latency histogram; each failed
  /// attempt bumps the per-peer retry counter and, when `trace` is
  /// nonzero, records a retry span.
  Frame rpc_to_peer(overlay::BrokerId peer, MsgKind kind,
                    std::span<const std::byte> payload,
                    std::optional<std::chrono::milliseconds> ack_timeout = {},
                    uint64_t trace = 0);

  /// Full-image ingest for kSummary frames: shadow refresh and merge,
  /// through ingest_locked.
  void ingest_full_summary(SummaryMsg msg);

  /// The ingest steps every announcement shares, for `msg` whose body is
  /// stamped `epoch`. Marks the sender communicated this period and runs
  /// the epoch check: a stale sender is counted and nothing else happens;
  /// otherwise the held rows of the sender and of every listed broker seen
  /// at a newer incarnation are dropped, and `fold(check)` folds the body
  /// into the shadow and held_. When it returns true, the removal
  /// piggyback and the Merged_Brokers union follow. Caller holds mu_.
  void ingest_locked(SummaryEnvelope& msg, uint64_t epoch,
                     const std::function<bool(routing::EpochCheck)>& fold);

  /// Removes one of this broker's own subscriptions everywhere (home
  /// table, held summary, subscriber, lease), queues the removal for the
  /// neighbors (unless this broker is a sink) and appends its WAL record. An id this broker does not own
  /// or does not hold is ignored: returns false, nothing changes. Caller
  /// holds mu_ and commits.
  bool remove_subscription_locked(model::SubId id);

  /// Makes the WAL records appended under mu_ durable (fsync, attributed
  /// to the fsync thread role), then compacts to a snapshot once the WAL
  /// has grown past the threshold. Caller holds mu_; no-op when ephemeral.
  void commit_locked();

  /// Period-boundary soft-state maintenance, run at trigger iteration 1:
  /// decrements and expires subscription leases and — when that (or a
  /// received delta's removals) dirtied the held state — rebuilds held_ as
  /// own-table rows plus the shadow images.
  void begin_period();

  /// Failed kDeliver payloads, re-tried at the start of each propagation
  /// period until their ttl expires (at-most-once: bounded, in-memory).
  static constexpr int kRedeliveryTtl = 8;  // periods a failed delivery is retried
  struct PendingDelivery {
    overlay::BrokerId owner = 0;
    std::vector<std::byte> payload;  // encoded DeliverMsg
    int ttl = kRedeliveryTtl;        // periods left before dropping
    uint64_t trace = 0;              // redeliver spans keep the causal chain
  };
  static constexpr size_t kMaxPendingDeliveries = 1024;  // oldest dropped beyond
  void queue_redelivery(PendingDelivery pd);
  void flush_pending_deliveries();

  /// Builds this period's announcement under `mu_`: a delta when the
  /// eligible neighbor has acked a base and no full refresh is due, else
  /// the full image. Returns nullopt when there is nothing to send; a
  /// broker whose iteration finds no target drops its removal queue, which
  /// nothing could carry. The announced image rides along so the sender
  /// can install it as the peer's delta base once the ack lands.
  struct PendingSend {
    overlay::BrokerId to = 0;
    MsgKind kind = MsgKind::kSummary;
    std::vector<std::byte> payload;
    std::vector<model::SubId> removals;  // re-queued if the send fails
    core::SummaryImage image;            // the image this payload announces
    uint64_t version = 0;
    uint64_t digest = 0;
  };
  std::optional<PendingSend> prepare_summary_send(uint32_t iteration);

  /// Encodes a full kSummary of held_ carrying `send.removals`, and records
  /// the announced image, version and digest in `send`. Caller holds mu_.
  std::vector<std::byte> encode_full_locked(PendingSend& send) const;

  /// Epochs aligned with merged_brokers_ (own id -> epoch_). Under mu_.
  [[nodiscard]] std::vector<uint64_t> merged_epochs_locked() const;

  BrokerConfig cfg_;
  core::WireConfig wire_;
  Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;                // pairs with stop_cv_ for retry sleeps
  std::condition_variable stop_cv_;   // woken by stop(): bounded shutdown

  /// One connection's handler thread. `done` is its last act, so joining
  /// a done handler waits only for the thread's exit, never on its work.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex threads_mu_;
  std::list<Handler> handlers_;  // done ones are joined on the next accept
  std::vector<std::weak_ptr<ClientConn>> conns_;  // for shutdown on stop()

  /// Per-sender mirror of the last announced image: the base a delta from
  /// that sender applies to.
  struct PeerShadow {
    core::SummaryImage image;
    uint64_t version = 0;
    uint64_t digest = 0;
  };
  /// Per-neighbor copy of the image we last announced (and the peer
  /// acked): the base the next outgoing delta is diffed against. Written
  /// only by on_trigger, once the ack is in.
  struct LastSent {
    core::SummaryImage image;
    uint64_t version = 0;
    uint64_t digest = 0;
    uint32_t sends_since_full = 0;
  };
  /// After kDeltaFullRefreshEvery - 1 consecutive delta sends to a peer,
  /// the next send is a full image: an anti-entropy backstop on top of
  /// the kNeedFull repair.
  static constexpr uint32_t kDeltaFullRefreshEvery = 16;

  mutable std::mutex mu_;
  core::HomeTable home_;                         // own subs, leases, c2 allocator
  core::BrokerSummary held_;                     // own + everything received
  std::vector<overlay::BrokerId> merged_brokers_;
  std::vector<model::SubId> pending_removals_;   // empty forever at a sink
  std::vector<char> communicated_;               // per neighbor id, this period
  /// No neighbor of equal or higher degree: Algorithm 2 never gives this
  /// broker a send target. Immutable after construction.
  bool sink_ = false;
  std::map<overlay::BrokerId, PeerShadow> shadows_;  // guarded by mu_
  std::map<overlay::BrokerId, LastSent> last_sent_;  // guarded by mu_
  bool held_dirty_ = false;       // rows were removed: rebuild at the boundary
  bool shadows_changed_ = false;  // a shadow image changed since the rebuild
  uint64_t publish_seq_ = 0;
  uint64_t period_seq_ = 0;  // propagation periods seen; guarded by mu_
  std::atomic<uint64_t> rpc_seq_{0};  // jitter seed stream for peer RPCs
  std::deque<PendingDelivery> pending_deliveries_;
  std::vector<uint16_t> peer_ports_;
  std::map<uint32_t, std::shared_ptr<ClientConn>> subscribers_;  // local c2 -> conn

  // Durability (null/0 when cfg_.data_dir is empty).
  std::unique_ptr<store::BrokerStore> store_;  // guarded by mu_
  uint64_t epoch_ = 0;                         // immutable after construction
  routing::EpochTable peer_epochs_;            // guarded by mu_
  RecoveryInfo recovery_;                      // immutable after construction

  // Telemetry (obs/). The registry owns the metrics; the raw pointers are
  // handles pre-registered in the constructor so hot paths never take the
  // registration lock. All internally synchronized.
  obs::MetricsRegistry metrics_;
  obs::TraceRing trace_ring_;
  obs::FlightRecorder flight_;  // black-box incident ring (ctor-initialized)
  obs::Logger log_;             // structured JSONL (kOff unless configured)
  obs::StageSet stages_;        // per-stage latency histograms w/ exemplars
  obs::Gauge* gauge_trace_dropped_ = nullptr;  // subsum_trace_spans_dropped_total
  core::QualityProbe probe_;          // owner re-filter precision (quality.h)
  routing::WalkMetrics walk_metrics_;  // BROCLI walk-efficiency counters
  std::chrono::steady_clock::time_point started_at_;  // for subsum_uptime_seconds
  obs::Counter* ctr_publishes_ = nullptr;       // subsum_publishes_total
  obs::Counter* ctr_stale_ = nullptr;           // subsum_summary_stale_dropped_total
  obs::Counter* ctr_superseded_ = nullptr;      // subsum_summary_peer_superseded_total
  obs::Counter* ctr_compactions_ = nullptr;     // subsum_store_compactions_total
  obs::Counter* ctr_drop_ttl_ = nullptr;        // subsum_redelivery_dropped_ttl_total
  obs::Counter* ctr_drop_overflow_ = nullptr;   // subsum_redelivery_dropped_overflow_total
  obs::Gauge* gauge_redelivery_depth_ = nullptr;  // subsum_redelivery_queue_depth
  obs::Counter* ctr_lease_expired_ = nullptr;    // subsum_lease_expired_total
  obs::Counter* ctr_lease_renewals_ = nullptr;   // subsum_lease_renewals_total
  obs::Counter* ctr_delta_sends_ = nullptr;      // subsum_summary_delta_sends_total
  obs::Counter* ctr_full_sends_ = nullptr;       // subsum_summary_full_sends_total
  obs::Counter* ctr_delta_bytes_ = nullptr;      // subsum_summary_delta_bytes_total
  obs::Counter* ctr_full_bytes_ = nullptr;       // subsum_summary_full_bytes_total
  obs::Counter* ctr_digest_mismatch_ = nullptr;  // subsum_summary_digest_mismatch_total
  obs::Counter* ctr_repairs_ = nullptr;  // subsum_summary_sync_total: kNeedFull answered
  obs::Histogram* hist_match_ = nullptr;        // subsum_match_latency_us
  std::vector<obs::Histogram*> hist_peer_rpc_;  // subsum_peer_rpc_latency_us{peer="N"}
  std::vector<obs::Counter*> ctr_peer_retries_;  // subsum_peer_rpc_retries_total{peer="N"}

  // Overload protection (net/governor.h). The governor keeps its own
  // steady-clock timing and atomics, so policy is identical with telemetry
  // compiled out; the registry handles above only mirror its decisions.
  std::unique_ptr<Governor> governor_;
  obs::Counter* ctr_slow_disconnect_ = nullptr;  // subsum_slow_consumer_disconnects_total

  // Continuous profiling & resource attribution (obs/profiler.h,
  // obs/memacct.h). The byte ledger exists in both builds (it feeds
  // governor policy); only the gauge mirrors compile out.
  obs::MemAccount memacct_;
  obs::ProcessGauges procgauges_;
  bool profiler_started_ = false;  // this node armed the process profiler
  std::mutex scrape_mu_;           // guards the per-scrape delta state below
  obs::Counter* ctr_cpu_samples_[obs::kThreadRoleCount] = {};  // subsum_cpu_samples_total{thread_role}
  obs::FGauge* gauge_duty_[obs::kThreadRoleCount] = {};  // subsum_thread_duty_cycle{thread_role}
  uint64_t last_cpu_samples_[obs::kThreadRoleCount] = {};
  double last_cpu_sec_[obs::kThreadRoleCount] = {};
  std::chrono::steady_clock::time_point last_duty_scrape_{};
};

}  // namespace subsum::net
