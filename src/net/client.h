// Client-side API: connect to a broker, subscribe/publish synchronously,
// and receive notifications. A background reader thread demultiplexes the
// connection: RPC replies complete the pending call; kNotify frames are
// queued for next_notification()/drain_notifications().
//
// Fault tolerance: connects and RPC round-trips run under ClientOptions
// deadlines. When an RPC finds the connection already dead (broker
// restarted), it transparently reconnects with backoff BEFORE sending —
// a failure after the request was sent is never retried (the broker may
// have acted on it), it surfaces as NetError/NetTimeout.
//
// Session resumption: the client remembers the SubIds it owns and, on
// every reconnect, re-binds them to the new connection with a kAttach
// handshake. Against a crash-recovered broker (one with a data dir) the
// old subscriptions keep notifying this client without any re-subscribe;
// a broker that lost them (ephemeral restart) simply binds none, and the
// caller re-subscribes as before.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "model/event.h"
#include "model/subscription.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/backoff.h"

namespace subsum::net {

struct ClientOptions {
  std::chrono::milliseconds connect_timeout{1000};
  /// Deadline for one RPC round-trip. publish() spans the broker's whole
  /// BROCLI walk, so this must cover the broker-side walk budget.
  /// Zero waits forever.
  std::chrono::milliseconds rpc_timeout{30000};
  /// Reconnect (with backoff) when an RPC finds the connection dead.
  bool auto_reconnect = true;
  util::BackoffPolicy backoff{std::chrono::milliseconds{20},
                              std::chrono::milliseconds{500}, 3};
  /// Ceiling on any server retry-after hint this client will honor. A
  /// shedding broker's hint raises the backoff delay to at least the hint
  /// (util::Backoff::next_delay(floor)), clamped here so a bogus hint
  /// cannot park the client forever.
  std::chrono::milliseconds retry_after_ceiling{5000};
};

/// An RPC was explicitly rejected by broker admission control (a kError
/// reply with a non-generic ErrorMsg code) and the client's retry budget is
/// spent. The broker did NOT act on the request.
class Throttled : public NetError {
 public:
  Throttled(uint8_t code, uint32_t retry_after_ms, const std::string& what)
      : NetError(what), code_(code), retry_after_ms_(retry_after_ms) {}
  [[nodiscard]] uint8_t code() const noexcept { return code_; }
  [[nodiscard]] uint32_t retry_after_ms() const noexcept { return retry_after_ms_; }

 private:
  uint8_t code_;
  uint32_t retry_after_ms_;
};

class Client {
 public:
  /// Connects to a broker on 127.0.0.1:port. The schema must match the
  /// broker's.
  Client(uint16_t port, const model::Schema& schema, ClientOptions opts = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Registers a subscription; blocks for the broker's ack.
  model::SubId subscribe(const model::Subscription& sub);

  /// Registers a subscription with an explicit soft-state lease (v4):
  /// unless renewed (renew_leases) or re-attached within `lease_periods`
  /// propagation periods, the broker expires it like an unsubscribe.
  /// An explicit 0 pins it permanent even against a broker that defaults
  /// new subscriptions to leased.
  model::SubId subscribe(const model::Subscription& sub, uint32_t lease_periods);

  /// Resets the lease window on the given owned subscriptions (or, with no
  /// argument, on everything this client owns). Returns how many ids had a
  /// live lease to refresh; permanent subscriptions never count.
  uint32_t renew_leases(const std::vector<model::SubId>& ids);
  uint32_t renew_leases();

  /// Removes a subscription; blocks for the ack.
  void unsubscribe(model::SubId id);

  /// Publishes an event; returns after the full distributed walk (and all
  /// deliveries) completed. The returned value is the trace id the broker
  /// minted for the event (PROTOCOL v3) — feed it to fetch_trace() to pull
  /// the event's span log; 0 against a v2 broker.
  uint64_t publish(const model::Event& event);

  /// Scrapes the broker's metrics registry: Prometheus text exposition.
  std::string stats_text();

  /// Fetches spans from the broker's span ring. trace 0 = all retained
  /// spans; max_spans 0 = uncapped, otherwise the newest N.
  std::vector<obs::Span> fetch_trace(uint64_t trace = 0, uint32_t max_spans = 0);

  /// Pulls the broker's flight-recorder dump (kDump). The bytes are the
  /// dump FILE format verbatim — feed them to obs::decode_dump() or write
  /// them to disk for tools/subsum_blackbox.
  std::vector<std::byte> flight_dump();

  /// Next queued notification, waiting up to `timeout`. Returns nullopt on
  /// a genuine timeout. Once the connection is closed and the queue is
  /// drained, makes one reconnect (+ attach) attempt when auto_reconnect
  /// is on; a failed attempt — or auto_reconnect off — throws NetError (so
  /// pollers cannot spin on a dead connection).
  std::optional<NotifyMsg> next_notification(std::chrono::milliseconds timeout);

  /// Subscription ids currently owned by this client (subscribed minus
  /// unsubscribed); these are re-attached on reconnect.
  [[nodiscard]] std::vector<model::SubId> owned_subscriptions() const;

  /// All currently queued notifications (non-blocking).
  std::vector<NotifyMsg> drain_notifications();

  /// Whether the connection is currently usable.
  [[nodiscard]] bool connected() const;

  void close();

 private:
  Frame rpc(MsgKind kind, std::span<const std::byte> payload, MsgKind expected_ack);
  /// One send/await-reply round, reconnecting first if the connection is
  /// dead (paced by the persistent reconnect backoff; budgeted per rpc()
  /// call via `reconnect_failures`). Returns whatever frame replied.
  Frame rpc_attempt(MsgKind kind, std::span<const std::byte> payload,
                    int& reconnect_failures);
  void reader_loop();
  /// Re-establishes the connection if it is dead; single attempt, throws
  /// NetError on failure. No-op when the connection is healthy.
  void reconnect();
  void mark_dead();

  const model::Schema* schema_;
  uint16_t port_;
  ClientOptions opts_;
  Socket sock_;
  std::thread reader_;
  std::mutex lifecycle_mu_;  // serializes close() and reconnect()

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;        // connection unusable (EOF, error, or close())
  bool close_called_ = false;  // close() ran; reconnects refused
  bool rpc_in_flight_ = false;
  std::optional<Frame> reply_;
  std::deque<NotifyMsg> notifications_;
  std::vector<model::SubId> owned_;  // re-attached on reconnect
  uint64_t rpc_seq_ = 0;  // jitter seed stream for throttle-retry backoff

  /// Reconnect pacing persists ACROSS rpc calls (reset only on a successful
  /// reconnect), so a poller retrying against a dead broker climbs to the
  /// policy cap instead of restarting from base each call — the reconnect-
  /// storm fix. The per-call retry BUDGET still comes from
  /// opts_.backoff.max_attempts; this object only supplies delays.
  std::mutex backoff_mu_;
  util::Backoff reconnect_backoff_;
};

}  // namespace subsum::net
