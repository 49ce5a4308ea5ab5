#include "net/broker_node.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "core/frozen_index.h"

#ifndef SUBSUM_VERSION_STRING
#define SUBSUM_VERSION_STRING "dev"
#endif

namespace subsum::net {

using model::SubId;
using overlay::BrokerId;

BrokerNode::BrokerNode(BrokerConfig cfg)
    : cfg_(std::move(cfg)),
      wire_{model::SubIdCodec(static_cast<uint32_t>(cfg_.graph.size()),
                              cfg_.max_subs_per_broker, cfg_.schema.attr_count())},
      listener_(cfg_.port),
      home_(cfg_.id, cfg_.max_subs_per_broker),
      held_(cfg_.schema, cfg_.policy),
      flight_(cfg_.id, cfg_.flight_capacity),
      stages_(metrics_),
      probe_(metrics_),
      walk_metrics_(metrics_),
      started_at_(std::chrono::steady_clock::now()) {
  if (cfg_.id >= cfg_.graph.size()) throw std::invalid_argument("broker id outside graph");
  if (cfg_.governor.write_stall_timeout.count() <= 0) {
    // An unbounded write deadline is unsupported: a writer blocked forever
    // in send_frame holds conn->write_mu, and connection teardown and
    // stop() both serialize behind that mutex — one dead consumer would
    // deadlock broker shutdown. 0 therefore clamps to the default.
    cfg_.governor.write_stall_timeout = GovernorConfig{}.write_stall_timeout;
  }
  merged_brokers_ = {cfg_.id};
  communicated_.assign(cfg_.graph.size(), 0);

  // Pre-register every hot-path metric handle; after this, instrument code
  // only does relaxed atomic adds (obs/metrics.h).
  ctr_publishes_ = metrics_.counter("subsum_publishes_total");
  ctr_stale_ = metrics_.counter("subsum_summary_stale_dropped_total");
  ctr_superseded_ = metrics_.counter("subsum_summary_peer_superseded_total");
  ctr_compactions_ = metrics_.counter("subsum_store_compactions_total");
  ctr_drop_ttl_ = metrics_.counter("subsum_redelivery_dropped_ttl_total");
  ctr_drop_overflow_ = metrics_.counter("subsum_redelivery_dropped_overflow_total");
  gauge_redelivery_depth_ = metrics_.gauge("subsum_redelivery_queue_depth");
  ctr_lease_expired_ = metrics_.counter("subsum_lease_expired_total");
  ctr_lease_renewals_ = metrics_.counter("subsum_lease_renewals_total");
  ctr_delta_sends_ = metrics_.counter("subsum_summary_delta_sends_total");
  ctr_full_sends_ = metrics_.counter("subsum_summary_full_sends_total");
  ctr_delta_bytes_ = metrics_.counter("subsum_summary_delta_bytes_total");
  ctr_full_bytes_ = metrics_.counter("subsum_summary_full_bytes_total");
  ctr_digest_mismatch_ = metrics_.counter("subsum_summary_digest_mismatch_total");
  ctr_repairs_ = metrics_.counter("subsum_summary_sync_total");
  hist_match_ = metrics_.histogram_ex("subsum_match_latency_us");
  gauge_trace_dropped_ = metrics_.gauge("subsum_trace_spans_dropped_total");
  hist_peer_rpc_.resize(cfg_.graph.size());
  ctr_peer_retries_.resize(cfg_.graph.size());
  for (BrokerId b = 0; b < cfg_.graph.size(); ++b) {
    const std::string label = "{peer=\"" + std::to_string(b) + "\"}";
    hist_peer_rpc_[b] = metrics_.histogram("subsum_peer_rpc_latency_us" + label);
    ctr_peer_retries_[b] = metrics_.counter("subsum_peer_rpc_retries_total" + label);
  }
  governor_ = std::make_unique<Governor>(cfg_.governor, cfg_.graph.size(), metrics_);
  ctr_slow_disconnect_ = metrics_.counter("subsum_slow_consumer_disconnects_total");
  // Resource attribution + profiling handles. The constructing thread is
  // usually the process main / controller thread — register it as such.
  memacct_.bind_metrics(metrics_);
  procgauges_.bind_metrics(metrics_);
  for (size_t i = 0; i < obs::kThreadRoleCount; ++i) {
    const auto role = to_string(static_cast<obs::ThreadRole>(i));
    ctr_cpu_samples_[i] =
        metrics_.counter(obs::labeled("subsum_cpu_samples_total", "thread_role", role));
    gauge_duty_[i] =
        metrics_.fgauge(obs::labeled("subsum_thread_duty_cycle", "thread_role", role));
  }
  last_duty_scrape_ = started_at_;
  obs::Profiler::register_thread(obs::ThreadRole::kMain);
  obs::Profiler::instance().set_ring_capacity(cfg_.profile_ring_capacity);
  // Continuous profiling: an explicit config rate wins; otherwise the
  // SUBSUM_PROFILE_HZ environment arms every broker in the process (how
  // the chaos CI jobs get folded-stack artifacts without touching each
  // scenario). Folded stacks land next to flight.bin at stop().
  uint32_t profile_hz = cfg_.profile_hz;
  if (profile_hz == 0) {
    if (const char* env = std::getenv("SUBSUM_PROFILE_HZ")) {
      const long v = std::atol(env);
      if (v > 0) profile_hz = static_cast<uint32_t>(v);
    }
  }
  if (profile_hz > 0) {
    profiler_started_ = obs::Profiler::instance().start(profile_hz);
  }
  log_.configure(cfg_.log_level, cfg_.log_sink, cfg_.id, cfg_.log_max_lines_per_sec);
  governor_->set_observer(&flight_, &log_);
  // Incarnation identity for fleet collectors: constant-1 build_info with
  // the version baked into a label, plus uptime/epoch gauges (refreshed on
  // every kStats scrape) so rows can be keyed by (broker, incarnation).
  metrics_.gauge(obs::labeled("subsum_build_info", "version", SUBSUM_VERSION_STRING))->set(1);
  metrics_.gauge("subsum_uptime_seconds")->set(0);

  if (!cfg_.data_dir.empty()) {
    // Recovery runs to completion before the listener thread starts, so
    // no client or peer ever observes a half-recovered broker.
    store_ = std::make_unique<store::BrokerStore>(cfg_.data_dir, cfg_.schema, cfg_.policy,
                                                  wire_, cfg_.id, cfg_.max_subs_per_broker);
    store_->set_metrics(metrics_.histogram("subsum_wal_fsync_us"),
                        metrics_.histogram("subsum_snapshot_us"),
                        stages_.hist(obs::Stage::kWalFsync));
    store::DurableState st = store_->open();
    epoch_ = st.epoch;
    recovery_.recovered = st.epoch > 1 || st.home.size() > 0;
    recovery_.wal_torn = st.wal_torn;
    recovery_.snapshot_fell_back = st.snapshot_fell_back;
    recovery_.own_image_verified = st.own_image_verified;
    home_ = std::move(st.home);
    if (st.held) held_ = std::move(*st.held);
    for (size_t i = 0; i < st.merged_brokers.size(); ++i) {
      const BrokerId b = st.merged_brokers[i];
      if (b >= cfg_.graph.size() || b == cfg_.id) continue;
      merged_brokers_.push_back(b);
      peer_epochs_.set(b, i < st.merged_epochs.size() ? st.merged_epochs[i] : 0);
    }
    std::sort(merged_brokers_.begin(), merged_brokers_.end());
    merged_brokers_.erase(std::unique(merged_brokers_.begin(), merged_brokers_.end()),
                          merged_brokers_.end());
  }
  // Incarnation breadcrumbs: every dump opens with what this process knew
  // about its own birth, so a timeline stands alone without the log.
  flight_.record(obs::FrKind::kStart, 0, 0, epoch_);
  if (recovery_.wal_torn) flight_.record(obs::FrKind::kWalTruncateHeal);
  if (epoch_ > 0) flight_.record(obs::FrKind::kEpochBump, 0, 0, epoch_);
  if (log_.enabled(obs::LogLevel::kInfo)) {
    log_.log(obs::LogLevel::kInfo, "broker", "started", 0,
             {{"epoch", static_cast<int64_t>(epoch_)},
              {"recovered", recovery_.recovered ? 1 : 0},
              {"wal_torn", recovery_.wal_torn ? 1 : 0}});
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

BrokerNode::~BrokerNode() { stop(); }

std::string BrokerNode::flight_dump_path() const {
  if (!cfg_.flight_dump_path.empty()) return cfg_.flight_dump_path;
  if (!cfg_.data_dir.empty()) return cfg_.data_dir + "/flight.bin";
  return {};
}

void BrokerNode::set_peer_ports(std::vector<uint16_t> ports) {
  std::lock_guard lk(mu_);
  if (ports.size() != cfg_.graph.size()) {
    throw std::invalid_argument("one port per broker required");
  }
  peer_ports_ = std::move(ports);
}

void BrokerNode::stop() {
  if (stopping_.exchange(true)) return;
  {
    // The empty critical section orders the flag against waiters: any
    // retry sleep either saw stopping_ before waiting or is inside
    // wait_for and receives the notify. Shutdown time is thus bounded by
    // one RPC deadline, never a full backoff schedule.
    std::lock_guard sl(stop_mu_);
  }
  stop_cv_.notify_all();
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Handler> handlers;
  {
    std::lock_guard lk(threads_mu_);
    handlers.swap(handlers_);
    // Unblock handler threads parked in recv_frame on live connections.
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) {
        std::lock_guard wl(conn->write_mu);
        if (conn->sock) conn->sock->shutdown_both();
      }
    }
    conns_.clear();
  }
  for (auto& h : handlers) {
    if (h.thread.joinable()) h.thread.join();
  }
  // The profiler is process-wide; only the node that armed it disarms it
  // (captured samples stay drainable for post-stop inspection) and dumps
  // the folded stacks beside the flight recorder's black box.
  if (profiler_started_) {
    auto& prof = obs::Profiler::instance();
    prof.stop();
    if (!cfg_.data_dir.empty()) {
      const std::string folded = prof.folded();
      if (!folded.empty()) {
        if (std::FILE* f = std::fopen((cfg_.data_dir + "/profile.folded").c_str(), "w")) {
          std::fwrite(folded.data(), 1, folded.size(), f);
          std::fclose(f);
        }
      }
    }
  }
  // Black-box persistence: the shutdown record itself lands in the dump,
  // so a post-mortem can tell clean stops from kills (no file at all) and
  // crashes (kFatalSignal via install_fatal_dump).
  flight_.record(obs::FrKind::kShutdown);
  if (const std::string path = flight_dump_path(); !path.empty()) {
    flight_.dump_to(path);
  }
  if (log_.enabled(obs::LogLevel::kInfo)) {
    log_.log(obs::LogLevel::kInfo, "broker", "stopped");
  }
}

BrokerNode::Snapshot BrokerNode::snapshot() const {
  std::lock_guard lk(mu_);
  Snapshot s;
  s.local_subs = home_.size();
  s.merged_brokers = merged_brokers_.size();
  s.held_wire_bytes = core::wire_size(held_, wire_);
  s.pending_redeliveries = pending_deliveries_.size();
  s.epoch = epoch_;
  s.active_leases = home_.lease_count();
  s.pending_removals = pending_removals_.size();
  return s;
}

uint64_t BrokerNode::held_digest() const {
  std::lock_guard lk(mu_);
  return core::summary_digest(held_);
}

core::BrokerSummary BrokerNode::held_summary() const {
  std::lock_guard lk(mu_);
  return held_;
}

std::map<BrokerId, uint64_t> BrokerNode::shadow_digests() const {
  std::lock_guard lk(mu_);
  std::map<BrokerId, uint64_t> out;
  for (const auto& [b, sh] : shadows_) out[b] = sh.digest;
  return out;
}

std::vector<std::byte> BrokerNode::own_summary_wire() const {
  std::lock_guard lk(mu_);
  return core::encode_summary(
      core::BrokerSummary::rebuild(cfg_.schema, cfg_.policy, home_.entries()), wire_,
      /*epoch=*/0);
}

void BrokerNode::accept_loop() {
  obs::Profiler::register_thread(obs::ThreadRole::kAccept);
  while (!stopping_) {
    auto sock = listener_.accept();
    if (!sock) break;
    std::vector<std::thread> finished;
    {
      std::lock_guard lk(threads_mu_);
      if (stopping_) break;
      Handler& h = handlers_.emplace_back();
      h.thread = std::thread([this, &h, s = std::move(*sock)]() mutable {
        handle_connection(std::move(s));
        h.done = true;
      });
      // An unjoined thread keeps its stack mapped: take out the handlers
      // that finished, and join them once the new handler can register.
      handlers_.remove_if([&finished](Handler& old) {
        if (!old.done) return false;
        finished.push_back(std::move(old.thread));
        return true;
      });
    }
    for (auto& t : finished) t.join();
  }
}

void BrokerNode::handle_connection(Socket sock) {
  obs::Profiler::register_thread(obs::ThreadRole::kConn);
  // Bounds EVERY outbound write on this connection (acks included): a
  // consumer that stalls a single write past the deadline is cut off,
  // because a mid-frame timeout leaves the stream unframeable anyway.
  // Always > 0 — the constructor clamps an unsupported 0 to the default.
  sock.set_send_timeout(cfg_.governor.write_stall_timeout);
  if (cfg_.governor.conn_sndbuf_bytes > 0) {
    try {
      sock.set_send_buffer(cfg_.governor.conn_sndbuf_bytes);
    } catch (const NetError&) {
      // Best-effort: an unclamped buffer only weakens backpressure.
    }
  }
  if (!governor_->try_acquire_connection()) {
    try {
      send_frame(sock, MsgKind::kError,
                 encode(ErrorMsg{ErrorMsg::kOverCapacity, governor_->retry_after_hint()}));
    } catch (const NetError&) {
      // Refusal is best-effort; the close itself is the message.
    }
    return;
  }
  struct ConnSlot {
    Governor* g;
    ~ConnSlot() { g->release_connection(); }
  } slot{governor_.get()};
  auto conn = std::make_shared<ClientConn>();
  conn->sock = &sock;
  {
    std::lock_guard lk(threads_mu_);
    // stop() sets stopping_ before it shuts the registered connections
    // down under this lock; a connection registering after that would
    // never be shut down, and stop() would join a handler blocked on it.
    if (stopping_) return;
    std::erase_if(conns_, [](const std::weak_ptr<ClientConn>& w) { return w.expired(); });
    conns_.push_back(conn);
  }
  std::thread writer([this, conn] { writer_loop(conn); });
  std::vector<uint32_t> owned_locals;  // subscriptions registered on this conn
  try {
    while (true) {
      auto frame = recv_frame(sock);
      if (!frame) break;
      switch (frame->kind) {
        case MsgKind::kSubscribe:
          on_subscribe(sock, conn, *frame, owned_locals);
          break;
        case MsgKind::kAttach:
          on_attach(sock, conn, *frame, owned_locals);
          break;
        case MsgKind::kUnsubscribe:
          on_unsubscribe(sock, *conn, *frame);
          break;
        case MsgKind::kPublish:
          on_publish(sock, *conn, *frame);
          break;
        case MsgKind::kSummary:
          on_summary(sock, *conn, *frame);
          break;
        case MsgKind::kSummaryDelta:
          on_summary_delta(sock, *conn, *frame);
          break;
        case MsgKind::kLeaseRenew:
          on_lease_renew(sock, *conn, *frame);
          break;
        case MsgKind::kEvent:
          on_event(sock, *conn, *frame);
          break;
        case MsgKind::kDeliver:
          on_deliver(sock, *conn, *frame);
          break;
        case MsgKind::kTrigger:
          on_trigger(sock, *conn, *frame);
          break;
        case MsgKind::kStats:
          on_stats(sock, *conn, *frame);
          break;
        case MsgKind::kTrace:
          on_trace(sock, *conn, *frame);
          break;
        case MsgKind::kDump:
          on_dump(sock, *conn, *frame);
          break;
        case MsgKind::kProfile:
          on_profile(sock, *conn, *frame);
          break;
        default:
          send_frame(sock, MsgKind::kError, {});
          break;
      }
    }
  } catch (const std::exception&) {
    // Connection-level failure: drop the connection; broker state stays
    // consistent because every handler completes its mutation under mu_
    // before touching the network.
  }
  {
    // Unbind only what is still bound here: a kAttach on a newer
    // connection may have taken an id over while this one lingered.
    std::lock_guard lk(mu_);
    for (uint32_t local : owned_locals) {
      const auto it = subscribers_.find(local);
      if (it != subscribers_.end() && it->second == conn) subscribers_.erase(it);
    }
  }
  {
    std::lock_guard qk(conn->q_mu);
    conn->writer_stop = true;
  }
  conn->q_cv.notify_all();
  if (writer.joinable()) writer.join();
  {
    // write_mu orders this against stop()'s shutdown_both on conn->sock.
    std::lock_guard wl(conn->write_mu);
    conn->sock = nullptr;
  }
}

void BrokerNode::enqueue_notify(const std::shared_ptr<ClientConn>& conn,
                                std::vector<std::byte> payload, uint64_t trace) {
  const auto& g = cfg_.governor;
  {
    std::lock_guard qk(conn->q_mu);
    if (conn->writer_stop) {
      // Consumer already cut off (slow-consumer disconnect or teardown)
      // but still racing in the subscriber map: the frame is dropped.
      governor_->count_shed(Governor::Shed::kNotify);
      return;
    }
    if (payload.size() > g.conn_queue_max_bytes) {
      // Cannot fit even into an empty queue: shed it outright.
      governor_->count_shed(Governor::Shed::kNotify);
      return;
    }
    // Drop-oldest: a consumer this far behind prefers fresh events over a
    // complete-but-stale backlog (and pub/sub makes no delivery promise to
    // a subscriber that stopped reading).
    size_t dropped_bytes = 0;
    uint32_t dropped_frames = 0;
    while (!conn->outq.empty() &&
           (conn->outq_bytes + payload.size() > g.conn_queue_max_bytes ||
            conn->outq.size() >= g.conn_queue_max_frames)) {
      dropped_bytes += conn->outq.front().payload.size();
      conn->outq_bytes -= conn->outq.front().payload.size();
      conn->outq.pop_front();
      ++dropped_frames;
      governor_->count_shed(Governor::Shed::kNotify);
    }
    if (dropped_bytes) {
      governor_->sub_usage(dropped_bytes);
      flight_.record(obs::FrKind::kDropOldest, dropped_frames, 0, dropped_bytes,
                     trace);
      if (log_.enabled(obs::LogLevel::kWarn)) {
        log_.log(obs::LogLevel::kWarn, "writer", "drop-oldest shed", trace,
                 {{"frames", dropped_frames},
                  {"bytes", static_cast<int64_t>(dropped_bytes)}});
      }
    }
    // Invariant: every frame in outq has already been added to the budget
    // before it became visible, so the matching sub_usage (writer pop,
    // drop-oldest above, or the drain on writer exit) can never run first
    // and wrap the unsigned usage counter.
    governor_->add_usage(payload.size());
    conn->outq_bytes += payload.size();
    conn->outq.push_back(QueuedFrame{std::move(payload), obs::now_us(), trace});
    governor_->observe_queue(conn->outq.size(), conn->outq_bytes);
  }
  conn->q_cv.notify_one();
}

void BrokerNode::writer_loop(std::shared_ptr<ClientConn> conn) {
  obs::Profiler::register_thread(obs::ThreadRole::kWriter);
  for (;;) {
    QueuedFrame qf;
    {
      std::unique_lock qk(conn->q_mu);
      conn->q_cv.wait(qk, [&] { return conn->writer_stop || !conn->outq.empty(); });
      if (conn->writer_stop) break;
      qf = std::move(conn->outq.front());
      conn->outq.pop_front();
      conn->outq_bytes -= qf.payload.size();
    }
    governor_->sub_usage(qf.payload.size());
    stages_.observe(obs::Stage::kOutboundQueue, obs::now_us() - qf.enqueued_us,
                    qf.trace);
    try {
      const uint64_t t0 = obs::now_us();
      std::lock_guard wl(conn->write_mu);
      if (!conn->sock) break;
      send_frame(*conn->sock, MsgKind::kNotify, qf.payload);
      stages_.observe(obs::Stage::kWriterFlush, obs::now_us() - t0, qf.trace);
    } catch (const NetError&) {
      // The send stalled past write_stall_timeout (or the socket died).
      // A timeout may have cut the frame mid-stream, so the connection is
      // unframeable: disconnect — the slow-consumer terminal policy. The
      // handler thread sees the shutdown and tears the connection down.
      governor_->count_slow_disconnect();
      ctr_slow_disconnect_->inc();
      size_t queued = 0;
      int fd = -1;
      {
        std::lock_guard qk(conn->q_mu);
        queued = conn->outq_bytes;
      }
      std::lock_guard wl(conn->write_mu);
      if (conn->sock) {
        fd = conn->sock->fd();
        conn->sock->shutdown_both();
      }
      flight_.record(obs::FrKind::kSlowConsumer, static_cast<uint32_t>(fd), 0,
                     queued, qf.trace);
      if (log_.enabled(obs::LogLevel::kWarn)) {
        log_.log(obs::LogLevel::kWarn, "writer", "slow consumer disconnected",
                 qf.trace, {{"fd", fd}, {"queued_bytes", static_cast<int64_t>(queued)}});
      }
      break;
    }
  }
  // Whatever never made it out leaves the global budget with the writer.
  size_t leftover = 0;
  {
    std::lock_guard qk(conn->q_mu);
    conn->writer_stop = true;  // late enqueues become no-ops
    for (const auto& p : conn->outq) leftover += p.payload.size();
    conn->outq.clear();
    conn->outq_bytes = 0;
  }
  if (leftover) governor_->sub_usage(leftover);
}

void BrokerNode::record_span(const obs::Span& sp) {
  if (governor_->shedding(Governor::Shed::kTrace)) {
    governor_->count_shed(Governor::Shed::kTrace);
    return;
  }
  flight_.record_span(sp);
}

void BrokerNode::on_subscribe(Socket& s, const std::shared_ptr<ClientConn>& conn,
                              const Frame& f, std::vector<uint32_t>& owned_locals) {
  util::BufReader r(f.payload);
  auto sub = get_subscription(r, cfg_.schema);
  // Trailing v4 field: lease length in periods. Absent (v3 clients) means
  // the broker's default; an explicit 0 requests a permanent subscription.
  uint32_t lease = cfg_.default_lease_periods;
  if (!r.done()) lease = static_cast<uint32_t>(r.get_varint());
  SubId id;
  bool rejected = false;
  {
    std::lock_guard lk(mu_);
    if (!governor_->admit_subscription(home_.size())) {
      rejected = true;
    } else {
      id = home_.allocate(sub.mask());
      held_.add(sub, id);
      home_.add({id, std::move(sub)});
      home_.grant_lease(id, lease);
      subscribers_[id.local] = conn;
      if (store_) {
        // Durable before acked: the client may treat the ack as a promise
        // that the subscription survives kill -9.
        store_->log_subscribe(*home_.find(id));
        if (lease > 0) store_->log_lease(id, lease);
        commit_locked();
      }
    }
  }
  if (rejected) {
    // Governor capacity refusal: explicit kError with a retry-after hint
    // (the broker did NOT act), unlike id-space exhaustion (allocate()
    // throws), which is permanent and kills the connection.
    governor_->count_rejected_subscription();
    std::lock_guard wl(conn->write_mu);
    send_frame(s, MsgKind::kError,
               encode(ErrorMsg{ErrorMsg::kOverCapacity, governor_->retry_after_hint()}));
    return;
  }
  owned_locals.push_back(id.local);
  std::lock_guard wl(conn->write_mu);
  send_frame(s, MsgKind::kSubscribeAck, encode(SubscribeAckMsg{id}));
}

void BrokerNode::on_attach(Socket& s, const std::shared_ptr<ClientConn>& conn, const Frame& f,
                           std::vector<uint32_t>& owned_locals) {
  const auto msg = decode_attach_msg(f.payload);
  uint32_t bound = 0;
  {
    std::lock_guard lk(mu_);
    for (const SubId& id : msg.ids) {
      // Unknown ids (e.g. lost with a torn WAL tail) must be re-subscribed.
      if (!home_.find(id)) continue;
      subscribers_[id.local] = conn;
      owned_locals.push_back(id.local);
      // A re-attach is a liveness signal from the owner: treat it as a
      // lease renewal so reconnecting clients never race expiry.
      home_.renew_lease(id);
      ++bound;
    }
  }
  std::lock_guard wl(conn->write_mu);
  send_frame(s, MsgKind::kAttachAck, encode(AttachAckMsg{bound}));
}

void BrokerNode::on_unsubscribe(Socket& s, ClientConn& conn, const Frame& f) {
  util::BufReader r(f.payload);
  const SubId id = get_sub_id(r);
  {
    // An id this broker does not own or no longer holds is acked without
    // touching any state, so a retried unsubscribe stays idempotent.
    std::lock_guard lk(mu_);
    if (remove_subscription_locked(id)) commit_locked();
  }
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kUnsubscribeAck, {});
}

bool BrokerNode::remove_subscription_locked(SubId id) {
  if (!home_.remove(id)) return false;
  held_.remove(id);
  subscribers_.erase(id.local);
  queue_removals_locked({&id, 1});
  if (store_) store_->log_unsubscribe(id);
  return true;
}

void BrokerNode::queue_removals_locked(std::span<const SubId> ids) {
  pending_removals_.insert(pending_removals_.end(), ids.begin(), ids.end());
  if (pending_removals_.size() > kMaxPendingRemovals) pending_removals_.clear();
}

void BrokerNode::commit_locked() {
  if (!store_) return;
  obs::Profiler::ScopedRole fsync_role(obs::ThreadRole::kFsync);
  store_->commit();
  if (store_->wal_records() < cfg_.snapshot_wal_threshold) return;
  store::BrokerStore::SnapshotInput in;
  in.home = &home_;
  in.merged_brokers = merged_brokers_;
  in.merged_epochs = merged_epochs_locked();
  in.held = &held_;
  store_->write_snapshot(in);
  ctr_compactions_->inc();
}

void BrokerNode::on_publish(Socket& s, ClientConn& conn, const Frame& f) {
  // Event ingress: everything to the ack folds into the e2e stage.
  const uint64_t t_in = obs::now_us();
  // Admission first, before any decode or walk work: under overload the
  // cheapest possible path is the rejection.
  const auto adm = governor_->admit_publish();
  const uint64_t t_admitted = obs::now_us();
  if (!adm.ok) {
    std::lock_guard wl(conn.write_mu);
    send_frame(s, MsgKind::kError,
               encode(ErrorMsg{adm.shed ? ErrorMsg::kShedding : ErrorMsg::kThrottled,
                               adm.retry_after_ms}));
    return;
  }
  util::BufReader r(f.payload);
  EventMsg msg;
  msg.origin = cfg_.id;
  msg.event = get_event(r, cfg_.schema);
  const uint64_t t_decoded = obs::now_us();
  msg.brocli = routing::make_bitmap(cfg_.graph.size());
  {
    std::lock_guard lk(mu_);
    msg.seq = publish_seq_++;
  }
  // Mint the causal trace id here — the publish edge is the root of the
  // event's span tree — and hand it back in the ack (v3; v2 clients
  // ignore the payload).
  msg.trace = obs::mint_trace_id(cfg_.id, msg.seq, obs::now_us());
  const uint64_t trace = msg.trace;
  stages_.observe(obs::Stage::kAdmission, t_admitted - t_in, trace);
  stages_.observe(obs::Stage::kIngressDecode, t_decoded - t_admitted, trace);
  ctr_publishes_->inc();
  walk_metrics_.walks->inc();  // a walk is rooted at the publish edge
  walk_step(std::move(msg), f.payload.size());
  // Broker-observed e2e: publish ingress until the synchronous walk (all
  // deliveries included) finished. The exemplar makes a p99 spike here one
  // `subsum_stats --trace` away from its span chain.
  stages_.observe(obs::Stage::kE2e, obs::now_us() - t_in, trace);
  util::BufWriter w;
  w.put_u64(trace);
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kPublishAck, w.bytes());
}

void BrokerNode::ingest_full_summary(SummaryMsg msg) {
  uint64_t image_epoch = 0;
  auto incoming = core::decode_summary(msg.summary, cfg_.schema, cfg_.policy,
                                       core::AacsMode::kExact, &image_epoch);
  std::lock_guard lk(mu_);
  // A newer incarnation's image carries its full current state (sends are
  // state-based), so the epoch discard in ingest_locked then this merge
  // converges.
  ingest_locked(msg, image_epoch, [&](routing::EpochCheck) {
    // Mirror the sender's announced image BEFORE the removal piggyback
    // touches it: the shadow is the base later deltas apply to and must
    // match the sender's last_sent copy bit for bit.
    auto& sh = shadows_[msg.from];
    if (sh.digest != msg.digest || sh.version != msg.version) shadows_changed_ = true;
    sh = PeerShadow{core::extract_image(incoming), msg.version, msg.digest};
    for (const SubId& id : msg.removals) incoming.remove(id);
    held_.merge(incoming);
    return true;
  });
}

void BrokerNode::ingest_locked(SummaryEnvelope& msg, uint64_t epoch,
                               const std::function<bool(routing::EpochCheck)>& fold) {
  if (msg.from < communicated_.size()) communicated_[msg.from] = 1;
  // Anti-entropy by incarnation: an announcement stamped with an epoch
  // older than one already seen from that sender is a zombie of a
  // pre-crash incarnation — dropped wholesale.
  const auto from_check = peer_epochs_.observe(msg.from, epoch);
  if (from_check == routing::EpochCheck::kStale) {
    ctr_stale_->inc();
    return;
  }
  if (from_check == routing::EpochCheck::kNewer) {
    // The sender restarted: everything we hold on its behalf is from the
    // old incarnation.
    held_.remove_broker(msg.from);
    ctr_superseded_->inc();
  }
  for (size_t i = 0; i < msg.merged_brokers.size(); ++i) {
    const BrokerId b = msg.merged_brokers[i];
    if (b == cfg_.id || b == msg.from) continue;
    const uint64_t e = i < msg.epochs.size() ? msg.epochs[i] : 0;
    if (peer_epochs_.observe(b, e) == routing::EpochCheck::kNewer) {
      // Transitive case: the sender aggregated b's post-restart state, so
      // our pre-restart rows for b are superseded too. (A kStale entry is
      // merged anyway: stale rows only cause spurious deliveries, which
      // the owner's exact re-filter rejects, and they wash out at the next
      // direct announcement from b.)
      held_.remove_broker(b);
      ctr_superseded_->inc();
    }
  }
  if (!fold(from_check)) return;
  for (const SubId& id : msg.removals) held_.remove(id);
  routing::merge_brokers(merged_brokers_, std::move(msg.merged_brokers));
}

void BrokerNode::on_summary(Socket& s, ClientConn& conn, const Frame& f) {
  ingest_full_summary(decode_summary_msg(f.payload));
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kSummaryAck, {});
}

void BrokerNode::on_summary_delta(Socket& s, ClientConn& conn, const Frame& f) {
  auto msg = decode_summary_delta_msg(f.payload);
  core::DeltaHeader hdr;
  const auto delta = core::decode_delta(msg.delta, cfg_.schema, &hdr);
  // Set only for a sender that is not stale: a zombie incarnation is
  // dropped but acked kApplied, so it does not spiral into repair loops
  // against state it cannot own.
  bool need_full = false;
  {
    std::lock_guard lk(mu_);
    ingest_locked(msg, hdr.epoch, [&](routing::EpochCheck from_check) {
      // A new incarnation deltas against a base this side cannot hold.
      if (from_check == routing::EpochCheck::kNewer) shadows_.erase(msg.from);
      auto it = shadows_.find(msg.from);
      if (it == shadows_.end() || it->second.version != hdr.base_version ||
          it->second.digest != hdr.base_digest) {
        // No shadow (first contact, restart) or a different base than the
        // diff assumes: only a full image can re-anchor this link. The
        // sender pushes one, with this delta's removals, on kNeedFull.
        need_full = true;
        return false;
      }
      PeerShadow& sh = it->second;
      core::apply_delta(sh.image, delta);
      const uint64_t got = core::image_digest(sh.image);
      if (got != hdr.new_digest) {
        // The edits did not land on the digest the sender stamped: the
        // link diverged. Leave the shadow as-is — the sender's full image
        // replaces it wholesale.
        ctr_digest_mismatch_->inc();
        need_full = true;
        return false;
      }
      sh.version = hdr.new_version;
      sh.digest = got;
      if (!delta.empty()) shadows_changed_ = true;
      // Fold the delta into held_ incrementally: additions go through row
      // insertion now (matching must not miss them this period); removals
      // and dropped rows are deferred to the period-boundary rebuild,
      // which re-derives held_ from own rows + shadows.
      for (size_t a = 0; a < delta.arith.size(); ++a) {
        const auto attr = static_cast<model::AttrId>(a);
        for (const auto& e : delta.arith[a]) {
          if (e.drop || !e.del.empty()) held_dirty_ = true;
          if (!e.drop && !e.add.empty()) held_.insert_arith(attr, e.iv, e.add);
        }
      }
      for (size_t a = 0; a < delta.strings.size(); ++a) {
        const auto attr = static_cast<model::AttrId>(a);
        for (const auto& e : delta.strings[a]) {
          if (e.drop || !e.del.empty()) held_dirty_ = true;
          if (!e.drop && !e.add.empty()) held_.insert_string(attr, e.pattern, e.add);
        }
      }
      return true;
    });
  }
  SummaryDeltaAckMsg ack;
  ack.status = need_full ? SummaryDeltaAckMsg::kNeedFull : SummaryDeltaAckMsg::kApplied;
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kSummaryDeltaAck, encode(ack));
}

void BrokerNode::on_lease_renew(Socket& s, ClientConn& conn, const Frame& f) {
  const auto msg = decode_lease_renew_msg(f.payload);
  uint32_t renewed = 0;
  {
    std::lock_guard lk(mu_);
    for (const SubId& id : msg.ids) {
      if (!home_.renew_lease(id)) continue;  // permanent, expired or not ours
      ++renewed;
      if (store_) store_->log_lease(id, home_.find(id)->lease.ttl);
    }
    if (renewed > 0) commit_locked();
  }
  ctr_lease_renewals_->inc(renewed);
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kLeaseRenewAck, encode(LeaseRenewAckMsg{renewed}));
}

void BrokerNode::begin_period() {
  std::lock_guard lk(mu_);
  flight_.record(obs::FrKind::kPeriodBegin, 0, 0, ++period_seq_);
  // 1. Subscription leases: every period costs one tick; a lease that hits
  // zero expires exactly like an unsubscribe (summary rows age out, the
  // removal piggybacks to neighbors, durable state forgets it).
  const std::vector<SubId> expired = home_.tick_leases();
  for (const SubId& id : expired) {
    remove_subscription_locked(id);
    ctr_lease_expired_->inc();
    flight_.record(obs::FrKind::kLeaseExpired, id.local, id.broker);
    if (log_.enabled(obs::LogLevel::kInfo)) {
      log_.log(obs::LogLevel::kInfo, "lease", "subscription lease expired", 0,
               {{"local", id.local}, {"owner", id.broker}});
    }
  }
  if (!expired.empty()) {
    held_dirty_ = true;
    commit_locked();
  }
  // 2. Rebuild held_ = own rows + shadow images when anything shrank
  // (removals/drops are deferred to here) or a shadow changed.
  // Quiet periods leave both flags clear, so a converged overlay is a
  // fixed point — the convergence assertion the chaos suite keys on.
  // Own rows come from the home table alone: a peer's image can echo them
  // back (on line(2) the two brokers announce to each other), and the echo
  // of a removed subscription must not outlive its removal.
  if (held_dirty_ || shadows_changed_) {
    held_ = core::BrokerSummary::rebuild(cfg_.schema, cfg_.policy, home_.entries());
    for (const auto& [b, sh] : shadows_) core::merge_into_summary(sh.image, held_, cfg_.id);
    held_dirty_ = false;
    shadows_changed_ = false;
  }
}

std::optional<BrokerNode::PendingSend> BrokerNode::prepare_summary_send(uint32_t iteration) {
  std::lock_guard lk(mu_);
  if (iteration == 1) {
    // A new period starts: reset per-period pairing state.
    std::fill(communicated_.begin(), communicated_.end(), 0);
  }
  if (cfg_.graph.degree(cfg_.id) != iteration) return std::nullopt;
  const auto target = routing::send_target(cfg_.graph, cfg_.id, communicated_);
  if (!target) {
    // Every eligible neighbor already sent here this period, so nothing
    // carries the queued removals; any later announcement's image already
    // leaves those ids out.
    pending_removals_.clear();
    return std::nullopt;
  }
  communicated_[*target] = 1;

  PendingSend send;
  send.to = *target;
  send.removals = std::exchange(pending_removals_, {});
  // A peer that acked a base gets a delta, except for the periodic
  // full-refresh backstop.
  const auto ls = last_sent_.find(*target);
  if (ls == last_sent_.end() || ls->second.sends_since_full + 1 >= kDeltaFullRefreshEvery) {
    send.kind = MsgKind::kSummary;
    send.payload = encode_full_locked(send);
    return send;
  }
  send.image = core::extract_image(held_);
  send.version = held_.version();
  send.digest = core::image_digest(send.image);
  core::DeltaHeader hdr;
  hdr.epoch = epoch_;
  hdr.base_version = ls->second.version;
  hdr.new_version = send.version;
  hdr.base_digest = ls->second.digest;
  hdr.new_digest = send.digest;
  SummaryDeltaMsg dm;
  dm.from = cfg_.id;
  dm.merged_brokers = merged_brokers_;
  dm.epochs = merged_epochs_locked();
  dm.removals = send.removals;
  dm.delta = core::encode_delta(core::diff_images(ls->second.image, send.image), cfg_.schema,
                                wire_, hdr);
  send.kind = MsgKind::kSummaryDelta;
  send.payload = encode(dm);
  return send;
}

std::vector<std::byte> BrokerNode::encode_full_locked(PendingSend& send) const {
  send.image = core::extract_image(held_);
  send.version = held_.version();
  send.digest = core::image_digest(send.image);
  SummaryMsg full;
  full.from = cfg_.id;
  full.merged_brokers = merged_brokers_;
  full.epochs = merged_epochs_locked();
  full.removals = send.removals;
  full.summary = core::encode_summary(held_, wire_, epoch_);
  full.version = send.version;
  full.digest = send.digest;
  return encode(full);
}

std::vector<uint64_t> BrokerNode::merged_epochs_locked() const {
  std::vector<uint64_t> es;
  es.reserve(merged_brokers_.size());
  for (BrokerId b : merged_brokers_) {
    es.push_back(b == cfg_.id ? epoch_ : peer_epochs_.epoch_of(b));
  }
  return es;
}

void BrokerNode::on_trigger(Socket& s, ClientConn& conn, const Frame& f) {
  const auto msg = decode_trigger_msg(f.payload);
  if (msg.iteration == 1) {
    begin_period();
    flush_pending_deliveries();
    // Period boundaries re-measure attribution even without a scraper, so
    // the ladder reacts to summary/index growth within one period.
    refresh_memory_accounting();
  }
  auto send = prepare_summary_send(msg.iteration);
  if (send) {
    // Sends `send` and counts it; true when the peer now holds its image.
    const auto announce = [&] {
      const Frame ack = rpc_to_peer(send->to, send->kind, send->payload);
      const bool full = send->kind == MsgKind::kSummary;
      (full ? ctr_full_sends_ : ctr_delta_sends_)->inc();
      (full ? ctr_full_bytes_ : ctr_delta_bytes_)->inc(send->payload.size());
      return full ||
             decode_summary_delta_ack(ack.payload).status == SummaryDeltaAckMsg::kApplied;
    };
    try {
      if (!announce()) {
        // The peer holds no base for the delta (a restart, a divergence):
        // push the full image, carrying the same removals, in this trigger.
        ctr_repairs_->inc();
        {
          std::lock_guard lk(mu_);
          send->kind = MsgKind::kSummary;
          send->payload = encode_full_locked(*send);
        }
        announce();
      }
      std::lock_guard lk(mu_);
      LastSent& ls = last_sent_[send->to];
      const uint32_t streak =
          send->kind == MsgKind::kSummary ? 0 : ls.sends_since_full + 1;
      ls = LastSent{std::move(send->image), send->version, send->digest, streak};
    } catch (const PeerUnreachable&) {
      // Dead neighbor: the summary itself is not lost — the state-based
      // resend repeats every period — but the removal piggyback must
      // survive for a later period. Ack the trigger so the controller's
      // round continues for live brokers.
      std::lock_guard lk(mu_);
      queue_removals_locked(send->removals);
    }
  }
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kTriggerAck, {});
}

void BrokerNode::on_event(Socket& s, ClientConn& conn, const Frame& f) {
  const uint64_t t0 = obs::now_us();
  auto msg = decode_event_msg(f.payload, cfg_.schema);
  stages_.observe(obs::Stage::kIngressDecode, obs::now_us() - t0, msg.trace);
  walk_step(std::move(msg), f.payload.size());
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kEventAck, {});
}

void BrokerNode::on_deliver(Socket& s, ClientConn& conn, const Frame& f) {
  const auto msg = decode_deliver_msg(f.payload, cfg_.schema);
  if (msg.trace) {
    // The owner-side deliver span: together with the sender's spans this
    // closes the publish -> deliver causal chain across brokers.
    record_span({msg.trace, cfg_.id, obs::Phase::kDeliver, msg.examined_at,
                 obs::now_us(), f.payload.size()});
  }
  notify_owners(msg.ids, msg.event, msg.trace);
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kDeliverAck, {});
}

void BrokerNode::notify_owners(std::span<const SubId> ids, const model::Event& event,
                               uint64_t trace) {
  std::map<std::shared_ptr<ClientConn>, std::vector<SubId>> per_conn;
  size_t exact = 0;
  {
    std::lock_guard lk(mu_);
    const auto kept = home_.refilter(ids, event);
    exact = kept.size();
    for (const SubId& id : kept) {
      auto it = subscribers_.find(id.local);
      if (it != subscribers_.end()) per_conn[it->second].push_back(id);
    }
  }
  // Summary precision, counted where the exact answer already exists:
  // every delivered id was a summary candidate, and the re-filter kept the
  // true matches. The count is the first thing rung 1 sheds.
  if (governor_->shedding(Governor::Shed::kProbe)) {
    governor_->count_shed(Governor::Shed::kProbe);
  } else {
    probe_.record(ids.size(), exact);
  }
  for (auto& [client, cids] : per_conn) {
    enqueue_notify(client, encode(NotifyMsg{std::move(cids), event}, cfg_.schema), trace);
  }
}

namespace {
/// Estimated resident bytes of one mirrored summary image (rows, id
/// vectors, pattern operands). An estimate, not an allocator audit.
uint64_t image_bytes(const core::SummaryImage& im) noexcept {
  uint64_t b = sizeof(im);
  for (const auto& rows : im.arith) {
    b += rows.capacity() * sizeof(core::SummaryImage::ArithRow);
    for (const auto& r : rows) b += r.ids.capacity() * sizeof(model::SubId);
  }
  for (const auto& rows : im.strings) {
    b += rows.capacity() * sizeof(core::SummaryImage::StringRow);
    for (const auto& r : rows) {
      b += r.ids.capacity() * sizeof(model::SubId) + r.pattern.operand.capacity();
    }
  }
  return b;
}

/// Estimated resident bytes of a summary from its row and id counts: the
/// rows, their id vectors and string operands. O(rows); nothing encoded.
uint64_t summary_bytes(const core::BrokerSummary& s) noexcept {
  const core::SummaryStats st = s.stats();
  return (st.nsr + st.ne) * sizeof(core::Aacs::Piece) + st.nr * sizeof(core::Sacs::Row) +
         (st.la_entries + st.ls_entries) * sizeof(model::SubId) + st.value_bytes;
}
}  // namespace

void BrokerNode::refresh_memory_accounting() {
  using obs::MemComponent;
  uint64_t index_b = 0, held_b = 0, shadow_b = 0, wal_b = 0, snap_b = 0;
  uint64_t redeliver_b = 0;
  {
    std::lock_guard lk(mu_);
    held_b = summary_bytes(held_);
    if (const auto idx = held_.frozen_if_built()) index_b = idx->memory_bytes();
    for (const auto& [b, sh] : shadows_) shadow_b += image_bytes(sh.image);
    // The last_sent_ delta bases are full images this broker retains too.
    for (const auto& [b, ls] : last_sent_) shadow_b += image_bytes(ls.image);
    if (store_) {
      wal_b = store_->wal_bytes();
      snap_b = store_->last_snapshot_bytes();
    }
    for (const auto& pd : pending_deliveries_) redeliver_b += pd.payload.size();
  }
  memacct_.set(MemComponent::kIndexArenas, index_b);
  memacct_.set(MemComponent::kHeldSummary, held_b);
  memacct_.set(MemComponent::kShadowSummaries, shadow_b);
  memacct_.set(MemComponent::kWalBuffers, wal_b);
  memacct_.set(MemComponent::kSnapshotBuffers, snap_b);
  memacct_.set(MemComponent::kRedeliveryQueue, redeliver_b);
  memacct_.set(MemComponent::kOutboundQueues, governor_->usage());
  memacct_.set(MemComponent::kTraceRing,
               obs::FlightRecorder::kSpanCapacity * sizeof(obs::FrRecord));
  memacct_.set(MemComponent::kFlightRing,
               flight_.capacity() * sizeof(obs::FrRecord));
  // Exemplar retention: the stage histograms plus the match histogram each
  // keep one small slot per bucket (estimated at 32 bytes/slot).
  memacct_.set(MemComponent::kExemplarSlots,
               (obs::kStageCount + 1) * (obs::Histogram::kBuckets + 1) * 32);
  memacct_.set(MemComponent::kProfilerRing, obs::Profiler::instance().ring_bytes());
  // Feed the degradation ladder everything its own outbound/redelivery
  // accounting does not already stream in (double-count free).
  governor_->set_external_bytes(memacct_.governor_external_bytes());
}

void BrokerNode::on_stats(Socket& s, ClientConn& conn, const Frame&) {
  // Refresh the level gauges from a consistent snapshot, then serve the
  // whole registry as Prometheus text (v3; the v2 varint triple is gone —
  // nothing ever parsed it). get-or-register is fine here: this is the
  // admin path, not a hot path.
  const Snapshot snap = snapshot();
  metrics_.gauge("subsum_local_subs")->set(static_cast<int64_t>(snap.local_subs));
  metrics_.gauge("subsum_merged_brokers")->set(static_cast<int64_t>(snap.merged_brokers));
  metrics_.gauge("subsum_held_wire_bytes")->set(static_cast<int64_t>(snap.held_wire_bytes));
  metrics_.gauge("subsum_epoch")->set(static_cast<int64_t>(snap.epoch));
  metrics_.gauge("subsum_active_leases")->set(static_cast<int64_t>(snap.active_leases));
  metrics_.gauge("subsum_summary_digest")->set(static_cast<int64_t>(held_digest()));
  gauge_redelivery_depth_->set(static_cast<int64_t>(snap.pending_redeliveries));
  metrics_.gauge("subsum_health_rung")->set(governor_->rung());
  metrics_.gauge("subsum_outbound_usage_bytes")
      ->set(static_cast<int64_t>(governor_->usage()));
  metrics_.gauge("subsum_outbound_peak_bytes")
      ->set(static_cast<int64_t>(governor_->peak_usage()));
  metrics_.gauge("subsum_governor_connections")
      ->set(static_cast<int64_t>(governor_->connections()));
  gauge_trace_dropped_->set(static_cast<int64_t>(flight_.spans_dropped()));
  metrics_.gauge("subsum_uptime_seconds")
      ->set(std::chrono::duration_cast<std::chrono::seconds>(std::chrono::steady_clock::now() -
                                                             started_at_)
                .count());
  {
    // The summary gauges are computed here and only here: the held image
    // changes on subscribes, ingests and rebuilds, and only a scrape reads
    // them. The snapshot's one encode measures the wire size for both
    // gauges that report it.
    std::lock_guard lk(mu_);
    core::export_model_drift(metrics_, held_, snap.held_wire_bytes);
    core::export_row_occupancy(metrics_, held_);
    core::export_shard_metrics(metrics_, held_);
  }
  refresh_memory_accounting();
  procgauges_.refresh();
  {
    // Profiler mirrors: cumulative per-role sample counters, and duty
    // cycle as each role's CPU-seconds delta over the wall-clock delta
    // since the previous scrape (busy cores per role).
    auto& prof = obs::Profiler::instance();
    metrics_.gauge("subsum_profiler_running")->set(prof.running() ? 1 : 0);
    metrics_.gauge("subsum_profiler_samples")
        ->set(static_cast<int64_t>(prof.samples_total()));
    metrics_.gauge("subsum_profiler_dropped_samples")
        ->set(static_cast<int64_t>(prof.dropped_total()));
    double cpu[obs::kThreadRoleCount];
    prof.cpu_seconds(cpu);
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard sk(scrape_mu_);
    const double wall = std::chrono::duration<double>(now - last_duty_scrape_).count();
    for (size_t i = 0; i < obs::kThreadRoleCount; ++i) {
      const uint64_t n = prof.samples_for(static_cast<obs::ThreadRole>(i));
      if (n > last_cpu_samples_[i]) ctr_cpu_samples_[i]->inc(n - last_cpu_samples_[i]);
      last_cpu_samples_[i] = n;
      // Sub-50ms re-scrapes keep the previous reading: a duty cycle from a
      // near-zero wall delta is all noise.
      if (wall > 0.05) {
        gauge_duty_[i]->set((cpu[i] - last_cpu_sec_[i]) / wall);
        last_cpu_sec_[i] = cpu[i];
      }
    }
    if (wall > 0.05) last_duty_scrape_ = now;
  }
  const std::string text = metrics_.prometheus_text();
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kStatsAck,
             std::span(reinterpret_cast<const std::byte*>(text.data()), text.size()));
}

void BrokerNode::on_trace(Socket& s, ClientConn& conn, const Frame& f) {
  const auto req = decode_trace_request(f.payload);
  TraceReplyMsg reply;
  reply.spans = flight_.spans(req.trace);
  if (req.max_spans && reply.spans.size() > req.max_spans) {
    reply.spans.erase(reply.spans.begin(), reply.spans.end() - req.max_spans);  // keep newest
  }
  const auto payload = encode(reply);
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kTraceAck, payload);
}

void BrokerNode::on_dump(Socket& s, ClientConn& conn, const Frame&) {
  // Serve the ring as the dump file format, verbatim: the on-disk and
  // over-the-wire shapes are identical, so tools/subsum_blackbox reads
  // both. The request itself is recorded — a dump that shows its own
  // collection is self-dating.
  flight_.record(obs::FrKind::kDump);
  const auto bytes = flight_.serialize();
  if (const std::string path = flight_dump_path(); !path.empty()) {
    flight_.dump_to(path);  // best-effort: the RPC reply is the contract
  }
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kDumpAck, bytes);
}

void BrokerNode::on_profile(Socket& s, ClientConn& conn, const Frame& f) {
  // Control plane, like kStats/kDump: never shed. The sampler is
  // process-wide, so on an in-process cluster any node's kProfile drives
  // the same instance; under -DSUBSUM_NO_TELEMETRY every action reports a
  // stopped profiler with empty folded stacks (wire format intact).
  const auto req = decode_profile_request(f.payload);
  auto& prof = obs::Profiler::instance();
  ProfileReplyMsg reply;
  switch (req.action) {
    case ProfileRequestMsg::kStart:
      prof.start(req.hz ? req.hz : obs::kDefaultProfileHz);
      break;
    case ProfileRequestMsg::kStop:
      prof.stop();
      break;
    case ProfileRequestMsg::kFetch:
      reply.folded = prof.folded();
      break;
    case ProfileRequestMsg::kStatus:
    default:
      break;
  }
  reply.running = prof.running() ? 1 : 0;
  reply.hz = prof.running() ? prof.hz() : 0;
  reply.samples = prof.samples_total();
  reply.dropped = prof.dropped_total();
  const auto payload = encode(reply);
  std::lock_guard wl(conn.write_mu);
  send_frame(s, MsgKind::kProfileAck, payload);
}

void BrokerNode::walk_step(EventMsg msg, size_t frame_bytes) {
  // Samples taken while this conn thread executes the walk attribute to
  // the walk role — the "is matching/forwarding the bottleneck" signal.
  obs::Profiler::ScopedRole walk_role(obs::ThreadRole::kWalk);
  const uint64_t trace = msg.trace;
  if (trace) {
    record_span({trace, cfg_.id, obs::Phase::kRecv, obs::Span::kNoPeer,
                 obs::now_us(), frame_bytes});
  }
  walk_metrics_.visits->inc();  // this broker examines the event
  // Snapshot what we need under the lock; all networking happens after.
  std::vector<SubId> matched;
  std::vector<BrokerId> merged;
  {
    std::lock_guard lk(mu_);
    const uint64_t t0 = obs::now_us();
    matched = core::match(held_, msg.event);
    const uint64_t dt = obs::now_us() - t0;
    hist_match_->observe_ex(dt, trace);
    stages_.observe(obs::Stage::kMatch, dt, trace);
    merged = merged_brokers_;
  }
  if (trace) {
    // bytes carries the matched-id count for match spans (there is no
    // frame to account).
    record_span({trace, cfg_.id, obs::Phase::kMatch, obs::Span::kNoPeer,
                 obs::now_us(), matched.size()});
  }

  for (auto& [owner, ids] : routing::examine(matched, merged, msg.brocli)) {
    if (owner == cfg_.id) {
      // Local delivery without a network hop: the deliver path in-process.
      notify_owners(ids, msg.event, trace);
      if (trace) {
        record_span({trace, cfg_.id, obs::Phase::kDeliver, cfg_.id,
                     obs::now_us(), ids.size()});
      }
    } else {
      auto payload =
          encode(DeliverMsg{cfg_.id, std::move(ids), msg.event, trace}, cfg_.schema);
      const uint64_t frame_size = payload.size();
      try {
        rpc_to_peer(owner, MsgKind::kDeliver, payload, {}, trace);
        walk_metrics_.delivery_hops->inc();
        if (trace) {
          record_span({trace, cfg_.id, obs::Phase::kDeliver, owner,
                       obs::now_us(), frame_size});
        }
      } catch (const PeerUnreachable&) {
        // The owner is down: keep the delivery for the redelivery pass so
        // a restarted broker (whose client re-attached) still hears it.
        walk_metrics_.undeliverable->inc();
        queue_redelivery(PendingDelivery{owner, std::move(payload), kRedeliveryTtl, trace});
      }
    }
  }

  // Forward to the highest-degree broker not yet in BROCLI. A hop that
  // stays unreachable after the retry budget is marked examined (its
  // subscribers are unreachable too) and the walk degrades to the
  // next-highest-degree live broker, so one dead broker cannot stall a
  // publish or strand the remaining subscribers.
  const size_t n = cfg_.graph.size();
  while (const auto next = routing::next_hop(cfg_.graph, msg.brocli)) {
    // The peer acks kEvent only after finishing its own downstream walk,
    // so the ack deadline scales with the work left, not one io_timeout.
    const size_t remaining = n - routing::bitmap_count(msg.brocli, n);
    const auto ack_budget = cfg_.rpc.io_timeout * static_cast<int>(remaining + 1);
    const auto payload = encode(msg, cfg_.schema);
    try {
      rpc_to_peer(*next, MsgKind::kEvent, payload, ack_budget, trace);
      walk_metrics_.forward_hops->inc();
      if (trace) {
        record_span({trace, cfg_.id, obs::Phase::kForward, *next,
                     obs::now_us(), payload.size()});
      }
      return;
    } catch (const PeerUnreachable&) {
      // Unexamined re-select: the hop is marked in BROCLI without its
      // subscriptions having been examined, and the walk degrades.
      walk_metrics_.reselects->inc();
      routing::bitmap_set(msg.brocli, *next);
    }
  }
}

void BrokerNode::queue_redelivery(PendingDelivery pd) {
  if (governor_->shedding(Governor::Shed::kRedelivery)) {
    // Rung 3: redeliveries are best-effort (TTL-bounded) by contract, so
    // under pressure new ones are dropped before touching the queue.
    governor_->count_shed(Governor::Shed::kRedelivery);
    return;
  }
  governor_->add_usage(pd.payload.size());
  std::lock_guard lk(mu_);
  if (pending_deliveries_.size() >= kMaxPendingDeliveries) {
    governor_->sub_usage(pending_deliveries_.front().payload.size());
    pending_deliveries_.pop_front();
    ctr_drop_overflow_->inc();
  }
  pending_deliveries_.push_back(std::move(pd));
  gauge_redelivery_depth_->set(static_cast<int64_t>(pending_deliveries_.size()));
}

void BrokerNode::flush_pending_deliveries() {
  std::deque<PendingDelivery> work;
  {
    std::lock_guard lk(mu_);
    work.swap(pending_deliveries_);
    gauge_redelivery_depth_->set(0);
  }
  if (work.empty()) return;
  // The swapped-out batch leaves the budget; survivors re-enter through
  // queue_redelivery below.
  size_t batch_bytes = 0;
  for (const auto& pd : work) batch_bytes += pd.payload.size();
  governor_->sub_usage(batch_bytes);
  std::vector<char> down(cfg_.graph.size(), 0);  // short-circuit per owner
  for (auto& pd : work) {
    if (!down[pd.owner]) {
      if (pd.trace) {
        record_span({pd.trace, cfg_.id, obs::Phase::kRedeliver, pd.owner,
                     obs::now_us(), pd.payload.size()});
      }
      try {
        rpc_to_peer(pd.owner, MsgKind::kDeliver, pd.payload, {}, pd.trace);
        continue;
      } catch (const PeerUnreachable&) {
        down[pd.owner] = 1;
      }
    }
    if (--pd.ttl > 0) {
      queue_redelivery(std::move(pd));
    } else {
      // The at-most-once bound kicked in: record it so operators (and the
      // fault suite) can see deliveries aged out rather than vanishing.
      ctr_drop_ttl_->inc();
    }
  }
}

Frame BrokerNode::rpc_to_peer(BrokerId peer, MsgKind kind,
                              std::span<const std::byte> payload,
                              std::optional<std::chrono::milliseconds> ack_timeout,
                              uint64_t trace) {
  uint16_t port;
  {
    std::lock_guard lk(mu_);
    if (peer_ports_.size() != cfg_.graph.size()) throw NetError("peer ports not configured");
    port = peer_ports_.at(peer);
  }
  // Circuit-break only the latency-sensitive data plane (walk forwards and
  // deliveries): a fast PeerUnreachable lets the walk re-select around a
  // sick peer without burning its RPC deadline. Control-plane sends
  // (summaries, deltas, anti-entropy) keep probing every period — their
  // cadence IS the period clock, and their success is what closes the
  // breaker early; this is the breaker-shaped face of "control traffic is
  // never shed".
  const bool data_plane = kind == MsgKind::kEvent || kind == MsgKind::kDeliver;
  // Every peer request kind is acked by the kind numbered one above it.
  const auto ack_kind = static_cast<MsgKind>(static_cast<uint8_t>(kind) + 1);
  if (data_plane && !governor_->breaker_allow(peer)) {
    throw PeerUnreachable(peer, "broker " + std::to_string(peer) +
                                    " skipped: circuit breaker open");
  }
  util::Backoff backoff(cfg_.rpc.backoff,
                        (uint64_t{cfg_.id} << 32) ^ rpc_seq_.fetch_add(1));
  for (;;) {
    try {
      const uint64_t t0 = obs::now_us();
      Socket s = connect_local(port, cfg_.rpc.connect_timeout);
      s.set_send_timeout(cfg_.rpc.io_timeout);
      s.set_recv_timeout(ack_timeout.value_or(cfg_.rpc.io_timeout));
      send_frame(s, kind, payload);
      auto ack = recv_frame(s);
      if (!ack || ack->kind != ack_kind) throw NetError("peer did not acknowledge message");
      const uint64_t dt = obs::now_us() - t0;
      hist_peer_rpc_[peer]->observe(dt);
      if (data_plane) stages_.observe(obs::Stage::kRouteHop, dt, trace);
      governor_->breaker_success(peer);
      return std::move(*ack);
    } catch (const NetError& e) {
      // Counted per failed attempt, whether or not budget remains; the
      // blackholed-link tests key off exactly this per-peer signal.
      ctr_peer_retries_[peer]->inc();
      if (trace) {
        record_span({trace, cfg_.id, obs::Phase::kRetry, peer,
                     obs::now_us(), payload.size()});
      }
      std::optional<std::chrono::milliseconds> delay;
      if (!stopping_) delay = backoff.next_delay();
      if (!delay) {
        // Terminal: only exhausted-budget failures feed the breaker, so
        // one flaky attempt never trips it — N whole RPCs must fail.
        governor_->breaker_failure(peer);
        throw PeerUnreachable(peer, "broker " + std::to_string(peer) +
                                        " unreachable: " + e.what());
      }
      // Interruptible: stop() notifies, so shutdown never waits out a
      // backoff schedule.
      std::unique_lock sl(stop_mu_);
      stop_cv_.wait_for(sl, *delay, [this] { return stopping_.load(); });
    }
  }
}

}  // namespace subsum::net
