// Crash-durable broker state: the paper's premise is that summaries ARE
// the broker's routing state (§3-§4), so that state must survive kill -9.
// A BrokerStore manages one broker's data directory:
//
//   <dir>/wal       append-only subscribe/unsubscribe log (store/wal.h)
//   <dir>/snapshot  periodic compaction of the full state
//   <dir>/epoch     the broker's incarnation counter
//
// Write path: every accepted subscribe/unsubscribe is appended to the WAL
// and fsync'd (group-committed per batch) BEFORE the client sees the ack.
// Once the log grows past a threshold, the caller compacts: the live
// subscription set, the held merged summary (its AACS/SACS wire image,
// sized per the paper's eqs. (1)-(2)), the Merged_Brokers set with their
// epochs, and an image of the broker's OWN summary are written to
// snapshot.tmp, fsync'd, atomically renamed over the old snapshot, and the
// log is truncated.
//
// Recovery (open()):
//   1. load the snapshot (magic + CRC-32C verified). The own-summary image
//      is cross-checked by REBUILDING from the persisted subscription set
//      and comparing bit-for-bit; any mismatch (or a corrupt CRC) demotes
//      the snapshot to untrusted and recovery falls back to replaying the
//      log from scratch — degraded, never a crash.
//   2. replay the WAL tail (idempotently: a duplicate subscribe or a
//      missing unsubscribe is skipped, so a crash between snapshot rename
//      and log truncation is harmless). A torn final record is discarded
//      and the file is truncated to the last intact record.
//   3. bump and persist the epoch, so the new incarnation's announcements
//      outrank anything the old one said (routing/propagation.h).
//
// All multi-byte integers little-endian, via util::BufWriter/BufReader.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/home_table.h"
#include "core/serialize.h"
#include "core/summary.h"
#include "model/subscription.h"
#include "obs/metrics.h"
#include "overlay/graph.h"
#include "store/wal.h"

namespace subsum::store {

/// Everything recovery reconstructed from the data directory.
struct DurableState {
  explicit DurableState(core::HomeTable empty_home) : home(std::move(empty_home)) {}

  /// This incarnation's epoch (already bumped past every persisted value).
  uint64_t epoch = 1;
  /// The home table: the live subscriptions, their leases (snapshot
  /// section + WAL lease records) and the next free c2. Every lease is
  /// re-armed to its full ttl: the owner gets one whole lease window to
  /// renew or re-attach against the new incarnation.
  core::HomeTable home;
  /// Merged_Brokers set from the snapshot (empty when falling back).
  std::vector<overlay::BrokerId> merged_brokers;
  /// Last known epoch per entry of merged_brokers (aligned).
  std::vector<uint64_t> merged_epochs;
  /// Held merged summary: snapshot image + WAL tail applied; on fallback,
  /// rebuilt from `home` alone (peer state heals via resends).
  std::optional<core::BrokerSummary> held;

  // Diagnostics for tests and logs.
  bool wal_torn = false;          // a torn/corrupt log tail was discarded
  bool snapshot_fell_back = false;  // snapshot missing/corrupt: log-only replay
  bool own_image_verified = false;  // rebuild matched the persisted image bit-for-bit
};

class BrokerStore {
 public:
  /// Creates `dir` if needed. The schema/policy/wire must match the
  /// broker's (they parameterize record and image encoding); `owner` and
  /// `max_subs_per_broker` are the recovered home table's (core/home_table.h).
  BrokerStore(std::string dir, model::Schema schema, core::GeneralizePolicy policy,
              core::WireConfig wire, overlay::BrokerId owner, uint64_t max_subs_per_broker);
  ~BrokerStore();

  BrokerStore(const BrokerStore&) = delete;
  BrokerStore& operator=(const BrokerStore&) = delete;

  /// Runs recovery, bumps + persists the epoch, and opens the WAL for
  /// appending. Call exactly once, before any log_* call.
  DurableState open();

  /// Appends a record (not yet durable — commit() the batch).
  void log_subscribe(const model::OwnedSubscription& os);
  void log_unsubscribe(model::SubId id);
  /// Records a lease grant or renewal for `id` (v4 soft state).
  void log_lease(model::SubId id, uint32_t ttl_periods);

  /// fsync: the records appended since the last commit become durable.
  void commit();

  /// State fed to write_snapshot(): the broker's current in-memory state.
  struct SnapshotInput {
    const core::HomeTable* home = nullptr;
    std::vector<overlay::BrokerId> merged_brokers;
    std::vector<uint64_t> merged_epochs;
    const core::BrokerSummary* held = nullptr;
  };

  /// Compaction: atomically replaces the snapshot and truncates the log.
  void write_snapshot(const SnapshotInput& in);

  /// Telemetry hooks (obs/metrics.h): commit() observes its fsync latency
  /// into `fsync_us` (and, when given, the stage-decomposed duplicate
  /// `stage_fsync_us` — subsum_stage_latency_us{stage="wal_fsync"}),
  /// write_snapshot() its duration into `snapshot_us`. Any may be null
  /// (the default): no timing happens.
  void set_metrics(obs::Histogram* fsync_us, obs::Histogram* snapshot_us,
                   obs::Histogram* stage_fsync_us = nullptr) noexcept {
    fsync_us_ = fsync_us;
    snapshot_us_ = snapshot_us;
    stage_fsync_us_ = stage_fsync_us;
  }

  [[nodiscard]] uint64_t epoch() const noexcept { return epoch_; }
  /// WAL records since the last compaction (or open).
  [[nodiscard]] uint64_t wal_records() const noexcept;
  /// On-disk WAL bytes since the last compaction — the replay cost a crash
  /// would pay, and the kWalBuffers input to memory attribution.
  [[nodiscard]] uint64_t wal_bytes() const noexcept;
  /// Encoded size of the most recent snapshot written this run (0 before
  /// the first compaction) — the kSnapshotBuffers attribution input.
  [[nodiscard]] uint64_t last_snapshot_bytes() const noexcept {
    return last_snapshot_bytes_;
  }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  std::vector<std::byte> encode_snapshot(const SnapshotInput& in) const;
  void persist_epoch(uint64_t epoch) const;
  [[nodiscard]] uint64_t read_epoch_file() const;

  std::string dir_;
  model::Schema schema_;
  core::GeneralizePolicy policy_;
  core::WireConfig wire_;
  overlay::BrokerId owner_;
  uint64_t max_subs_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t epoch_ = 0;
  uint64_t wal_base_records_ = 0;  // records already in the log at open()
  uint64_t wal_base_bytes_ = 0;    // intact bytes in the log at open()
  uint64_t last_snapshot_bytes_ = 0;
  obs::Histogram* fsync_us_ = nullptr;        // not owned; see set_metrics
  obs::Histogram* snapshot_us_ = nullptr;     // not owned
  obs::Histogram* stage_fsync_us_ = nullptr;  // not owned
};

}  // namespace subsum::store
