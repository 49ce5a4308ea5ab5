// Per-component memory attribution: where a live broker's bytes actually
// are. The paper's efficiency claim is a memory claim as much as a CPU
// claim (summaries ARE the routing state, §3-§4), so the broker accounts
// its big owners explicitly — frozen-index arenas, the held summary and
// the shadow/last-sent images, WAL + snapshot buffers, outbound queues,
// the trace/flight/profiler rings, exemplar slots — and exports each as
// `subsum_mem_bytes{component=...}`. Summary lines are resident-byte
// estimates from row and id counts, so a refresh never encodes anything.
//
// Two consumers, two contracts:
//
//   1. Telemetry. Each component mirrors into a registry gauge (no-op
//      under -DSUBSUM_NO_TELEMETRY like every obs mirror). The components
//      are designed to sum to within shouting distance of RSS-minus-
//      baseline, so an operator can see WHICH subsystem grew, not just
//      that the process did.
//
//   2. Policy. governor_external_bytes() — the components the governor's
//      own outbound/redelivery usage accounting does NOT already cover —
//      feeds Governor::set_external_bytes(), so the degradation ladder
//      degrades on measured broker memory instead of queue bytes alone.
//      Like the governor itself, the byte accounting lives on plain
//      atomics that exist in BOTH builds: ladder arithmetic is identical
//      with telemetry compiled out, and tests can inject readings
//      deterministically.
//
// Also here: /proc/self process-level gauges (RSS, utime/stime, open fds,
// thread count), a graceful no-op on platforms without procfs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace subsum::obs {

/// The accounted owners. Fixed set (bounded label cardinality); extend
/// here and in to_string() together.
enum class MemComponent : uint8_t {
  kIndexArenas = 0,    // frozen-index slot/entry/row arenas (core/frozen_index.h)
  kHeldSummary,        // the held merged summary (resident-bytes estimate)
  kShadowSummaries,    // per-sender mirrored images (delta bases)
  kWalBuffers,         // WAL records appended since the last compaction
  kSnapshotBuffers,    // the last snapshot encoding
  kOutboundQueues,     // per-connection outbound queues (governor-accounted)
  kRedeliveryQueue,    // pending kDeliver payloads (governor-accounted)
  kTraceRing,          // obs/trace.h span ring
  kFlightRing,         // obs/flight_recorder.h slot ring
  kExemplarSlots,      // per-bucket exemplar retention across histograms
  kProfilerRing,       // obs/profiler.h sample ring
};
inline constexpr size_t kMemComponentCount = 11;

/// "index_arenas", "held_summary", ... (stable label values).
std::string_view to_string(MemComponent c) noexcept;

/// Thread-safe byte ledger, one slot per component. set() is an absolute
/// refresh (the admin/scrape path recomputes sizes from the owners);
/// add() is for owners that account incrementally.
class MemAccount {
 public:
  MemAccount() = default;
  MemAccount(const MemAccount&) = delete;
  MemAccount& operator=(const MemAccount&) = delete;

  /// Registers the subsum_mem_bytes{component=...} gauge family in `m` and
  /// mirrors every subsequent set()/add() into it. Optional: an unbound
  /// account still keeps the byte ledger (policy input needs no registry).
  void bind_metrics(MetricsRegistry& m);

  void set(MemComponent c, uint64_t bytes) noexcept;
  void add(MemComponent c, int64_t delta) noexcept;
  [[nodiscard]] uint64_t get(MemComponent c) const noexcept;

  /// Sum over all components.
  [[nodiscard]] uint64_t total() const noexcept;

  /// The degradation ladder's external input: the GROWTH components
  /// (index arenas, held/shadow summaries, WAL + snapshot bytes). Excludes
  /// the queues — the governor already streams those through
  /// add_usage/sub_usage — and the fixed-capacity rings, which are
  /// config-sized baseline, not load.
  [[nodiscard]] uint64_t governor_external_bytes() const noexcept;

 private:
  std::atomic<uint64_t> bytes_[kMemComponentCount] = {};
  Gauge* gauges_[kMemComponentCount] = {};  // null until bind_metrics
};

/// One reading of /proc/self. ok = false when any file was unreadable
/// (non-Linux, locked-down /proc): every field then stays 0.
struct ProcessStats {
  bool ok = false;
  uint64_t rss_bytes = 0;
  double utime_sec = 0.0;  // user-mode CPU consumed since process start
  double stime_sec = 0.0;  // kernel-mode CPU
  uint64_t open_fds = 0;
  uint64_t threads = 0;
};

/// Parses /proc/self/{statm,stat,fd}. Never throws; failure yields
/// ok = false.
[[nodiscard]] ProcessStats read_process_stats() noexcept;

/// Registry mirror for ProcessStats: subsum_process_rss_bytes,
/// subsum_process_cpu_seconds_total{mode=user|sys},
/// subsum_process_open_fds, subsum_process_threads. refresh() re-reads
/// /proc and is a graceful no-op when unbound or procfs is absent.
class ProcessGauges {
 public:
  void bind_metrics(MetricsRegistry& m);
  void refresh() noexcept;

 private:
  Gauge* rss_ = nullptr;
  FGauge* cpu_user_ = nullptr;
  FGauge* cpu_sys_ = nullptr;
  Gauge* fds_ = nullptr;
  Gauge* threads_ = nullptr;
};

}  // namespace subsum::obs
