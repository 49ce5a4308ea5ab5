// Black-box flight recorder, the broker's one journal: two bounded rings
// of 40-byte records. One holds the state transitions an operator needs
// to reconstruct the minutes before an incident (governor rung changes,
// breaker flips, drop-oldest sheds, slow-consumer disconnects, lease
// expiries, epoch bumps, WAL truncate-heals) without having had logging
// enabled. The other holds walk spans (obs/trace.h), kSpanCapacity slots
// of its own, so a burst of spans cannot evict a rung change.
//
// Design constraints, in order:
//   1. Appends are wait-free (one relaxed fetch_add + a per-slot seqlock)
//      so recording costs nanoseconds and can sit on the governor's
//      accounting path and on every walk step.
//   2. The dump path must work from a fatal-signal handler: dump_to_fd()
//      touches no heap, no locks, and no stdio — only write(2). The
//      constructor primes the CRC tables so the handler never initializes
//      them.
//   3. Dumps survive torn writes: the file is a CRC-framed record stream
//      (same style as the WAL), so a reader keeps every intact prefix
//      record and flags truncation instead of failing.
//
// The file format (little-endian):
//   magic   "SUBSUMFR" (8 bytes)
//   header  u32 crc32c(payload) | payload:
//             u32 version (=1) | u32 broker | u64 wall_anchor_us |
//             u64 steady_anchor_us | u64 appended
//   records u32 crc32c(payload) | payload: one 40-byte FrRecord each,
//           the transitions, then the spans
// wall/steady anchors pin the recorder's monotone timestamps to the wall
// clock at construction, so `tools/subsum_blackbox` can merge dumps from
// several brokers into one incident timeline. The simulator constructs
// recorders in virtual time (anchors 0) and stamps records explicitly,
// which keeps two identical runs byte-identical.
//
// Under -DSUBSUM_NO_TELEMETRY recording compiles to a no-op; serialization
// still emits a valid (empty) dump so kDump stays wire-compatible.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace subsum::obs {

enum class FrKind : uint8_t {
  kStart = 0,             // recorder constructed; detail = epoch
  kRungChange = 1,        // a = old rung, b = new rung, detail = usage bytes
  kBreakerFlip = 2,       // a = peer, b = new state, detail = old state
  kDropOldest = 3,        // a = frames dropped, detail = bytes dropped
  kSlowConsumer = 4,      // a = fd, detail = queued bytes at disconnect
  kLeaseExpired = 5,      // a = subscription local id, b = owner broker
  kEpochBump = 6,         // detail = new epoch
  kWalTruncateHeal = 7,   // detail = valid bytes kept
  kShutdown = 8,          // clean stop()
  kDump = 9,              // on-demand kDump RPC served
  kFatalSignal = 10,      // a = signal number
  kPeriodBegin = 11,      // detail = propagation period number
  // Spans (record_span), one kind per obs::Phase in its order, named by
  // to_string(Phase): a = peer, detail = bytes.
  kRecv = 12, kMatch, kForward, kDeliver, kRetry, kRedeliver,
};

/// "start", "rung-change", ..., "recv", "match", ... (stable timeline names).
std::string_view to_string(FrKind k) noexcept;

/// One state transition. POD, fixed 40-byte wire layout.
struct FrRecord {
  uint64_t t_us = 0;    // obs::now_us() origin (or virtual time in the sim)
  uint64_t trace = 0;   // correlated trace id, 0 when none
  uint64_t detail = 0;  // kind-specific payload (see FrKind)
  uint32_t broker = 0;
  uint32_t a = 0;
  uint32_t b = 0;
  FrKind kind = FrKind::kStart;

  bool operator==(const FrRecord&) const = default;
};

/// A decoded dump file.
struct FrDump {
  uint32_t version = 0;
  uint32_t broker = 0;
  uint64_t wall_anchor_us = 0;    // 0 in virtual-time (sim) dumps
  uint64_t steady_anchor_us = 0;
  uint64_t appended = 0;          // records ever appended (>= records.size())
  std::vector<FrRecord> records;  // oldest first
  bool truncated = false;         // torn tail / bad CRC encountered
};

class FlightRecorder {
 public:
  /// Spans the span ring retains before it overwrites its oldest.
  static constexpr size_t kSpanCapacity = 4096;

  /// `capacity` sizes the transition ring. `virtual_time` pins both clock
  /// anchors to 0 and makes record() stamp t_us = 0 — the simulator stamps
  /// explicitly via record_at() and record_span() so its dumps are
  /// byte-identical across runs.
  explicit FlightRecorder(uint32_t broker, size_t capacity = 1024,
                          bool virtual_time = false);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records a state transition (spans go through record_span()).
  void record(FrKind k, uint32_t a = 0, uint32_t b = 0, uint64_t detail = 0,
              uint64_t trace = 0) noexcept;
  /// record() with an explicit timestamp (virtual time in the simulator).
  void record_at(uint64_t t_us, FrKind k, uint32_t a = 0, uint32_t b = 0,
                 uint64_t detail = 0, uint64_t trace = 0) noexcept;
  /// Records `s` in the span ring under its own broker id and timestamp.
  void record_span(const Span& s) noexcept;

  /// Records ever appended to either ring.
  [[nodiscard]] uint64_t appended() const noexcept {
    return transitions_.appended.load(std::memory_order_relaxed) +
           spans_.appended.load(std::memory_order_relaxed);
  }
  /// The transition ring's capacity.
  [[nodiscard]] size_t capacity() const noexcept { return transitions_.capacity; }
  [[nodiscard]] uint32_t broker() const noexcept { return broker_; }

  /// Retained records, the transitions then the spans, each oldest first.
  /// Records a concurrent writer is mid-overwrite on are skipped, never torn.
  [[nodiscard]] std::vector<FrRecord> snapshot() const;

  /// Retained spans, oldest first; only those of `trace` when nonzero.
  [[nodiscard]] std::vector<Span> spans(uint64_t trace = 0) const;

  /// Spans lost to overwrite-oldest, exported as
  /// `subsum_trace_spans_dropped_total` so silent span loss is visible.
  [[nodiscard]] uint64_t spans_dropped() const noexcept;

  /// The dump file bytes (header + CRC-framed records).
  [[nodiscard]] std::vector<std::byte> serialize() const;

  /// Writes serialize() to `path` (O_TRUNC). Returns false on any I/O error.
  bool dump_to(const std::string& path) const noexcept;

  /// Async-signal-safe dump: stack buffers and write(2) only. Returns 0 on
  /// success, -1 on a short/failed write.
  int dump_to_fd(int fd) const noexcept;

 private:
  /// A fixed ring of seqlocked slots of six words, each only ever accessed
  /// through std::atomic_ref: seq (2*ticket+1 while writing, 2*ticket+2
  /// when done), t_us, trace, detail, broker | a<<32, b | kind<<32. The
  /// words are calloc'd, so a page becomes resident only once records
  /// land in it.
  struct Ring {
    explicit Ring(size_t cap);
    void append(const FrRecord& r) noexcept;
    /// Calls `f` on every intact retained record, oldest first, until it
    /// returns false; a slot being rewritten is skipped, never torn.
    template <class F>
    bool visit(F&& f) const;

    struct Free {
      void operator()(uint64_t* p) const noexcept { std::free(p); }
    };
    size_t capacity;
    std::unique_ptr<uint64_t[], Free> words;
    std::atomic<uint64_t> appended{0};
  };

  /// Feeds the dump (header, then every record frame) to `sink(const
  /// uint8_t*, size_t)` while it returns true.
  template <class Sink>
  bool write_dump(Sink&& sink) const;

  uint32_t broker_;
  bool virtual_time_;
  uint64_t wall_anchor_us_ = 0;
  uint64_t steady_anchor_us_ = 0;
  Ring transitions_;
  Ring spans_{kSpanCapacity};
};

/// Parses a dump file; nullopt only when the magic/header is unreadable.
/// A torn or corrupt record tail yields the intact prefix with
/// truncated = true.
std::optional<FrDump> decode_dump(std::span<const std::byte> bytes);

/// Human-readable merged incident timeline across brokers: every record of
/// every dump, sorted by wall-anchored time (raw time when anchors are 0),
/// one line each, e.g.
///   +12.041s broker 3 rung-change 1->3 usage=7340032B
///   +12.977s broker 3 breaker-flip peer=1 closed->open
std::string format_timeline(std::span<const FrDump> dumps);

/// Installs SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT handlers that record a
/// fatal-signal event, dump `fr` to `path` (which must outlive the
/// process), and re-raise the default disposition. One recorder per
/// process; a second call replaces the first.
void install_fatal_dump(FlightRecorder* fr, const char* path);

}  // namespace subsum::obs
