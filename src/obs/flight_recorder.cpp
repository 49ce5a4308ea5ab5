#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/crc32c.h"

namespace subsum::obs {

namespace {

constexpr char kMagic[8] = {'S', 'U', 'B', 'S', 'U', 'M', 'F', 'R'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderPayload = 32;  // version, broker, anchors, appended
constexpr size_t kRecordPayload = 40;

void put_le32(uint8_t* p, uint32_t v) noexcept {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void put_le64(uint8_t* p, uint64_t v) noexcept {
  put_le32(p, static_cast<uint32_t>(v));
  put_le32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t get_le32(const std::byte* p) noexcept {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t get_le64(const std::byte* p) noexcept {
  return static_cast<uint64_t>(get_le32(p)) |
         (static_cast<uint64_t>(get_le32(p + 4)) << 32);
}

/// Encodes one record into a 40-byte buffer (fixed LE layout).
void encode_record(const FrRecord& r, uint8_t* out) noexcept {
  put_le64(out, r.t_us);
  put_le64(out + 8, r.trace);
  put_le64(out + 16, r.detail);
  put_le32(out + 24, r.broker);
  put_le32(out + 28, r.a);
  put_le32(out + 32, r.b);
  out[36] = static_cast<uint8_t>(r.kind);
  out[37] = out[38] = out[39] = 0;
}

FrRecord decode_record(const std::byte* p) noexcept {
  FrRecord r;
  r.t_us = get_le64(p);
  r.trace = get_le64(p + 8);
  r.detail = get_le64(p + 16);
  r.broker = get_le32(p + 24);
  r.a = get_le32(p + 28);
  r.b = get_le32(p + 32);
  r.kind = static_cast<FrKind>(std::to_integer<uint8_t>(p[36]));
  return r;
}

bool write_all(int fd, const uint8_t* p, size_t n) noexcept {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

constexpr size_t kWords = 6;  // per ring slot: seq + the packed record

Phase phase_of(FrKind k) noexcept {
  return static_cast<Phase>(static_cast<uint8_t>(k) - static_cast<uint8_t>(FrKind::kRecv));
}

std::string_view breaker_state_name(uint64_t s) noexcept {
  switch (s) {
    case 0: return "closed";
    case 1: return "open";
    case 2: return "half-open";
  }
  return "?";
}

}  // namespace

std::string_view to_string(FrKind k) noexcept {
  switch (k) {
    case FrKind::kStart: return "start";
    case FrKind::kRungChange: return "rung-change";
    case FrKind::kBreakerFlip: return "breaker-flip";
    case FrKind::kDropOldest: return "drop-oldest";
    case FrKind::kSlowConsumer: return "slow-consumer-disconnect";
    case FrKind::kLeaseExpired: return "lease-expired";
    case FrKind::kEpochBump: return "epoch-bump";
    case FrKind::kWalTruncateHeal: return "wal-truncate-heal";
    case FrKind::kShutdown: return "shutdown";
    case FrKind::kDump: return "dump";
    case FrKind::kFatalSignal: return "fatal-signal";
    case FrKind::kPeriodBegin: return "period-begin";
    case FrKind::kRecv: case FrKind::kMatch: case FrKind::kForward:
    case FrKind::kDeliver: case FrKind::kRetry: case FrKind::kRedeliver:
      return to_string(phase_of(k));
  }
  return "?";
}

FlightRecorder::Ring::Ring(size_t cap)
    : capacity(cap ? cap : 1),
      words(static_cast<uint64_t*>(std::calloc(capacity * kWords, sizeof(uint64_t)))) {
  if (!words) throw std::bad_alloc();
}

void FlightRecorder::Ring::append(const FrRecord& r) noexcept {
  const uint64_t ticket = appended.fetch_add(1, std::memory_order_relaxed);
  uint64_t* slot = &words[(ticket % capacity) * kWords];
  const uint64_t w[kWords] = {2 * ticket + 1, r.t_us, r.trace, r.detail,
                              uint64_t{r.broker} | (uint64_t{r.a} << 32),
                              uint64_t{r.b} | (uint64_t{static_cast<uint8_t>(r.kind)} << 32)};
  // Release stores keep every word ordered after the "writing" mark.
  for (size_t k = 0; k < kWords; ++k) {
    std::atomic_ref(slot[k]).store(w[k], std::memory_order_release);
  }
  std::atomic_ref(slot[0]).store(2 * ticket + 2, std::memory_order_release);  // done
}

template <class F>
bool FlightRecorder::Ring::visit(F&& f) const {
  const uint64_t end = appended.load(std::memory_order_acquire);
  for (uint64_t i = end > capacity ? end - capacity : 0; i < end; ++i) {
    uint64_t* slot = &words[(i % capacity) * kWords];
    uint64_t w[kWords];
    for (size_t k = 0; k < kWords; ++k) {
      w[k] = std::atomic_ref(slot[k]).load(std::memory_order_acquire);
    }
    // Skip a slot that holds another ticket or was rewritten while read.
    if (w[0] != 2 * i + 2) continue;
    if (std::atomic_ref(slot[0]).load(std::memory_order_acquire) != w[0]) continue;
    const FrRecord r{w[1], w[2], w[3], static_cast<uint32_t>(w[4]),
                     static_cast<uint32_t>(w[4] >> 32), static_cast<uint32_t>(w[5]),
                     static_cast<FrKind>(static_cast<uint8_t>(w[5] >> 32))};
    if (!f(r)) return false;
  }
  return true;
}

FlightRecorder::FlightRecorder(uint32_t broker, size_t capacity, bool virtual_time)
    : broker_(broker), virtual_time_(virtual_time), transitions_(capacity) {
  if (!virtual_time_) {
    wall_anchor_us_ = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    steady_anchor_us_ = now_us();
  }
  // Prime the CRC tables' magic-static so a fatal-signal dump never has to
  // initialize them from the handler.
  const std::byte prime[1] = {};
  (void)util::crc32c({prime, 1});
}

void FlightRecorder::record(FrKind k, uint32_t a, uint32_t b, uint64_t detail,
                            uint64_t trace) noexcept {
  record_at(virtual_time_ ? 0 : now_us(), k, a, b, detail, trace);
}

void FlightRecorder::record_at(uint64_t t_us, FrKind k, uint32_t a, uint32_t b,
                               uint64_t detail, uint64_t trace) noexcept {
#ifndef SUBSUM_NO_TELEMETRY
  transitions_.append({t_us, trace, detail, broker_, a, b, k});
#else
  (void)t_us; (void)k; (void)a; (void)b; (void)detail; (void)trace;
#endif
}

void FlightRecorder::record_span(const Span& s) noexcept {
#ifndef SUBSUM_NO_TELEMETRY
  const auto kind = static_cast<uint8_t>(static_cast<uint8_t>(FrKind::kRecv) +
                                         static_cast<uint8_t>(s.phase));
  spans_.append({s.t_us, s.trace, s.bytes, s.broker, s.peer, 0, static_cast<FrKind>(kind)});
#else
  (void)s;
#endif
}

std::vector<FrRecord> FlightRecorder::snapshot() const {
  std::vector<FrRecord> out;
  const auto keep = [&out](const FrRecord& r) {
    out.push_back(r);
    return true;
  };
  transitions_.visit(keep);
  spans_.visit(keep);
  return out;
}

std::vector<Span> FlightRecorder::spans(uint64_t trace) const {
  std::vector<Span> out;
  spans_.visit([&](const FrRecord& r) {
    if (trace == 0 || r.trace == trace) {
      out.push_back({r.trace, r.broker, phase_of(r.kind), r.a, r.t_us, r.detail});
    }
    return true;
  });
  return out;
}

uint64_t FlightRecorder::spans_dropped() const noexcept {
  const uint64_t n = spans_.appended.load(std::memory_order_relaxed);
  return n > kSpanCapacity ? n - kSpanCapacity : 0;
}

template <class Sink>
bool FlightRecorder::write_dump(Sink&& sink) const {
  uint8_t hdr[8 + 4 + kHeaderPayload];
  std::memcpy(hdr, kMagic, sizeof kMagic);
  uint8_t* payload = hdr + 12;  // after magic + crc
  put_le32(payload, kVersion);
  put_le32(payload + 4, broker_);
  put_le64(payload + 8, wall_anchor_us_);
  put_le64(payload + 16, steady_anchor_us_);
  put_le64(payload + 24, appended());
  put_le32(hdr + 8, util::crc32c({reinterpret_cast<const std::byte*>(payload),
                                  kHeaderPayload}));
  const auto frame = [&sink](const FrRecord& r) {
    uint8_t f[4 + kRecordPayload];
    encode_record(r, f + 4);
    put_le32(f, util::crc32c({reinterpret_cast<const std::byte*>(f + 4), kRecordPayload}));
    return sink(f, sizeof f);
  };
  return sink(hdr, sizeof hdr) && transitions_.visit(frame) && spans_.visit(frame);
}

std::vector<std::byte> FlightRecorder::serialize() const {
  std::vector<std::byte> out;
  write_dump([&out](const uint8_t* p, size_t n) {
    out.insert(out.end(), reinterpret_cast<const std::byte*>(p),
               reinterpret_cast<const std::byte*>(p) + n);
    return true;
  });
  return out;
}

bool FlightRecorder::dump_to(const std::string& path) const noexcept {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const int rc = dump_to_fd(fd);
  const bool closed = ::close(fd) == 0;
  return rc == 0 && closed;
}

int FlightRecorder::dump_to_fd(int fd) const noexcept {
  return write_dump([fd](const uint8_t* p, size_t n) { return write_all(fd, p, n); }) ? 0 : -1;
}

std::optional<FrDump> decode_dump(std::span<const std::byte> bytes) {
  if (bytes.size() < 8 + 4 + kHeaderPayload) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) return std::nullopt;
  const uint32_t hdr_crc = get_le32(bytes.data() + 8);
  const std::byte* payload = bytes.data() + 12;
  if (util::crc32c({payload, kHeaderPayload}) != hdr_crc) return std::nullopt;

  FrDump d;
  d.version = get_le32(payload);
  d.broker = get_le32(payload + 4);
  d.wall_anchor_us = get_le64(payload + 8);
  d.steady_anchor_us = get_le64(payload + 16);
  d.appended = get_le64(payload + 24);

  size_t pos = 8 + 4 + kHeaderPayload;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 4 + kRecordPayload) {
      d.truncated = true;  // torn tail
      break;
    }
    const uint32_t crc = get_le32(bytes.data() + pos);
    const std::byte* rec = bytes.data() + pos + 4;
    if (util::crc32c({rec, kRecordPayload}) != crc) {
      d.truncated = true;  // corrupt: keep the intact prefix
      break;
    }
    d.records.push_back(decode_record(rec));
    pos += 4 + kRecordPayload;
  }
  return d;
}

std::string format_timeline(std::span<const FrDump> dumps) {
  struct Line {
    uint64_t t = 0;  // wall-anchored µs (raw when the dump has no anchor)
    const FrDump* dump = nullptr;
    const FrRecord* rec = nullptr;
  };
  std::vector<Line> lines;
  for (const FrDump& d : dumps) {
    for (const FrRecord& r : d.records) {
      Line l;
      l.t = d.wall_anchor_us == 0
                ? r.t_us
                : d.wall_anchor_us + (r.t_us - d.steady_anchor_us);
      l.dump = &d;
      l.rec = &r;
      lines.push_back(l);
    }
  }
  std::stable_sort(lines.begin(), lines.end(), [](const Line& x, const Line& y) {
    return x.t < y.t;
  });
  const uint64_t base = lines.empty() ? 0 : lines.front().t;

  std::string out;
  char buf[192];
  for (const Line& l : lines) {
    const FrRecord& r = *l.rec;
    const uint64_t dt = l.t - base;
    int n = std::snprintf(buf, sizeof buf, "+%llu.%06llus broker %u %s",
                          static_cast<unsigned long long>(dt / 1000000),
                          static_cast<unsigned long long>(dt % 1000000), r.broker,
                          std::string(to_string(r.kind)).c_str());
    out.append(buf, static_cast<size_t>(n));
    switch (r.kind) {
      case FrKind::kStart:
        n = std::snprintf(buf, sizeof buf, " epoch=%llu",
                          static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kRungChange:
        n = std::snprintf(buf, sizeof buf, " %u->%u usage=%lluB", r.a, r.b,
                          static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kBreakerFlip:
        n = std::snprintf(buf, sizeof buf, " peer=%u %s->%s", r.a,
                          std::string(breaker_state_name(r.detail)).c_str(),
                          std::string(breaker_state_name(r.b)).c_str());
        break;
      case FrKind::kDropOldest:
        n = std::snprintf(buf, sizeof buf, " frames=%u bytes=%llu", r.a,
                          static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kSlowConsumer:
        n = std::snprintf(buf, sizeof buf, " fd=%u queued=%lluB", r.a,
                          static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kLeaseExpired:
        n = std::snprintf(buf, sizeof buf, " sub=%u owner=%u", r.a, r.b);
        break;
      case FrKind::kEpochBump:
        n = std::snprintf(buf, sizeof buf, " epoch=%llu",
                          static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kWalTruncateHeal:
        n = std::snprintf(buf, sizeof buf, " kept=%lluB",
                          static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kFatalSignal:
        n = std::snprintf(buf, sizeof buf, " sig=%u", r.a);
        break;
      case FrKind::kPeriodBegin:
        n = std::snprintf(buf, sizeof buf, " period=%llu",
                          static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kRecv: case FrKind::kMatch: case FrKind::kForward:
      case FrKind::kDeliver: case FrKind::kRetry: case FrKind::kRedeliver:
        n = r.a == Span::kNoPeer ? 0 : std::snprintf(buf, sizeof buf, " peer=%u", r.a);
        n += std::snprintf(buf + n, sizeof buf - static_cast<size_t>(n), " bytes=%llu",
                           static_cast<unsigned long long>(r.detail));
        break;
      case FrKind::kShutdown:
      case FrKind::kDump:
        n = 0;
        break;
    }
    if (n > 0) out.append(buf, static_cast<size_t>(n));
    if (r.trace != 0) {
      n = std::snprintf(buf, sizeof buf, " trace=%016llx",
                        static_cast<unsigned long long>(r.trace));
      out.append(buf, static_cast<size_t>(n));
    }
    out.push_back('\n');
  }
  return out;
}

namespace {

// One recorder per process for the fatal-signal path; plain (non-atomic)
// stores are fine: install happens before any traffic, handlers only read.
FlightRecorder* g_fatal_fr = nullptr;
const char* g_fatal_path = nullptr;

void fatal_dump_handler(int sig) {
  if (g_fatal_fr != nullptr && g_fatal_path != nullptr) {
    g_fatal_fr->record(FrKind::kFatalSignal, static_cast<uint32_t>(sig));
    const int fd = ::open(g_fatal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      (void)g_fatal_fr->dump_to_fd(fd);
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_fatal_dump(FlightRecorder* fr, const char* path) {
  g_fatal_fr = fr;
  g_fatal_path = path;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = fatal_dump_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    sigaction(sig, &sa, nullptr);
  }
}

}  // namespace subsum::obs
