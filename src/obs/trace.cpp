#include "obs/trace.h"

#include <chrono>
#include <cstdio>

namespace subsum::obs {

std::string_view to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kRecv:
      return "recv";
    case Phase::kMatch:
      return "match";
    case Phase::kForward:
      return "forward";
    case Phase::kDeliver:
      return "deliver";
    case Phase::kRetry:
      return "retry";
    case Phase::kRedeliver:
      return "redeliver";
  }
  return "?";
}

std::string to_jsonl(std::span<const Span> spans) {
  std::string out;
  out.reserve(spans.size() * 96);
  char buf[192];
  for (const Span& s : spans) {
    int n;
    if (s.peer != Span::kNoPeer) {
      n = std::snprintf(buf, sizeof buf,
                        "{\"trace\":\"%016llx\",\"broker\":%u,\"phase\":\"%s\","
                        "\"peer\":%u,\"t_us\":%llu,\"bytes\":%llu}\n",
                        static_cast<unsigned long long>(s.trace), s.broker,
                        to_string(s.phase).data(), s.peer,
                        static_cast<unsigned long long>(s.t_us),
                        static_cast<unsigned long long>(s.bytes));
    } else {
      n = std::snprintf(buf, sizeof buf,
                        "{\"trace\":\"%016llx\",\"broker\":%u,\"phase\":\"%s\","
                        "\"t_us\":%llu,\"bytes\":%llu}\n",
                        static_cast<unsigned long long>(s.trace), s.broker,
                        to_string(s.phase).data(),
                        static_cast<unsigned long long>(s.t_us),
                        static_cast<unsigned long long>(s.bytes));
    }
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

uint64_t mint_trace_id(uint32_t broker, uint64_t seq, uint64_t salt) noexcept {
  // splitmix64 finalizer over the packed inputs; bijective per salt, so
  // (broker, seq) collisions cannot happen within one salt stream.
  uint64_t x = (static_cast<uint64_t>(broker) << 48) ^ seq ^ (salt * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x ? x : 1;  // 0 is reserved for "untraced"
}

#ifndef SUBSUM_NO_TELEMETRY
uint64_t now_us() noexcept {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - origin)
                                   .count());
}
#endif

}  // namespace subsum::obs
