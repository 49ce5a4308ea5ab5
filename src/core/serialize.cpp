#include "core/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace subsum::core {

namespace {

constexpr uint8_t kVersion = 2;       // v2 adds the u64 epoch stamp
constexpr uint8_t kVersionNoEpoch = 1;  // pre-epoch images still decode

constexpr uint8_t kLoInf = 1 << 4;
constexpr uint8_t kHiInf = 1 << 5;
constexpr uint8_t kPoint = 1 << 6;
constexpr uint8_t kDrop = 1 << 7;  // delta edits only: delete the row

void put_numeric(util::BufWriter& w, double v, uint8_t width) {
  if (width == 8) {
    w.put_f64(v);
    return;
  }
  // Narrow to float32; reject integral values that do not survive the trip
  // (the paper's sst = 4 assumes 32-bit values).
  const auto f = static_cast<float>(v);
  if (std::isfinite(v) && std::nearbyint(v) == v &&
      std::abs(v) > static_cast<double>(std::numeric_limits<int32_t>::max()) ) {
    throw std::range_error("numeric value does not fit the 4-byte wire width");
  }
  uint32_t bits;
  static_assert(sizeof bits == sizeof f);
  std::memcpy(&bits, &f, sizeof bits);
  w.put_u32(bits);
}

double get_numeric(util::BufReader& r, uint8_t width) {
  if (width == 8) return r.get_f64();
  const uint32_t bits = r.get_u32();
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return static_cast<double>(f);
}

}  // namespace

void put_codec_header(util::BufWriter& w, const WireConfig& cfg, const model::Schema& schema) {
  if (cfg.numeric_width != 4 && cfg.numeric_width != 8) {
    throw std::invalid_argument("numeric_width must be 4 or 8");
  }
  w.put_u8(cfg.numeric_width);
  w.put_u8(static_cast<uint8_t>(cfg.codec.c1_bits()));
  w.put_u8(static_cast<uint8_t>(cfg.codec.c2_bits()));
  w.put_u8(static_cast<uint8_t>(cfg.codec.c3_bits()));
  w.put_varint(schema.attr_count());
}

WireConfig get_codec_header(util::BufReader& r, const model::Schema& schema) {
  const uint8_t width = r.get_u8();
  if (width != 4 && width != 8) throw util::DecodeError("bad numeric width");
  const uint8_t c1 = r.get_u8();
  const uint8_t c2 = r.get_u8();
  const uint8_t c3 = r.get_u8();
  // A uint32 broker count needs at most 32 bits of c1.
  if (c1 > 32) throw util::DecodeError("c1 wider than any broker count");
  const model::SubIdCodec codec(
      c1 == 32 ? ~uint32_t{0} : (uint32_t{1} << c1),
      c2 >= 64 ? ~uint64_t{0} : (uint64_t{1} << c2), c3);
  if (codec.c1_bits() != c1 || codec.c2_bits() != c2) {
    throw util::DecodeError("inconsistent codec parameters");
  }
  if (r.get_varint() != schema.attr_count()) {
    throw util::DecodeError("schema attribute count mismatch");
  }
  return {codec, width};
}

void put_ids(util::BufWriter& w, const model::SubIdCodec& codec,
             const std::vector<model::SubId>& ids) {
  w.put_varint(ids.size());
  for (const auto& id : ids) {
    const __uint128_t bits = codec.pack(id);
    for (size_t i = 0; i < codec.encoded_size(); ++i) {
      w.put_u8(static_cast<uint8_t>(bits >> (8 * i)));
    }
  }
}

std::vector<model::SubId> get_ids(util::BufReader& r, const model::SubIdCodec& codec) {
  const uint64_t n = r.get_count(codec.encoded_size());
  std::vector<model::SubId> ids;
  ids.reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    __uint128_t bits = 0;
    for (size_t i = 0; i < codec.encoded_size(); ++i) {
      bits |= static_cast<__uint128_t>(r.get_u8()) << (8 * i);
    }
    ids.push_back(codec.unpack(bits));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void put_aacs_key(util::BufWriter& w, const Interval& iv, uint8_t width, bool drop) {
  uint8_t flags = static_cast<uint8_t>((iv.lo.o + 1) | ((iv.hi.o + 1) << 2));
  const bool lo_inf = std::isinf(iv.lo.v);
  const bool hi_inf = std::isinf(iv.hi.v);
  const bool point = iv.is_point();
  if (lo_inf) flags |= kLoInf;
  if (hi_inf) flags |= kHiInf;
  if (point) flags |= kPoint;
  if (drop) flags |= kDrop;
  w.put_u8(flags);
  if (!lo_inf) put_numeric(w, iv.lo.v, width);
  if (!hi_inf && !point) put_numeric(w, iv.hi.v, width);
}

Interval get_aacs_key(util::BufReader& r, uint8_t width, bool* drop) {
  const uint8_t flags = r.get_u8();
  Pos lo{-std::numeric_limits<double>::infinity(), 0};
  Pos hi{std::numeric_limits<double>::infinity(), 0};
  lo.o = static_cast<int8_t>((flags & 0x3) - 1);
  hi.o = static_cast<int8_t>(((flags >> 2) & 0x3) - 1);
  if (!(flags & kLoInf)) lo.v = get_numeric(r, width);
  if (flags & kPoint) {
    hi = lo;
  } else if (!(flags & kHiInf)) {
    hi.v = get_numeric(r, width);
  }
  if (hi < lo) throw util::DecodeError("empty AACS interval on the wire");
  if (drop) *drop = (flags & kDrop) != 0;
  return Interval{lo, hi};
}

void put_sacs_key(util::BufWriter& w, const StringPattern& p) {
  w.put_u8(static_cast<uint8_t>(p.op));
  w.put_string(p.operand);
}

StringPattern get_sacs_key(util::BufReader& r) {
  const auto op = static_cast<model::Op>(r.get_u8());
  if (!model::op_valid_for(op, model::AttrType::kString)) {
    throw util::DecodeError("bad SACS operator on the wire");
  }
  return StringPattern{op, r.get_string()};
}

std::vector<std::byte> encode_summary(const BrokerSummary& summary, const WireConfig& cfg,
                                      uint64_t epoch) {
  const model::Schema& schema = summary.schema();
  util::BufWriter w(1024);
  w.put_u8(kVersion);
  w.put_u64(epoch);
  put_codec_header(w, cfg, schema);
  for (model::AttrId a = 0; a < schema.attr_count(); ++a) {
    if (is_arithmetic(schema.type_of(a))) {
      const Aacs& aacs = summary.aacs(a);
      w.put_varint(aacs.pieces().size());
      for (const auto& p : aacs.pieces()) {
        put_aacs_key(w, p.iv, cfg.numeric_width);
        put_ids(w, cfg.codec, p.ids);
      }
    } else {
      const Sacs& sacs = summary.sacs(a);
      w.put_varint(sacs.rows().size());
      for (const auto& row : sacs.rows()) {
        put_sacs_key(w, row.pattern);
        put_ids(w, cfg.codec, row.ids);
      }
    }
  }
  return std::move(w).take();
}

BrokerSummary decode_summary(std::span<const std::byte> data, const model::Schema& schema,
                             GeneralizePolicy policy, AacsMode arith_mode,
                             uint64_t* epoch_out) {
  util::BufReader r(data);
  const uint8_t version = r.get_u8();
  if (version != kVersion && version != kVersionNoEpoch) {
    throw util::DecodeError("unknown summary version");
  }
  const uint64_t epoch = version == kVersion ? r.get_u64() : 0;
  if (epoch_out) *epoch_out = epoch;
  const WireConfig cfg = get_codec_header(r, schema);

  BrokerSummary out(schema, policy, arith_mode);
  for (model::AttrId a = 0; a < schema.attr_count(); ++a) {
    const uint64_t rows = r.get_varint();
    for (uint64_t i = 0; i < rows; ++i) {
      if (is_arithmetic(schema.type_of(a))) {
        const Interval iv = get_aacs_key(r, cfg.numeric_width);
        out.insert_arith(a, iv, get_ids(r, cfg.codec));
      } else {
        const StringPattern p = get_sacs_key(r);
        out.insert_string(a, p, get_ids(r, cfg.codec));
      }
    }
  }
  if (!r.done()) throw util::DecodeError("trailing bytes after summary");
  return out;
}

size_t wire_size(const BrokerSummary& summary, const WireConfig& cfg) {
  return encode_summary(summary, cfg).size();
}

PaperSize paper_size(const SummaryStats& stats, const PaperSizeParams& params,
                     bool measured_ssv) {
  PaperSize out;
  out.aacs_bytes = (2 * stats.nsr + stats.ne) * params.sst + stats.la_entries * params.sid;
  const size_t sv = measured_ssv ? stats.value_bytes : stats.nr * params.ssv;
  out.sacs_bytes = sv + stats.ls_entries * params.sid;
  return out;
}

}  // namespace subsum::core
