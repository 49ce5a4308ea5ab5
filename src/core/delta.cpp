#include "core/delta.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>

namespace subsum::core {

namespace {

using model::SubId;

constexpr uint8_t kDeltaVersion = 1;  // delta format v1 (ships in PROTOCOL v4 frames)

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t fnv_bytes(uint64_t h, const void* data, size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnv_u64(uint64_t h, uint64_t v) noexcept { return fnv_bytes(h, &v, sizeof v); }

uint64_t fnv_f64(uint64_t h, double v) noexcept {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv_u64(h, bits);
}

uint64_t hash_ids(uint64_t h, const std::vector<SubId>& ids) noexcept {
  h = fnv_u64(h, ids.size());
  for (const auto& id : ids) {
    h = fnv_u64(h, id.broker);
    h = fnv_u64(h, id.local);
    h = fnv_u64(h, id.attrs);
  }
  return h;
}

uint64_t hash_arith_row(model::AttrId a, const SummaryImage::ArithRow& row) noexcept {
  uint64_t h = fnv_u64(kFnvOffset, a);
  h = fnv_bytes(h, "A", 1);
  h = fnv_f64(h, row.iv.lo.v);
  h = fnv_u64(h, static_cast<uint64_t>(row.iv.lo.o + 1));
  h = fnv_f64(h, row.iv.hi.v);
  h = fnv_u64(h, static_cast<uint64_t>(row.iv.hi.o + 1));
  return hash_ids(h, row.ids);
}

uint64_t hash_string_row(model::AttrId a, const SummaryImage::StringRow& row) noexcept {
  uint64_t h = fnv_u64(kFnvOffset, a);
  h = fnv_bytes(h, "S", 1);
  h = fnv_u64(h, static_cast<uint64_t>(row.pattern.op));
  h = fnv_u64(h, row.pattern.operand.size());
  h = fnv_bytes(h, row.pattern.operand.data(), row.pattern.operand.size());
  return hash_ids(h, row.ids);
}

// Row-key orderings (images keep rows sorted by key; diff merge-joins on it).
bool arith_key_less(const Interval& a, const Interval& b) noexcept {
  if (a.lo != b.lo) return a.lo < b.lo;
  return a.hi < b.hi;
}

std::vector<SubId> id_union(const std::vector<SubId>& a, const std::vector<SubId>& b) {
  std::vector<SubId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<SubId> id_difference(const std::vector<SubId>& a, const std::vector<SubId>& b) {
  std::vector<SubId> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

// Diffs two sorted row vectors into edits. KeyLess orders rows; MakeEdit
// builds an edit from (key-holder row, drop, add, del).
template <typename Row, typename Edit, typename KeyLess>
void diff_rows(const std::vector<Row>& base, const std::vector<Row>& target,
               std::vector<Edit>& out, KeyLess less) {
  size_t i = 0, j = 0;
  while (i < base.size() || j < target.size()) {
    if (j == target.size() || (i < base.size() && less(base[i], target[j]))) {
      Edit e;
      e.key_from(base[i]);
      e.drop = true;
      out.push_back(std::move(e));
      ++i;
    } else if (i == base.size() || less(target[j], base[i])) {
      Edit e;
      e.key_from(target[j]);
      e.add = target[j].ids;
      out.push_back(std::move(e));
      ++j;
    } else {
      if (base[i].ids != target[j].ids) {
        Edit e;
        e.key_from(target[j]);
        e.add = id_difference(target[j].ids, base[i].ids);
        e.del = id_difference(base[i].ids, target[j].ids);
        out.push_back(std::move(e));
      }
      ++i;
      ++j;
    }
  }
}

}  // namespace

bool SummaryImage::empty() const noexcept {
  for (const auto& v : arith) {
    if (!v.empty()) return false;
  }
  for (const auto& v : strings) {
    if (!v.empty()) return false;
  }
  return true;
}

size_t SummaryImage::row_count() const noexcept {
  size_t n = 0;
  for (const auto& v : arith) n += v.size();
  for (const auto& v : strings) n += v.size();
  return n;
}

size_t SummaryImage::id_entries() const noexcept {
  size_t n = 0;
  for (const auto& v : arith) {
    for (const auto& r : v) n += r.ids.size();
  }
  for (const auto& v : strings) {
    for (const auto& r : v) n += r.ids.size();
  }
  return n;
}

bool SummaryDelta::empty() const noexcept {
  for (const auto& v : arith) {
    if (!v.empty()) return false;
  }
  for (const auto& v : strings) {
    if (!v.empty()) return false;
  }
  return true;
}

size_t SummaryDelta::edit_count() const noexcept {
  size_t n = 0;
  for (const auto& v : arith) n += v.size();
  for (const auto& v : strings) n += v.size();
  return n;
}

SummaryImage extract_image(const BrokerSummary& s) {
  const model::Schema& schema = s.schema();
  SummaryImage img;
  img.arith.resize(schema.attr_count());
  img.strings.resize(schema.attr_count());
  for (model::AttrId a = 0; a < schema.attr_count(); ++a) {
    if (is_arithmetic(schema.type_of(a))) {
      const auto& pieces = s.aacs(a).pieces();
      auto& rows = img.arith[a];
      rows.reserve(pieces.size());
      // Aacs pieces are already sorted by lo and pairwise disjoint.
      for (const auto& p : pieces) rows.push_back({p.iv, p.ids});
    } else {
      const Sacs& sacs = s.sacs(a);
      auto& rows = img.strings[a];
      rows.reserve(sacs.nr());
      for (const auto& row : sacs.eq_rows()) rows.push_back({row.pattern, row.ids});
      for (const auto& row : sacs.pat_rows()) rows.push_back({row.pattern, row.ids});
      std::sort(rows.begin(), rows.end(),
                [](const SummaryImage::StringRow& x, const SummaryImage::StringRow& y) {
                  return x.pattern < y.pattern;
                });
    }
  }
  return img;
}

BrokerSummary build_summary(const SummaryImage& img, const model::Schema& schema,
                            GeneralizePolicy policy, AacsMode arith_mode) {
  BrokerSummary out(schema, policy, arith_mode);
  merge_into_summary(img, out);
  return out;
}

void merge_into_summary(const SummaryImage& img, BrokerSummary& out,
                        std::optional<model::BrokerId> skip) {
  std::vector<model::SubId> kept;
  const auto keep = [&](const std::vector<model::SubId>& ids) {
    if (!skip) return std::span<const model::SubId>(ids);
    kept.clear();
    std::copy_if(ids.begin(), ids.end(), std::back_inserter(kept),
                 [&](const model::SubId& id) { return id.broker != *skip; });
    return std::span<const model::SubId>(kept);
  };
  for (model::AttrId a = 0; a < img.arith.size(); ++a) {
    for (const auto& row : img.arith[a]) out.insert_arith(a, row.iv, keep(row.ids));
  }
  for (model::AttrId a = 0; a < img.strings.size(); ++a) {
    for (const auto& row : img.strings[a]) out.insert_string(a, row.pattern, keep(row.ids));
  }
}

uint64_t image_digest(const SummaryImage& img) noexcept {
  // Commutative fold: row order (and thus build history) cannot matter.
  uint64_t d = 0;
  for (model::AttrId a = 0; a < img.arith.size(); ++a) {
    for (const auto& row : img.arith[a]) d += hash_arith_row(a, row);
  }
  for (model::AttrId a = 0; a < img.strings.size(); ++a) {
    for (const auto& row : img.strings[a]) d += hash_string_row(a, row);
  }
  return d;
}

uint64_t summary_digest(const BrokerSummary& s) { return image_digest(extract_image(s)); }

SummaryDelta diff_images(const SummaryImage& base, const SummaryImage& target) {
  if (base.arith.size() != target.arith.size() ||
      base.strings.size() != target.strings.size()) {
    throw std::invalid_argument("diff_images: schema mismatch");
  }
  SummaryDelta d;
  d.arith.resize(target.arith.size());
  d.strings.resize(target.strings.size());

  struct ArithEditBuilder : SummaryDelta::ArithEdit {
    void key_from(const SummaryImage::ArithRow& r) { iv = r.iv; }
  };
  struct StringEditBuilder : SummaryDelta::StringEdit {
    void key_from(const SummaryImage::StringRow& r) { pattern = r.pattern; }
  };

  for (model::AttrId a = 0; a < target.arith.size(); ++a) {
    std::vector<ArithEditBuilder> edits;
    diff_rows(base.arith[a], target.arith[a], edits,
              [](const SummaryImage::ArithRow& x, const SummaryImage::ArithRow& y) {
                return arith_key_less(x.iv, y.iv);
              });
    d.arith[a].assign(std::make_move_iterator(edits.begin()),
                      std::make_move_iterator(edits.end()));
  }
  for (model::AttrId a = 0; a < target.strings.size(); ++a) {
    std::vector<StringEditBuilder> edits;
    diff_rows(base.strings[a], target.strings[a], edits,
              [](const SummaryImage::StringRow& x, const SummaryImage::StringRow& y) {
                return x.pattern < y.pattern;
              });
    d.strings[a].assign(std::make_move_iterator(edits.begin()),
                        std::make_move_iterator(edits.end()));
  }
  return d;
}

void apply_delta(SummaryImage& img, const SummaryDelta& d) {
  if (img.arith.size() < d.arith.size()) img.arith.resize(d.arith.size());
  if (img.strings.size() < d.strings.size()) img.strings.resize(d.strings.size());

  for (model::AttrId a = 0; a < d.arith.size(); ++a) {
    auto& rows = img.arith[a];
    for (const auto& e : d.arith[a]) {
      auto it = std::lower_bound(rows.begin(), rows.end(), e.iv,
                                 [](const SummaryImage::ArithRow& r, const Interval& key) {
                                   return arith_key_less(r.iv, key);
                                 });
      const bool found = it != rows.end() && it->iv == e.iv;
      if (e.drop) {
        if (found) rows.erase(it);
        continue;
      }
      if (!found) it = rows.insert(it, {e.iv, {}});
      if (!e.del.empty()) it->ids = id_difference(it->ids, e.del);
      if (!e.add.empty()) it->ids = id_union(it->ids, e.add);
      if (it->ids.empty()) rows.erase(it);
    }
  }
  for (model::AttrId a = 0; a < d.strings.size(); ++a) {
    auto& rows = img.strings[a];
    for (const auto& e : d.strings[a]) {
      auto it = std::lower_bound(rows.begin(), rows.end(), e.pattern,
                                 [](const SummaryImage::StringRow& r, const StringPattern& key) {
                                   return r.pattern < key;
                                 });
      const bool found = it != rows.end() && it->pattern == e.pattern;
      if (e.drop) {
        if (found) rows.erase(it);
        continue;
      }
      if (!found) it = rows.insert(it, {e.pattern, {}});
      if (!e.del.empty()) it->ids = id_difference(it->ids, e.del);
      if (!e.add.empty()) it->ids = id_union(it->ids, e.add);
      if (it->ids.empty()) rows.erase(it);
    }
  }
}

std::vector<std::byte> encode_delta(const SummaryDelta& d, const model::Schema& schema,
                                    const WireConfig& cfg, const DeltaHeader& header) {
  if (d.arith.size() != schema.attr_count() || d.strings.size() != schema.attr_count()) {
    throw std::invalid_argument("encode_delta: schema mismatch");
  }
  util::BufWriter w(256);
  w.put_u8(kDeltaVersion);
  w.put_u64(header.epoch);
  w.put_u64(header.base_version);
  w.put_u64(header.new_version);
  w.put_u64(header.base_digest);
  w.put_u64(header.new_digest);
  put_codec_header(w, cfg, schema);

  for (model::AttrId a = 0; a < schema.attr_count(); ++a) {
    if (is_arithmetic(schema.type_of(a))) {
      w.put_varint(d.arith[a].size());
      for (const auto& e : d.arith[a]) {
        put_aacs_key(w, e.iv, cfg.numeric_width, e.drop);
        if (!e.drop) {
          put_ids(w, cfg.codec, e.add);
          put_ids(w, cfg.codec, e.del);
        }
      }
    } else {
      w.put_varint(d.strings[a].size());
      for (const auto& e : d.strings[a]) {
        w.put_u8(e.drop ? 1 : 0);
        put_sacs_key(w, e.pattern);
        if (!e.drop) {
          put_ids(w, cfg.codec, e.add);
          put_ids(w, cfg.codec, e.del);
        }
      }
    }
  }
  return std::move(w).take();
}

SummaryDelta decode_delta(std::span<const std::byte> data, const model::Schema& schema,
                          DeltaHeader* header_out) {
  util::BufReader r(data);
  if (r.get_u8() != kDeltaVersion) throw util::DecodeError("unknown delta version");
  DeltaHeader header;
  header.epoch = r.get_u64();
  header.base_version = r.get_u64();
  header.new_version = r.get_u64();
  header.base_digest = r.get_u64();
  header.new_digest = r.get_u64();
  if (header_out) *header_out = header;
  const WireConfig cfg = get_codec_header(r, schema);

  SummaryDelta d;
  d.arith.resize(schema.attr_count());
  d.strings.resize(schema.attr_count());
  for (model::AttrId a = 0; a < schema.attr_count(); ++a) {
    // Every edit takes at least its one flags byte.
    const uint64_t n = r.get_count(1);
    if (is_arithmetic(schema.type_of(a))) {
      d.arith[a].reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        SummaryDelta::ArithEdit e;
        e.iv = get_aacs_key(r, cfg.numeric_width, &e.drop);
        if (!e.drop) {
          e.add = get_ids(r, cfg.codec);
          e.del = get_ids(r, cfg.codec);
        }
        d.arith[a].push_back(std::move(e));
      }
    } else {
      d.strings[a].reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        const uint8_t flags = r.get_u8();
        if (flags > 1) throw util::DecodeError("bad SACS edit flags on the wire");
        SummaryDelta::StringEdit e;
        e.pattern = get_sacs_key(r);
        e.drop = flags != 0;
        if (!e.drop) {
          e.add = get_ids(r, cfg.codec);
          e.del = get_ids(r, cfg.codec);
        }
        d.strings[a].push_back(std::move(e));
      }
    }
  }
  if (!r.done()) throw util::DecodeError("trailing bytes after delta");
  return d;
}

}  // namespace subsum::core
