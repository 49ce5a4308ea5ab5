// Wire format for broker summaries, plus the paper's analytic size
// equations (1) and (2) (§5.1). Propagation benches use the actual encoded
// byte count as the bandwidth measure; bench_summary_size compares the two.
//
// Layout (all multi-byte integers little-endian):
//
//   u8  version                               -- 2; v1 (no epoch) still decodes
//   u64 epoch                                 -- announcing broker's incarnation
//   u8  numeric_width (4 or 8)
//   u8  c1_bits, u8 c2_bits, u8 c3_bits      -- SubIdCodec parameters
//   varint attr_count                         -- must equal the schema's
//   for each attribute, in schema order:
//     arithmetic:  varint n_pieces
//                  per piece: u8 flags, [lo], [hi], varint n_ids, ids
//     string:      varint n_rows
//                  per row:   u8 op, varint len, operand bytes,
//                             varint n_ids, ids
//
// Piece flags: bits 0-1 = lo offset + 1, bits 2-3 = hi offset + 1,
// bit 4 = lo is -inf (lo omitted), bit 5 = hi is +inf (hi omitted),
// bit 6 = point row (hi omitted; an AACS_E row).
//
// Subscription ids are packed c1|c2|c3 (SubIdCodec) in
// codec.encoded_size() bytes each — the paper's `sid`.
//
// Everything after the epoch is the row codec declared below, which the
// delta format (core/delta.h) shares.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/summary.h"
#include "model/sub_id.h"
#include "util/bytes.h"

namespace subsum::core {

struct WireConfig {
  model::SubIdCodec codec;
  uint8_t numeric_width = 8;  // 8 = exact doubles/int64; 4 = paper's sst
};

/// Encodes a summary. With numeric_width 4, float values are narrowed to
/// float32 and integral values must fit in int32 (throws std::range_error
/// otherwise). `epoch` stamps the image with the announcing broker's
/// incarnation number (see net/broker_node.h; 0 = epochs unused).
std::vector<std::byte> encode_summary(const BrokerSummary& summary, const WireConfig& cfg,
                                      uint64_t epoch = 0);

/// Decodes a summary previously produced by encode_summary over the same
/// schema. Throws util::DecodeError on malformed input. When `epoch_out`
/// is non-null it receives the image's epoch stamp (0 for v1 images).
BrokerSummary decode_summary(std::span<const std::byte> data, const model::Schema& schema,
                             GeneralizePolicy policy = GeneralizePolicy::kSafe,
                             AacsMode arith_mode = AacsMode::kExact,
                             uint64_t* epoch_out = nullptr);

/// Encoded size in bytes (== encode_summary(...).size()).
size_t wire_size(const BrokerSummary& summary, const WireConfig& cfg);

// --- the row codec ----------------------------------------------------------
// Full images and deltas (core/delta.h) write and read their codec header,
// row keys and id lists through these functions and nothing else, so the
// two formats cannot drift apart.

/// Codec header: u8 numeric_width, u8 c1/c2/c3 bits, varint attr_count.
/// Throws std::invalid_argument on a width other than 4 or 8.
void put_codec_header(util::BufWriter& w, const WireConfig& cfg, const model::Schema& schema);

/// Reads a codec header. Throws util::DecodeError on a bad width, a c1
/// wider than any uint32 broker count, inconsistent codec parameters or an
/// attribute count other than the schema's.
WireConfig get_codec_header(util::BufReader& r, const model::Schema& schema);

/// Packed id list: varint count, then codec.encoded_size() bytes per id.
void put_ids(util::BufWriter& w, const model::SubIdCodec& codec,
             const std::vector<model::SubId>& ids);

/// Reads a packed id list; the result is sorted and unique.
std::vector<model::SubId> get_ids(util::BufReader& r, const model::SubIdCodec& codec);

/// AACS row key: the flags byte, then the finite bounds at `width`. `drop`
/// sets flags bit 7, which only deltas use.
void put_aacs_key(util::BufWriter& w, const Interval& iv, uint8_t width, bool drop = false);

/// Reads an AACS row key; flags bit 7 lands in `*drop` when non-null.
/// Throws util::DecodeError on an empty interval.
Interval get_aacs_key(util::BufReader& r, uint8_t width, bool* drop = nullptr);

/// SACS row key: u8 operator, then the operand string.
void put_sacs_key(util::BufWriter& w, const StringPattern& p);

/// Reads a SACS row key. Throws util::DecodeError on a non-string operator.
StringPattern get_sacs_key(util::BufReader& r);

/// The paper's size model, equations (1) and (2).
struct PaperSizeParams {
  size_t sst = 4;  // storage size of an arithmetic value
  size_t sid = 4;  // storage size of a subscription id
  size_t ssv = 10;  // average storage size of a string value
};

struct PaperSize {
  size_t aacs_bytes = 0;  // equation (1): (2·nsr + ne)·sst + La·sid
  size_t sacs_bytes = 0;  // equation (2): nr·ssv + Ls·sid
  [[nodiscard]] size_t total() const noexcept { return aacs_bytes + sacs_bytes; }
};

/// Evaluates equations (1)-(2) on a summary's actual row counts. When
/// `measured_ssv` is true the real string-operand bytes are used instead of
/// the ssv estimate.
PaperSize paper_size(const SummaryStats& stats, const PaperSizeParams& params,
                     bool measured_ssv = false);

}  // namespace subsum::core
