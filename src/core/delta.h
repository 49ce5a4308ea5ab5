// Soft-state summary maintenance: canonical raw-row images, order-independent
// digests, and structural deltas (PROTOCOL.md v4).
//
// A SummaryImage is the raw-row view of a BrokerSummary: per attribute, the
// AACS pieces and SACS rows with their sorted id lists, in a canonical order
// (pieces by interval, string rows by (op, operand)). Two summaries that
// summarize the same state extract to equal images regardless of insertion
// history, so images are what delta propagation diffs, applies, and digests:
//
//   * the SENDER keeps, per neighbor, the image it last announced and ships
//     diff(last_sent, current) — added/dropped rows plus id-list splices;
//   * the RECEIVER keeps, per neighbor, a shadow image of that neighbor's
//     announcement and applies the delta to it row-for-row (never through
//     Aacs/Sacs insertion, which would split or generalize);
//   * both sides agree the apply worked iff image_digest(shadow) equals the
//     digest the sender stamped on the wire — on mismatch the receiver acks
//     kNeedFull and the sender pushes its full image at once, so divergence
//     is detected and healed within one propagation period.
//
// The digest is a commutative fold (sum mod 2^64 of per-row FNV-1a hashes),
// so it is independent of row order and of how the summary was built.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/serialize.h"
#include "core/summary.h"

namespace subsum::core {

/// Canonical raw-row view of one BrokerSummary.
struct SummaryImage {
  struct ArithRow {
    Interval iv;
    std::vector<model::SubId> ids;  // sorted, unique
    bool operator==(const ArithRow&) const = default;
  };
  struct StringRow {
    StringPattern pattern;
    std::vector<model::SubId> ids;  // sorted, unique
    bool operator==(const StringRow&) const = default;
  };

  std::vector<std::vector<ArithRow>> arith;     // [attr], sorted by (lo, hi)
  std::vector<std::vector<StringRow>> strings;  // [attr], sorted by (op, operand)

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] size_t row_count() const noexcept;
  [[nodiscard]] size_t id_entries() const noexcept;

  bool operator==(const SummaryImage&) const = default;
};

/// Extracts the canonical image of `s`. O(rows + id entries).
SummaryImage extract_image(const BrokerSummary& s);

/// Rebuilds a matchable summary from an image. Because image rows came out
/// of AACS/SACS structures that already satisfy the no-row-covers-another
/// invariant, insertion reproduces them exactly (same guarantee the wire
/// decoder relies on).
BrokerSummary build_summary(const SummaryImage& img, const model::Schema& schema,
                            GeneralizePolicy policy = GeneralizePolicy::kSafe,
                            AacsMode arith_mode = AacsMode::kExact);

/// Folds an image's rows into an existing summary (held-state rebuild path).
void merge_into_summary(const SummaryImage& img, BrokerSummary& out);

/// Order-independent content digest: sum mod 2^64 of per-row FNV-1a hashes
/// over (attr, row key, id list). Equal images ⇒ equal digests; unequal
/// digests ⇒ unequal images.
uint64_t image_digest(const SummaryImage& img) noexcept;

/// Convenience: image_digest(extract_image(s)).
uint64_t summary_digest(const BrokerSummary& s);

/// Structural delta turning one image into another. Each edit targets one
/// row by key: `drop` deletes the row outright; otherwise `add`/`del` splice
/// the id list (creating the row when absent, erasing it when emptied).
struct SummaryDelta {
  struct ArithEdit {
    Interval iv;
    bool drop = false;
    std::vector<model::SubId> add;  // sorted, unique
    std::vector<model::SubId> del;  // sorted, unique
    bool operator==(const ArithEdit&) const = default;
  };
  struct StringEdit {
    StringPattern pattern;
    bool drop = false;
    std::vector<model::SubId> add;
    std::vector<model::SubId> del;
    bool operator==(const StringEdit&) const = default;
  };

  std::vector<std::vector<ArithEdit>> arith;     // [attr]
  std::vector<std::vector<StringEdit>> strings;  // [attr]

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] size_t edit_count() const noexcept;

  bool operator==(const SummaryDelta&) const = default;
};

/// Computes the delta with apply_delta(base, diff) == target.
SummaryDelta diff_images(const SummaryImage& base, const SummaryImage& target);

/// Applies a delta in place. Total by design: dropping an absent row or
/// deleting absent ids is a no-op — correctness is judged by the digest the
/// sender stamped on the wire, not by apply-time bookkeeping, so a stale
/// base surfaces as a digest mismatch (→ kNeedFull, full-image repair),
/// never UB.
void apply_delta(SummaryImage& img, const SummaryDelta& d);

/// Wire header carried by every encoded delta (PROTOCOL.md v4).
struct DeltaHeader {
  uint64_t epoch = 0;         // sender incarnation (PR-3 epochs)
  uint64_t base_version = 0;  // sender's summary version at the base image
  uint64_t new_version = 0;   // ... and at the target image
  uint64_t base_digest = 0;   // image_digest of the base the diff assumes
  uint64_t new_digest = 0;    // image_digest the receiver must land on
};

/// Encodes a delta: the DeltaHeader fields, then per attribute the edits
/// written with the row codec of core/serialize.h (the codec header, row
/// keys and id lists are the full format's), plus the drop bit. Schema
/// must match the images the delta was diffed from.
std::vector<std::byte> encode_delta(const SummaryDelta& d, const model::Schema& schema,
                                    const WireConfig& cfg, const DeltaHeader& header);

/// Decodes a delta. Throws util::DecodeError on malformed input.
SummaryDelta decode_delta(std::span<const std::byte> data, const model::Schema& schema,
                          DeltaHeader* header_out = nullptr);

}  // namespace subsum::core
