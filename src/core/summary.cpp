#include "core/summary.h"

#include <algorithm>
#include <stdexcept>

#include "core/frozen_index.h"

namespace subsum::core {

using model::AttrId;
using model::AttrType;

namespace {

std::atomic<uint64_t> g_summary_version{0};

uint64_t next_version() noexcept {
  // Versions are globally unique (never 0), so an index can never be
  // mistaken for fresh after any mutation — including across summary
  // copies that share an index handle.
  return g_summary_version.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

BrokerSummary::BrokerSummary(const model::Schema& schema, GeneralizePolicy policy,
                             AacsMode arith_mode)
    : schema_(&schema), policy_(policy), arith_mode_(arith_mode), version_(next_version()) {
  aacs_.assign(schema.attr_count(), Aacs(arith_mode));
  sacs_.assign(schema.attr_count(), Sacs(policy));
}

BrokerSummary::BrokerSummary(const BrokerSummary& o)
    : schema_(o.schema_),
      policy_(o.policy_),
      arith_mode_(o.arith_mode_),
      aacs_(o.aacs_),
      sacs_(o.sacs_),
      version_(o.version_),
      approx_id_entries_(o.approx_id_entries_) {
  index_.store(o.index_.load(std::memory_order_acquire), std::memory_order_release);
}

BrokerSummary& BrokerSummary::operator=(const BrokerSummary& o) {
  if (this == &o) return *this;
  schema_ = o.schema_;
  policy_ = o.policy_;
  arith_mode_ = o.arith_mode_;
  aacs_ = o.aacs_;
  sacs_ = o.sacs_;
  version_ = o.version_;
  approx_id_entries_ = o.approx_id_entries_;
  dirty_matches_.store(0, std::memory_order_relaxed);
  index_.store(o.index_.load(std::memory_order_acquire), std::memory_order_release);
  return *this;
}

BrokerSummary::BrokerSummary(BrokerSummary&& o) noexcept
    : schema_(o.schema_),
      policy_(o.policy_),
      arith_mode_(o.arith_mode_),
      aacs_(std::move(o.aacs_)),
      sacs_(std::move(o.sacs_)),
      version_(o.version_),
      approx_id_entries_(o.approx_id_entries_) {
  index_.store(o.index_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_release);
  o.version_ = 0;
  o.approx_id_entries_ = 0;
}

BrokerSummary& BrokerSummary::operator=(BrokerSummary&& o) noexcept {
  if (this == &o) return *this;
  schema_ = o.schema_;
  policy_ = o.policy_;
  arith_mode_ = o.arith_mode_;
  aacs_ = std::move(o.aacs_);
  sacs_ = std::move(o.sacs_);
  version_ = o.version_;
  approx_id_entries_ = o.approx_id_entries_;
  dirty_matches_.store(0, std::memory_order_relaxed);
  index_.store(o.index_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_release);
  o.version_ = 0;
  o.approx_id_entries_ = 0;
  return *this;
}

BrokerSummary::~BrokerSummary() = default;

void BrokerSummary::bump_version() noexcept {
  version_ = next_version();
  dirty_matches_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<const FrozenIndex> BrokerSummary::frozen_for_match() const {
  std::shared_ptr<const FrozenIndex> idx = index_.load(std::memory_order_acquire);
  if (idx && idx->summary_version() == version_) {
    return idx->usable() ? idx : nullptr;
  }
  if (!schema_ || approx_id_entries_ < index_options().min_id_entries) return nullptr;
  if (idx) {
    // Stale index: the classic engine serves matches (always correct on
    // the live structures) until enough of them amortize a re-freeze.
    const uint64_t threshold = std::max<uint64_t>(64, approx_id_entries_ / 1024);
    if (dirty_matches_.fetch_add(1, std::memory_order_relaxed) + 1 < threshold) {
      return nullptr;
    }
    dirty_matches_.store(0, std::memory_order_relaxed);
  }
  auto fresh = FrozenIndex::build(*this);
  index_.store(fresh, std::memory_order_release);
  return fresh->usable() ? fresh : nullptr;
}

std::shared_ptr<const FrozenIndex> BrokerSummary::frozen_if_built() const {
  std::shared_ptr<const FrozenIndex> idx = index_.load(std::memory_order_acquire);
  if (idx && idx->summary_version() == version_ && idx->usable()) return idx;
  return nullptr;
}

void BrokerSummary::add(const model::Subscription& sub, model::SubId id) {
  if (sub.mask() != id.attrs) {
    throw std::invalid_argument("subscription id c3 mask does not match the subscription");
  }
  // Group the constraints by attribute; arithmetic ones are intersected.
  for (AttrId a = 0; a < schema_->attr_count(); ++a) {
    if (!(sub.mask() & model::attr_bit(a))) continue;
    if (is_arithmetic(schema_->type_of(a))) {
      IntervalSet region = IntervalSet::all();
      for (const auto& c : sub.constraints()) {
        if (c.attr != a) continue;
        region = region.intersect(IntervalSet::from_constraint(c.op, c.operand.as_number()));
      }
      aacs_[a].insert(region, id);
    } else {
      for (const auto& c : sub.constraints()) {
        if (c.attr != a) continue;
        sacs_[a].insert(StringPattern{c.op, c.operand.as_string()}, id);
      }
    }
  }
  approx_id_entries_ += static_cast<size_t>(id.attr_count());
  bump_version();
}

void BrokerSummary::remove(model::SubId id) {
  for (AttrId a = 0; a < schema_->attr_count(); ++a) {
    if (!(id.attrs & model::attr_bit(a))) continue;
    if (is_arithmetic(schema_->type_of(a))) {
      aacs_[a].remove(id);
    } else {
      sacs_[a].remove(id);
    }
  }
  const size_t d = static_cast<size_t>(id.attr_count());
  approx_id_entries_ -= std::min(approx_id_entries_, d);
  bump_version();
}

void BrokerSummary::remove_broker(model::BrokerId broker) {
  for (AttrId a = 0; a < schema_->attr_count(); ++a) {
    if (is_arithmetic(schema_->type_of(a))) {
      aacs_[a].remove_broker(broker);
    } else {
      sacs_[a].remove_broker(broker);
    }
  }
  // Admin path: cheap to make the heuristic exact again.
  const SummaryStats st = stats();
  approx_id_entries_ = st.la_entries + st.ls_entries;
  bump_version();
}

void BrokerSummary::merge(const BrokerSummary& other) {
  if (!schema_ || !other.schema_ || !(*schema_ == *other.schema_)) {
    throw std::invalid_argument("cannot merge summaries over different schemata");
  }
  for (AttrId a = 0; a < schema_->attr_count(); ++a) {
    if (is_arithmetic(schema_->type_of(a))) {
      aacs_[a].merge(other.aacs_[a]);
    } else {
      sacs_[a].merge(other.sacs_[a]);
    }
  }
  approx_id_entries_ += other.approx_id_entries_;
  bump_version();
}

void BrokerSummary::insert_arith(model::AttrId id, const Interval& iv,
                                 std::span<const model::SubId> ids) {
  if (!is_arithmetic(schema_->type_of(id))) throw model::TypeError("attribute is not arithmetic");
  aacs_.at(id).insert(iv, ids);
  approx_id_entries_ += ids.size();
  bump_version();
}

void BrokerSummary::insert_string(model::AttrId id, const StringPattern& p,
                                  std::span<const model::SubId> ids) {
  if (schema_->type_of(id) != AttrType::kString) throw model::TypeError("attribute is not a string");
  sacs_.at(id).insert(p, ids);
  approx_id_entries_ += ids.size();
  bump_version();
}

void BrokerSummary::clear() {
  for (auto& a : aacs_) a = Aacs(arith_mode_);
  for (auto& s : sacs_) s = Sacs(policy_);
  approx_id_entries_ = 0;
  bump_version();
}

BrokerSummary BrokerSummary::with_schema(const model::Schema& wider) const {
  if (!schema_ || !model::is_extension_of(wider, *schema_)) {
    throw std::invalid_argument("schema is not an extension of this summary's schema");
  }
  BrokerSummary out(wider, policy_, arith_mode_);
  for (AttrId a = 0; a < schema_->attr_count(); ++a) {
    out.aacs_[a] = aacs_[a];
    out.sacs_[a] = sacs_[a];
  }
  out.approx_id_entries_ = approx_id_entries_;
  out.bump_version();
  return out;
}

const Aacs& BrokerSummary::aacs(AttrId id) const {
  if (!is_arithmetic(schema_->type_of(id))) {
    throw model::TypeError("attribute is not arithmetic");
  }
  return aacs_.at(id);
}

const Sacs& BrokerSummary::sacs(AttrId id) const {
  if (schema_->type_of(id) != AttrType::kString) {
    throw model::TypeError("attribute is not a string");
  }
  return sacs_.at(id);
}

bool BrokerSummary::empty() const noexcept {
  for (const auto& a : aacs_) {
    if (!a.empty()) return false;
  }
  for (const auto& s : sacs_) {
    if (!s.empty()) return false;
  }
  return true;
}

SummaryStats BrokerSummary::stats() const noexcept {
  SummaryStats st;
  for (const auto& a : aacs_) {
    st.nsr += a.nsr();
    st.ne += a.ne();
    st.la_entries += a.id_entries();
  }
  for (const auto& s : sacs_) {
    st.nr += s.nr();
    st.ls_entries += s.id_entries();
    st.value_bytes += s.value_bytes();
  }
  return st;
}

std::string BrokerSummary::to_string() const {
  std::string out;
  for (AttrId a = 0; a < schema_->attr_count(); ++a) {
    const auto& spec = schema_->spec(a);
    if (is_arithmetic(spec.type)) {
      if (aacs_[a].empty()) continue;
      out += "AACS[" + spec.name + "]\n" + aacs_[a].to_string();
    } else {
      if (sacs_[a].empty()) continue;
      out += "SACS[" + spec.name + "]\n" + sacs_[a].to_string();
    }
  }
  return out;
}

}  // namespace subsum::core
