#include "core/home_table.h"

#include <stdexcept>

namespace subsum::core {

using model::SubId;

SubId HomeTable::allocate(model::AttrMask attrs) {
  if (next_local_ >= max_subs_) {
    throw std::runtime_error("broker exceeded max outstanding subscriptions (c2 width)");
  }
  return SubId{owner_, next_local_++, attrs};
}

bool HomeTable::add(model::OwnedSubscription os) {
  const SubId id = os.id;
  if (id.broker != owner_) return false;
  if (!entries_.try_emplace(id.local, HomeEntry{std::move(os), {}}).second) return false;
  advance_next_local(id.local + 1);
  return true;
}

bool HomeTable::remove(SubId id) {
  const HomeEntry* e = find(id);
  if (!e) return false;
  if (e->lease.ttl > 0) --leases_;
  entries_.erase(id.local);
  return true;
}

const HomeEntry* HomeTable::find(SubId id) const {
  const auto it = entries_.find(id.local);
  return it != entries_.end() && it->second.id == id ? &it->second : nullptr;
}

std::vector<SubId> HomeTable::refilter(std::span<const SubId> ids,
                                       const model::Event& event) const {
  std::vector<SubId> out;
  for (const SubId& id : ids) {
    if (const HomeEntry* e = find(id); e && e->sub.matches(event)) out.push_back(id);
  }
  return out;
}

std::vector<SubId> HomeTable::match(const model::Event& event) const {
  std::vector<SubId> out;
  for (const HomeEntry& e : entries()) {
    if (e.sub.matches(event)) out.push_back(e.id);
  }
  return out;
}

bool HomeTable::grant_lease(SubId id, uint32_t ttl) {
  HomeEntry* e = find_mut(id);
  if (!e) return false;
  if (e->lease.ttl > 0) --leases_;
  if (ttl > 0) ++leases_;
  e->lease = Lease{ttl, ttl};
  return true;
}

bool HomeTable::renew_lease(SubId id) {
  HomeEntry* e = find_mut(id);
  if (!e || e->lease.ttl == 0) return false;
  e->lease.remaining = e->lease.ttl;
  return true;
}

std::vector<SubId> HomeTable::tick_leases() {
  std::vector<SubId> expired;
  if (leases_ == 0) return expired;  // skip the walk in lease-free tables
  for (HomeEntry& e : std::views::values(entries_)) {
    if (e.lease.ttl == 0 || --e.lease.remaining > 0) continue;
    e.lease = Lease{};
    --leases_;
    expired.push_back(e.id);
  }
  return expired;
}

}  // namespace subsum::core
