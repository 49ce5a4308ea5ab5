#include "store/broker_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "net/protocol.h"
#include "obs/trace.h"
#include "util/crc32c.h"

namespace subsum::store {

namespace {

constexpr char kSnapshotMagic[8] = {'S', 'S', 'U', 'M', 'S', 'N', 'P', '2'};
constexpr uint8_t kRecSubscribe = 1;
constexpr uint8_t kRecUnsubscribe = 2;
constexpr uint8_t kRecLease = 3;  // (sub_id, ttl): grant or renewal

std::optional<std::vector<std::byte>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  std::vector<std::byte> out(size > 0 ? static_cast<size_t>(size) : 0);
  in.seekg(0);
  if (!out.empty() && !in.read(reinterpret_cast<char*>(out.data()), size)) return std::nullopt;
  return out;
}

/// Durable replace: write path.tmp, fsync, rename over path, fsync the
/// directory so the rename itself survives a crash.
void write_file_atomic(const std::string& dir, const std::string& path,
                       std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw StoreError("open failed for " + tmp + ": " + std::strerror(errno));
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        throw StoreError("write failed for " + tmp + ": " + std::strerror(err));
      }
      off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      throw StoreError("fsync failed for " + tmp + ": " + std::strerror(err));
    }
    ::close(fd);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw StoreError("rename failed for " + path + ": " + std::strerror(errno));
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

BrokerStore::BrokerStore(std::string dir, model::Schema schema, core::GeneralizePolicy policy,
                         core::WireConfig wire, overlay::BrokerId owner,
                         uint64_t max_subs_per_broker)
    : dir_(std::move(dir)),
      schema_(std::move(schema)),
      policy_(policy),
      wire_(std::move(wire)),
      owner_(owner),
      max_subs_(max_subs_per_broker) {
  std::filesystem::create_directories(dir_);
}

BrokerStore::~BrokerStore() = default;

uint64_t BrokerStore::read_epoch_file() const {
  const auto bytes = read_file(dir_ + "/epoch");
  if (!bytes || bytes->size() != 12) return 0;
  util::BufReader r(*bytes);
  const uint64_t epoch = r.get_u64();
  const uint32_t crc = r.get_u32();
  const std::span<const std::byte> all(*bytes);
  if (util::crc32c(all.first(8)) != crc) return 0;  // corrupt: distrust
  return epoch;
}

void BrokerStore::persist_epoch(uint64_t epoch) const {
  util::BufWriter w(12);
  w.put_u64(epoch);
  w.put_u32(util::crc32c(w.bytes()));
  write_file_atomic(dir_, dir_ + "/epoch", w.bytes());
}

DurableState BrokerStore::open() {
  const core::HomeTable empty_home(owner_, max_subs_);
  DurableState st(empty_home);
  uint64_t snap_epoch = 0;

  // 1. Snapshot (trusted only when magic + CRC + rebuild verification pass).
  if (const auto bytes = read_file(dir_ + "/snapshot")) {
    const std::span<const std::byte> all(*bytes);
    bool trusted = false;
    try {
      if (bytes->size() >= 16 &&
          std::memcmp(bytes->data(), kSnapshotMagic, sizeof kSnapshotMagic) == 0) {
        util::BufReader hdr(all.subspan(8, 8));
        const uint32_t len = hdr.get_u32();
        const uint32_t crc = hdr.get_u32();
        if (bytes->size() == 16 + static_cast<size_t>(len)) {
          const auto payload = all.subspan(16, len);
          if (util::crc32c(payload) == crc) {
            util::BufReader r(payload);
            snap_epoch = r.get_u64();
            st.home.advance_next_local(static_cast<uint32_t>(r.get_varint()));
            const uint64_t nsubs = r.get_varint();
            for (uint64_t i = 0; i < nsubs; ++i) {
              const model::SubId id = net::get_sub_id(r);
              // A duplicate or foreign id is left out, so the own-image
              // check below fails and the snapshot is distrusted.
              st.home.add({id, net::get_subscription(r, schema_)});
            }
            const uint64_t nmerged = r.get_varint();
            for (uint64_t i = 0; i < nmerged; ++i) {
              st.merged_brokers.push_back(static_cast<overlay::BrokerId>(r.get_varint()));
              st.merged_epochs.push_back(r.get_u64());
            }
            const auto own_image = r.get_bytes(r.get_varint());
            const auto held_image = r.get_bytes(r.get_varint());
            // Optional trailing lease section (v4 soft state); snapshots
            // written before it decode with no leases.
            if (!r.done()) {
              const uint64_t nleases = r.get_varint();
              for (uint64_t i = 0; i < nleases; ++i) {
                const model::SubId id = net::get_sub_id(r);
                const auto ttl = static_cast<uint32_t>(r.get_varint());
                r.get_varint();  // remaining at snapshot time; the grant re-arms
                st.home.grant_lease(id, ttl);
              }
            }
            if (!r.done()) throw util::DecodeError("trailing bytes after snapshot");
            // Cross-check: the own-summary image must equal, bit for bit,
            // what the existing rebuild path derives from the persisted
            // subscription set. A mismatch means the snapshot lies about
            // itself — demote it rather than serve wrong routing state.
            const auto rebuilt = core::encode_summary(
                core::BrokerSummary::rebuild(schema_, policy_, st.home.entries()), wire_,
                snap_epoch);
            if (rebuilt.size() == own_image.size() &&
                std::equal(rebuilt.begin(), rebuilt.end(), own_image.begin())) {
              st.held = core::decode_summary(held_image, schema_, policy_);
              st.own_image_verified = true;
              trusted = true;
            }
          }
        }
      }
    } catch (const util::DecodeError&) {
      trusted = false;
    } catch (const std::invalid_argument&) {
      trusted = false;  // e.g. a decoded subscription failing validation
    }
    if (!trusted) {
      st = DurableState(empty_home);  // discard everything the snapshot claimed
      st.snapshot_fell_back = true;
      snap_epoch = 0;
    }
  }
  if (!st.held) st.held.emplace(schema_, policy_);

  // 2. WAL tail (idempotent replay; torn tail discarded + truncated away).
  const WalReplay rep = replay_wal(dir_ + "/wal");
  st.wal_torn = rep.torn_tail;
  for (const auto& rec : rep.records) {
    try {
      util::BufReader r(rec);
      const uint8_t kind = r.get_u8();
      if (kind == kRecSubscribe) {
        const model::SubId id = net::get_sub_id(r);
        // A duplicate is one the snapshot already covers (crash mid-compaction).
        if (!st.home.add({id, net::get_subscription(r, schema_)})) continue;
        st.held->add(st.home.find(id)->sub, id);
      } else if (kind == kRecUnsubscribe) {
        const model::SubId id = net::get_sub_id(r);
        if (st.home.remove(id)) st.held->remove(id);
      } else if (kind == kRecLease) {
        const model::SubId id = net::get_sub_id(r);
        st.home.grant_lease(id, static_cast<uint32_t>(r.get_varint()));
      }
      // Unknown kinds: skip (forward compatibility), the CRC already
      // guaranteed the record is intact.
    } catch (const util::DecodeError&) {
      // An intact-CRC record that fails decoding is a logic-version skew;
      // skip it rather than refuse to start.
    } catch (const std::invalid_argument&) {
    }
  }

  // 3. New incarnation: outrank everything persisted, and make it durable
  // BEFORE any announcement can carry it.
  epoch_ = std::max(read_epoch_file(), snap_epoch) + 1;
  persist_epoch(epoch_);
  st.epoch = epoch_;

  wal_ = std::make_unique<WalWriter>(dir_ + "/wal");
  if (rep.torn_tail) wal_->truncate(rep.valid_bytes);
  wal_base_records_ = rep.records.size();
  wal_base_bytes_ = rep.valid_bytes;
  return st;
}

void BrokerStore::log_subscribe(const model::OwnedSubscription& os) {
  util::BufWriter w;
  w.put_u8(kRecSubscribe);
  net::put_sub_id(w, os.id);
  net::put_subscription(w, os.sub);
  wal_->append(w.bytes());
}

void BrokerStore::log_unsubscribe(model::SubId id) {
  util::BufWriter w;
  w.put_u8(kRecUnsubscribe);
  net::put_sub_id(w, id);
  wal_->append(w.bytes());
}

void BrokerStore::log_lease(model::SubId id, uint32_t ttl_periods) {
  util::BufWriter w;
  w.put_u8(kRecLease);
  net::put_sub_id(w, id);
  w.put_varint(ttl_periods);
  wal_->append(w.bytes());
}

void BrokerStore::commit() {
  if (!fsync_us_ && !stage_fsync_us_) {
    wal_->sync();
    return;
  }
  const uint64_t t0 = obs::now_us();
  wal_->sync();
  const uint64_t dt = obs::now_us() - t0;
  if (fsync_us_) fsync_us_->observe(dt);
  if (stage_fsync_us_) stage_fsync_us_->observe(dt);
}

uint64_t BrokerStore::wal_records() const noexcept {
  return wal_ ? wal_base_records_ + wal_->appended() : 0;
}

uint64_t BrokerStore::wal_bytes() const noexcept {
  return wal_ ? wal_base_bytes_ + wal_->appended_bytes() : 0;
}

std::vector<std::byte> BrokerStore::encode_snapshot(const SnapshotInput& in) const {
  const core::HomeTable& home = *in.home;
  util::BufWriter w(4096);
  w.put_u64(epoch_);
  w.put_varint(home.next_local());
  w.put_varint(home.size());
  for (const core::HomeEntry& e : home.entries()) {
    net::put_sub_id(w, e.id);
    net::put_subscription(w, e.sub);
  }
  w.put_varint(in.merged_brokers.size());
  for (size_t i = 0; i < in.merged_brokers.size(); ++i) {
    w.put_varint(in.merged_brokers[i]);
    w.put_u64(i < in.merged_epochs.size() ? in.merged_epochs[i] : 0);
  }
  const auto own = core::encode_summary(
      core::BrokerSummary::rebuild(schema_, policy_, home.entries()), wire_, epoch_);
  w.put_varint(own.size());
  w.put_bytes(own);
  const auto held = core::encode_summary(*in.held, wire_, epoch_);
  w.put_varint(held.size());
  w.put_bytes(held);
  // v4 trailing lease section: pre-v4 readers rejected trailing bytes, so
  // this rides behind everything they parsed; the current reader treats it
  // as optional.
  w.put_varint(home.lease_count());
  for (const core::HomeEntry& e : home.entries()) {
    if (e.lease.ttl == 0) continue;
    net::put_sub_id(w, e.id);
    w.put_varint(e.lease.ttl);
    w.put_varint(e.lease.remaining);
  }
  return std::move(w).take();
}

void BrokerStore::write_snapshot(const SnapshotInput& in) {
  const uint64_t t0 = snapshot_us_ ? obs::now_us() : 0;
  const auto payload = encode_snapshot(in);
  util::BufWriter w(16 + payload.size());
  w.put_bytes(std::span(reinterpret_cast<const std::byte*>(kSnapshotMagic),
                        sizeof kSnapshotMagic));
  w.put_u32(static_cast<uint32_t>(payload.size()));
  w.put_u32(util::crc32c(payload));
  w.put_bytes(payload);
  write_file_atomic(dir_, dir_ + "/snapshot", w.bytes());
  // Only after the snapshot is durably in place may the log shrink; a
  // crash in between just replays the log's records onto the snapshot
  // (replay is idempotent).
  wal_->reset();
  wal_base_records_ = 0;
  wal_base_bytes_ = 0;
  last_snapshot_bytes_ = static_cast<uint64_t>(w.bytes().size());
  if (snapshot_us_) snapshot_us_->observe(obs::now_us() - t0);
}

}  // namespace subsum::store
