// Durability layer: CRC-32C vectors, WAL framing and torn-tail replay,
// snapshot compaction, corruption fallback, and epoch monotonicity.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "model/sub_id.h"
#include "store/broker_store.h"
#include "store/wal.h"
#include "util/crc32c.h"
#include "workload/stock_schema.h"

namespace subsum::store {
namespace {

namespace fs = std::filesystem;
using model::Op;
using model::Schema;
using model::SubId;
using model::SubscriptionBuilder;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
  return out;
}

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "subsum_store/" +
                          info->test_suite_name() + "." + info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void append_raw(const std::string& path, const std::vector<std::byte>& junk) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(junk.data()),
            static_cast<std::streamsize>(junk.size()));
}

void corrupt_byte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5A));
}

// --- crc32c -----------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 (iSCSI) test vectors for CRC-32C.
  EXPECT_EQ(util::crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(util::crc32c(std::vector<std::byte>(32, std::byte{0})), 0x8A9136AAu);
  EXPECT_EQ(util::crc32c(std::vector<std::byte>(32, std::byte{0xFF})), 0x62A8AB43u);
  EXPECT_EQ(util::crc32c({}), 0u);
}

TEST(Crc32c, SeedChainsAcrossSplits) {
  const auto whole = bytes_of("the quick brown fox jumps over the lazy dog");
  const uint32_t expect = util::crc32c(whole);
  for (size_t cut = 0; cut <= whole.size(); ++cut) {
    const std::span<const std::byte> all(whole);
    const uint32_t chained = util::crc32c(all.subspan(cut), util::crc32c(all.first(cut)));
    EXPECT_EQ(chained, expect) << "split at " << cut;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto data = bytes_of("subscription summarization");
  const uint32_t clean = util::crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= std::byte{1};
    EXPECT_NE(util::crc32c(data), clean);
    data[i] ^= std::byte{1};
  }
}

// --- WAL --------------------------------------------------------------------

TEST(Wal, RoundTripsRecords) {
  const std::string dir = scratch_dir();
  const std::string path = dir + "/wal";
  {
    WalWriter w(path);
    w.append(bytes_of("alpha"));
    w.append(bytes_of(""));  // empty payloads are legal records
    w.append(bytes_of("gamma"));
    w.sync();
    EXPECT_EQ(w.appended(), 3u);
  }
  const WalReplay rep = replay_wal(path);
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_EQ(rep.records[0], bytes_of("alpha"));
  EXPECT_EQ(rep.records[1], bytes_of(""));
  EXPECT_EQ(rep.records[2], bytes_of("gamma"));
  EXPECT_FALSE(rep.torn_tail);
  EXPECT_EQ(rep.valid_bytes, fs::file_size(path));
}

TEST(Wal, MissingFileYieldsEmptyReplay) {
  const WalReplay rep = replay_wal(scratch_dir() + "/nope");
  EXPECT_TRUE(rep.records.empty());
  EXPECT_FALSE(rep.torn_tail);
}

TEST(Wal, TornTailAtEveryOffsetKeepsIntactPrefix) {
  const std::string dir = scratch_dir();
  const std::string good = dir + "/wal";
  {
    WalWriter w(good);
    w.append(bytes_of("first"));
    w.append(bytes_of("second record, a bit longer"));
    w.sync();
  }
  std::vector<std::byte> full;
  {
    std::ifstream in(good, std::ios::binary | std::ios::ate);
    full.resize(static_cast<size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(full.data()), static_cast<std::streamsize>(full.size()));
  }
  const size_t first_len = 8 + 5;  // header + "first"
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const std::string torn = dir + "/torn";
    fs::remove(torn);
    {
      std::ofstream out(torn, std::ios::binary);
      out.write(reinterpret_cast<const char*>(full.data()), static_cast<std::streamsize>(cut));
    }
    const WalReplay rep = replay_wal(torn);
    if (cut < first_len) {
      EXPECT_TRUE(rep.records.empty()) << "cut " << cut;
      EXPECT_EQ(rep.valid_bytes, 0u);
    } else {
      ASSERT_EQ(rep.records.size(), 1u) << "cut " << cut;
      EXPECT_EQ(rep.records[0], bytes_of("first"));
      EXPECT_EQ(rep.valid_bytes, first_len);
    }
    // A cut exactly on a record boundary leaves a shorter-but-intact log.
    EXPECT_EQ(rep.torn_tail, cut != 0 && cut != first_len && cut != full.size())
        << "cut " << cut;
  }
}

TEST(Wal, CorruptPayloadStopsReplayAtLastIntactRecord) {
  const std::string dir = scratch_dir();
  const std::string path = dir + "/wal";
  {
    WalWriter w(path);
    w.append(bytes_of("keep me"));
    w.append(bytes_of("corrupt me"));
    w.sync();
  }
  corrupt_byte(path, 8 + 7 + 8 + 2);  // a payload byte of the second record
  const WalReplay rep = replay_wal(path);
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0], bytes_of("keep me"));
  EXPECT_TRUE(rep.torn_tail);
  EXPECT_EQ(rep.valid_bytes, 8u + 7u);
}

TEST(Wal, TruncateTornTailThenAppendRecoversCleanly) {
  const std::string dir = scratch_dir();
  const std::string path = dir + "/wal";
  {
    WalWriter w(path);
    w.append(bytes_of("stable"));
    w.sync();
  }
  append_raw(path, std::vector<std::byte>(5, std::byte{0xEE}));  // torn header
  const WalReplay torn = replay_wal(path);
  ASSERT_TRUE(torn.torn_tail);
  {
    // The recovery sequence: truncate to the intact prefix, then append.
    WalWriter w(path);
    w.truncate(torn.valid_bytes);
    w.append(bytes_of("after recovery"));
    w.sync();
  }
  const WalReplay rep = replay_wal(path);
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.records[0], bytes_of("stable"));
  EXPECT_EQ(rep.records[1], bytes_of("after recovery"));
  EXPECT_FALSE(rep.torn_tail);
}

TEST(Wal, ResetEmptiesTheLog) {
  const std::string dir = scratch_dir();
  const std::string path = dir + "/wal";
  WalWriter w(path);
  w.append(bytes_of("gone"));
  w.sync();
  w.reset();
  EXPECT_EQ(w.appended(), 0u);
  EXPECT_TRUE(replay_wal(path).records.empty());
}

// --- BrokerStore ------------------------------------------------------------

struct StoreFixture {
  Schema schema = workload::stock_schema();
  core::WireConfig wire{model::SubIdCodec(24, 1u << 20, schema.attr_count()), 8};

  std::unique_ptr<BrokerStore> make(const std::string& dir) {
    return std::make_unique<BrokerStore>(dir, schema, core::GeneralizePolicy::kSafe, wire,
                                         /*owner=*/0, 1u << 20);
  }

  core::HomeTable table(const std::vector<model::OwnedSubscription>& subs) {
    core::HomeTable home(0, 1u << 20);
    for (const auto& os : subs) home.add(os);
    return home;
  }

  model::OwnedSubscription sub(uint32_t local, const std::string& sym) {
    auto s = SubscriptionBuilder(schema).where("symbol", Op::kEq, sym).build();
    return {SubId{0, local, s.mask()}, std::move(s)};
  }
};

TEST(BrokerStore, EpochBumpsOnEveryOpen) {
  StoreFixture fx;
  const std::string dir = scratch_dir();
  for (uint64_t expect = 1; expect <= 4; ++expect) {
    auto store = fx.make(dir);
    const DurableState st = store->open();
    EXPECT_EQ(st.epoch, expect);
    EXPECT_EQ(store->epoch(), expect);
  }
}

TEST(BrokerStore, SubscriptionsSurviveReopen) {
  StoreFixture fx;
  const std::string dir = scratch_dir();
  {
    auto store = fx.make(dir);
    store->open();
    store->log_subscribe(fx.sub(0, "AAA"));
    store->log_subscribe(fx.sub(1, "BBB"));
    store->log_unsubscribe(SubId{0, 0, fx.sub(0, "AAA").id.attrs});
    store->commit();
  }
  auto store = fx.make(dir);
  const DurableState st = store->open();
  ASSERT_EQ(st.home.size(), 1u);
  EXPECT_EQ(st.home.entries().front().id.local, 1u);
  EXPECT_EQ(st.home.next_local(), 2u);
  EXPECT_FALSE(st.wal_torn);
  EXPECT_FALSE(st.snapshot_fell_back);
  ASSERT_TRUE(st.held.has_value());
  // The recovered held summary routes exactly like a fresh rebuild.
  const auto rebuilt = core::BrokerSummary::rebuild(fx.schema, core::GeneralizePolicy::kSafe,
                                                    st.home.entries());
  EXPECT_EQ(core::encode_summary(*st.held, fx.wire), core::encode_summary(rebuilt, fx.wire));
}

TEST(BrokerStore, SnapshotCompactsAndTailReplays) {
  StoreFixture fx;
  const std::string dir = scratch_dir();
  {
    auto store = fx.make(dir);
    store->open();
    std::vector<model::OwnedSubscription> subs{fx.sub(0, "AAA"), fx.sub(1, "BBB")};
    for (const auto& os : subs) store->log_subscribe(os);
    store->commit();
    EXPECT_EQ(store->wal_records(), 2u);

    BrokerStore::SnapshotInput in;
    const auto home = fx.table(subs);
    in.home = &home;
    in.merged_brokers = {0, 2};
    in.merged_epochs = {store->epoch(), 7};
    const auto held = core::BrokerSummary::rebuild(fx.schema, core::GeneralizePolicy::kSafe,
                                                   subs);
    in.held = &held;
    store->write_snapshot(in);
    EXPECT_EQ(store->wal_records(), 0u);  // log truncated

    store->log_subscribe(fx.sub(2, "CCC"));  // tail past the snapshot
    store->commit();
  }
  auto store = fx.make(dir);
  const DurableState st = store->open();
  ASSERT_EQ(st.home.size(), 3u);
  EXPECT_EQ(st.home.next_local(), 3u);
  EXPECT_TRUE(st.own_image_verified);
  EXPECT_EQ(st.merged_brokers, (std::vector<overlay::BrokerId>{0, 2}));
  ASSERT_EQ(st.merged_epochs.size(), 2u);
  EXPECT_EQ(st.merged_epochs[1], 7u);
}

TEST(BrokerStore, ReplayIsIdempotentWhenLogOutlivesSnapshot) {
  // Simulates a crash between the snapshot rename and the WAL truncate:
  // the snapshot already contains the records still sitting in the log.
  StoreFixture fx;
  const std::string dir = scratch_dir();
  std::vector<std::byte> wal_image;
  {
    auto store = fx.make(dir);
    store->open();
    std::vector<model::OwnedSubscription> subs{fx.sub(0, "AAA"), fx.sub(1, "BBB")};
    for (const auto& os : subs) store->log_subscribe(os);
    store->commit();
    std::ifstream in(dir + "/wal", std::ios::binary | std::ios::ate);
    wal_image.resize(static_cast<size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(wal_image.data()),
            static_cast<std::streamsize>(wal_image.size()));

    BrokerStore::SnapshotInput ss;
    const auto home = fx.table(subs);
    ss.home = &home;
    ss.merged_brokers = {0};
    ss.merged_epochs = {store->epoch()};
    const auto held = core::BrokerSummary::rebuild(fx.schema, core::GeneralizePolicy::kSafe,
                                                   subs);
    ss.held = &held;
    store->write_snapshot(ss);
  }
  append_raw(dir + "/wal", wal_image);  // "truncate never happened"
  auto store = fx.make(dir);
  const DurableState st = store->open();
  EXPECT_EQ(st.home.size(), 2u);  // not 4: duplicates skipped
  EXPECT_EQ(st.home.next_local(), 2u);
}

TEST(BrokerStore, CorruptSnapshotFallsBackToLogReplay) {
  StoreFixture fx;
  const std::string dir = scratch_dir();
  {
    auto store = fx.make(dir);
    store->open();
    std::vector<model::OwnedSubscription> subs{fx.sub(0, "AAA")};
    store->log_subscribe(subs[0]);
    store->commit();
    BrokerStore::SnapshotInput in;
    const auto home = fx.table(subs);
    in.home = &home;
    in.merged_brokers = {0};
    in.merged_epochs = {store->epoch()};
    const auto held = core::BrokerSummary::rebuild(fx.schema, core::GeneralizePolicy::kSafe,
                                                   subs);
    in.held = &held;
    store->write_snapshot(in);
    store->log_subscribe(fx.sub(1, "BBB"));  // survives in the log tail
    store->commit();
  }
  corrupt_byte(dir + "/snapshot", fs::file_size(dir + "/snapshot") / 2);
  auto store = fx.make(dir);
  const DurableState st = store->open();  // must not throw
  EXPECT_TRUE(st.snapshot_fell_back);
  EXPECT_FALSE(st.own_image_verified);
  // Degraded but consistent: only the post-snapshot tail is in the log.
  ASSERT_EQ(st.home.size(), 1u);
  EXPECT_EQ(st.home.entries().front().id.local, 1u);
}

TEST(BrokerStore, TruncatedSnapshotAndBadMagicFallBack) {
  StoreFixture fx;
  for (const bool truncate : {true, false}) {
    const std::string dir = scratch_dir() + (truncate ? "/t" : "/m");
    fs::create_directories(dir);
    {
      auto store = fx.make(dir);
      store->open();
      std::vector<model::OwnedSubscription> subs{fx.sub(0, "AAA")};
      store->log_subscribe(subs[0]);
      store->commit();
      BrokerStore::SnapshotInput in;
      const auto home = fx.table(subs);
      in.home = &home;
      in.merged_brokers = {0};
      in.merged_epochs = {store->epoch()};
      const auto held = core::BrokerSummary::rebuild(fx.schema, core::GeneralizePolicy::kSafe,
                                                     subs);
      in.held = &held;
      store->write_snapshot(in);
    }
    if (truncate) {
      fs::resize_file(dir + "/snapshot", fs::file_size(dir + "/snapshot") - 3);
    } else {
      corrupt_byte(dir + "/snapshot", 0);  // magic byte
    }
    auto store = fx.make(dir);
    const DurableState st = store->open();
    EXPECT_TRUE(st.snapshot_fell_back);
    EXPECT_EQ(st.home.size(), 0u);  // log was truncated at compaction
  }
}

TEST(BrokerStore, TornWalTailIsDiscardedAndLogHealed) {
  StoreFixture fx;
  const std::string dir = scratch_dir();
  {
    auto store = fx.make(dir);
    store->open();
    store->log_subscribe(fx.sub(0, "AAA"));
    store->commit();
  }
  append_raw(dir + "/wal", std::vector<std::byte>(11, std::byte{0x99}));
  {
    auto store = fx.make(dir);
    const DurableState st = store->open();
    EXPECT_TRUE(st.wal_torn);
    ASSERT_EQ(st.home.size(), 1u);
    store->log_subscribe(fx.sub(1, "BBB"));  // appends after the healed tail
    store->commit();
  }
  auto store = fx.make(dir);
  const DurableState st = store->open();
  EXPECT_FALSE(st.wal_torn);
  EXPECT_EQ(st.home.size(), 2u);
}

TEST(BrokerStore, CorruptEpochFileIsDistrustedNotFatal) {
  StoreFixture fx;
  const std::string dir = scratch_dir();
  {
    auto store = fx.make(dir);
    store->open();
  }
  corrupt_byte(dir + "/epoch", 3);
  auto store = fx.make(dir);
  const DurableState st = store->open();
  EXPECT_GE(st.epoch, 1u);  // restarts from scratch rather than crashing
}

}  // namespace
}  // namespace subsum::store
