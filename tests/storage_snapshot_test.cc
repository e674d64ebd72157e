// mmap snapshot suite: write/open round-trip, zero-copy query
// differential against the RAM-resident engines, corruption and
// truncation at every layer of the format (header, section table,
// section payloads), lazy checksum verification, and the MutableStore
// merge-emitted snapshot generation.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ranking.h"
#include "core/types.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "mutate/mutable_store.h"
#include "storage/compressed_arena.h"
#include "storage/compressed_augmented.h"
#include "storage/snapshot.h"
#include "storage/snapshot_manager.h"
#include "test_util.h"

namespace topk {
namespace {

using storage::CompressedPostingArena;
using storage::OpenStoreSnapshot;
using storage::SnapshotHeader;
using storage::SnapshotManager;
using storage::StoreSnapshot;
using storage::VerifySnapshotChecksums;
using storage::WriteStoreSnapshot;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// Writes a snapshot of `store` (and its plain index, compressed).
void WriteSnapshotOf(const RankingStore& store, const std::string& path) {
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const auto arena =
      CompressedPostingArena<RankingId>::FromArena(plain.arena());
  ASSERT_TRUE(WriteStoreSnapshot(store, arena, path).ok());
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) {  // fwrite(nullptr, ...) is UB even for 0 bytes
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
              bytes.size());
  }
  std::fclose(file);
}

TEST(StoreSnapshot, RoundTripsStoreAndIndex) {
  const RankingStore store = testutil::MakeClusteredStore(10, 400, 3);
  const std::string path = TempPath("roundtrip.snap");
  WriteSnapshotOf(store, path);

  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value();
  ASSERT_TRUE(snapshot.store().external());
  ASSERT_EQ(snapshot.store().size(), store.size());
  ASSERT_EQ(snapshot.store().k(), store.k());
  ASSERT_EQ(snapshot.store().max_item(), store.max_item());
  for (RankingId id = 0; id < store.size(); ++id) {
    const auto expected = store.view(id).items();
    const auto actual = snapshot.store().view(id).items();
    ASSERT_EQ(0, std::memcmp(actual.data(), expected.data(),
                             expected.size_bytes()))
        << "row " << id;
  }
  EXPECT_TRUE(VerifySnapshotChecksums(path).ok());
  std::remove(path.c_str());
}

TEST(StoreSnapshot, MmapQueriesMatchRamEngines) {
  const RankingStore store = testutil::MakeClusteredStore(10, 500, 5);
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const std::string path = TempPath("differential.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value();

  const RawDistance dmax = MaxDistance(store.k());
  for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                              DropMode::kPositionRefined}) {
    FilterValidateEngine reference(&store, &plain, {drop});
    storage::CompressedFilterValidateEngine tier(&snapshot.store(),
                                                 &snapshot.index(), {drop});
    for (const auto& query : testutil::MakeQueries(store, 8, 17)) {
      for (const RawDistance theta : {dmax / 4, dmax / 2, dmax}) {
        Statistics ref_stats;
        Statistics tier_stats;
        const auto expected = reference.Query(query, theta, &ref_stats);
        const auto actual = tier.Query(query, theta, &tier_stats);
        ASSERT_EQ(actual, expected)
            << "drop=" << static_cast<int>(drop) << " theta=" << theta;
        ASSERT_EQ(tier_stats, ref_stats);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, OpenIsZeroCopy) {
  const RankingStore store = testutil::MakeClusteredStore(10, 2000, 9);
  const std::string path = TempPath("lazy.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Zero-copy contract, part 1 (deterministic): the adopted store and
  // index hold NO heap copies of the mapped sections — every byte is
  // served out of the mapping.
  EXPECT_GT(opened.value().mapped_bytes(), size_t{0});
  EXPECT_EQ(opened.value().store().MemoryUsage(), size_t{0});
  EXPECT_EQ(opened.value().index().MemoryUsage(), size_t{0});
  // Part 2 (residency): mincore counts page-cache residency, and a
  // freshly written file is fully cached, so evict it first (the pages
  // are clean after fdatasync); after eviction the mapping must not be
  // fully resident — open touched only metadata. Skipped silently where
  // eviction is unsupported; bench_storage reports the same evidence on
  // the real datasets.
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  ::fdatasync(fd);
  const bool evicted =
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  if (evicted) {
    EXPECT_LT(opened.value().ResidentBytes(), opened.value().mapped_bytes())
        << "open faulted in the entire snapshot";
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, RejectsMissingAndEmptyAndTruncatedFiles) {
  EXPECT_FALSE(OpenStoreSnapshot(TempPath("does-not-exist.snap")).ok());

  const std::string path = TempPath("degenerate.snap");
  WriteBytes(path, {});  // zero-length file
  EXPECT_FALSE(OpenStoreSnapshot(path).ok());
  EXPECT_FALSE(VerifySnapshotChecksums(path).ok());

  const RankingStore store = testutil::MakeClusteredStore(8, 120, 13);
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);
  // The last section's payload end (NOT the file end: the file is
  // padded out to a page boundary, and shaving padding alone is not
  // corruption).
  storage::SnapshotSection table[storage::kSnapshotSectionCount];
  std::memcpy(table, good.data() + sizeof(SnapshotHeader), sizeof(table));
  const auto last_payload_end = static_cast<size_t>(
      table[storage::kSnapshotSectionCount - 1].offset +
      table[storage::kSnapshotSectionCount - 1].size);
  ASSERT_GT(last_payload_end, size_t{0});
  // Truncation at every structural boundary: mid-header, mid-table,
  // mid-payload, one payload byte short.
  for (const size_t keep :
       {sizeof(SnapshotHeader) / 2, sizeof(SnapshotHeader) + 16,
        good.size() / 2, last_payload_end - 1}) {
    WriteBytes(path, std::vector<uint8_t>(good.begin(),
                                          good.begin() +
                                              static_cast<ptrdiff_t>(keep)));
    EXPECT_FALSE(OpenStoreSnapshot(path).ok()) << "keep=" << keep;
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok()) << "keep=" << keep;
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, RejectsHeaderAndTableCorruption) {
  const RankingStore store = testutil::MakeClusteredStore(8, 120, 15);
  const std::string path = TempPath("corrupt-meta.snap");
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);

  // Bad magic, bad version, corrupted section table (directory checksum
  // catches the flip), corrupted counts.
  const size_t offsets[] = {0, 8, sizeof(SnapshotHeader) + 8, 16};
  for (const size_t offset : offsets) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= 0xff;
    WriteBytes(path, bad);
    EXPECT_FALSE(OpenStoreSnapshot(path).ok()) << "offset=" << offset;
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, PayloadCorruptionIsCaughtByVerifyNotOpen) {
  const RankingStore store = testutil::MakeClusteredStore(8, 200, 19);
  const std::string path = TempPath("corrupt-payload.snap");
  WriteSnapshotOf(store, path);
  std::vector<uint8_t> bad = ReadFile(path);
  // Flip one byte inside the last section's payload (the compressed
  // byte stream — NOT the trailing page padding, which no checksum
  // covers): open stays lazy and cheap, the full verify must catch it.
  storage::SnapshotSection table[storage::kSnapshotSectionCount];
  std::memcpy(table, bad.data() + sizeof(SnapshotHeader), sizeof(table));
  const auto& last = table[storage::kSnapshotSectionCount - 1];
  ASSERT_GT(last.size, uint64_t{0});
  bad[static_cast<size_t>(last.offset)] ^= 0xff;
  WriteBytes(path, bad);
  auto opened = OpenStoreSnapshot(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  std::remove(path.c_str());
}

TEST(StoreSnapshot, MergeEmitsLoadableSnapshot) {
  const RankingStore initial = testutil::MakeClusteredStore(10, 300, 23);
  const std::string dir = TempPath("merge-emitted");
  std::filesystem::remove_all(dir);
  MutableStoreOptions options;
  options.snapshot_dir = dir;
  MutableStore live(initial, options);

  // Mutate, then merge: the snapshot must freeze the rebuilt segment.
  const RankingStore extra = testutil::MakeClusteredStore(10, 50, 29);
  for (RankingId id = 0; id < extra.size(); ++id) {
    live.Insert(extra.view(id));
  }
  ASSERT_TRUE(live.Delete(3));
  ASSERT_TRUE(live.MergeNow());
  ASSERT_TRUE(live.last_snapshot_status().ok())
      << live.last_snapshot_status().ToString();

  auto opened = SnapshotManager(dir).OpenNewestValid();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value().snapshot;
  EXPECT_EQ(snapshot.store().size(), live.live_size());
  EXPECT_TRUE(VerifySnapshotChecksums(opened.value().path).ok());

  // The frozen rows answer queries identically to a plain engine over
  // the same rows.
  const RankingStore& frozen = snapshot.store();
  RankingStore rebuilt(frozen.k());
  for (RankingId id = 0; id < frozen.size(); ++id) {
    rebuilt.AddUnchecked(frozen.view(id).items());
  }
  const PlainInvertedIndex plain = PlainInvertedIndex::Build(rebuilt);
  FilterValidateEngine reference(&rebuilt, &plain, {});
  storage::CompressedFilterValidateEngine tier(&frozen, &snapshot.index(), {});
  const RawDistance theta = MaxDistance(frozen.k()) / 3;
  for (const auto& query : testutil::MakeQueries(rebuilt, 6, 31)) {
    EXPECT_EQ(tier.Query(query, theta), reference.Query(query, theta));
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreSnapshot, RejectsForeignByteOrderAndLayout) {
  const RankingStore store = testutil::MakeClusteredStore(8, 150, 37);
  const std::string path = TempPath("foreign-abi.snap");
  WriteSnapshotOf(store, path);
  const std::vector<uint8_t> good = ReadFile(path);
  // The byte_order and layout tags sit at header offsets 16 and 20; the
  // directory checksum covers only the section table, so tampering with
  // either tag needs no checksum re-fix to reach the guard.
  {
    // A byte-swapped writer: the reader sees the tag permuted.
    std::vector<uint8_t> bad = good;
    std::reverse(bad.begin() + 16, bad.begin() + 20);
    WriteBytes(path, bad);
    auto opened = OpenStoreSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().ToString().find("byte order"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  }
  {
    // A writer with different struct padding / word sizes: layout tag
    // disagrees with this build's fingerprint.
    std::vector<uint8_t> bad = good;
    bad[20] ^= 0xff;
    WriteBytes(path, bad);
    auto opened = OpenStoreSnapshot(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().ToString().find("layout"), std::string::npos)
        << opened.status().ToString();
    EXPECT_FALSE(VerifySnapshotChecksums(path).ok());
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, AugmentedIndexServesIdenticallyFromMmap) {
  const RankingStore store = testutil::MakeClusteredStore(10, 600, 41);
  const std::string path = TempPath("augmented.snap");
  WriteSnapshotOf(store, path);
  auto opened = OpenStoreSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const StoreSnapshot& snapshot = opened.value();
  // The augmented arena is adopted zero-copy like everything else.
  EXPECT_EQ(snapshot.augmented_index().MemoryUsage(), size_t{0});
  EXPECT_GT(snapshot.augmented_index().num_entries(), size_t{0});

  const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
  const RawDistance dmax = MaxDistance(store.k());
  for (const DropMode drop : {DropMode::kNone, DropMode::kConservative,
                              DropMode::kPositionRefined}) {
    FilterValidateEngine reference(&store, &plain, {drop});
    storage::CompressedAugmentedEngine tier(
        &snapshot.store(), &snapshot.augmented_index(), {drop, true});
    for (const auto& query : testutil::MakeQueries(store, 8, 43)) {
      for (const RawDistance theta : {dmax / 8, dmax / 2, dmax}) {
        ASSERT_EQ(tier.Query(query, theta), reference.Query(query, theta))
            << "drop=" << static_cast<int>(drop) << " theta=" << theta;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSnapshot, WriteRejectsEmptyStore) {
  const RankingStore store(5);
  const CompressedPostingArena<RankingId> arena;
  EXPECT_FALSE(
      WriteStoreSnapshot(store, arena, TempPath("empty.snap")).ok());
}

}  // namespace
}  // namespace topk
