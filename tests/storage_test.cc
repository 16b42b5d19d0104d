// Durability tests: segment/WAL/manifest formats, Database recovery,
// the kill-and-reopen crash differential, and snapshot pinning across
// a durable Compact().
//
// The crash differential forks a child that commits scripted random
// batches against a data directory (acking each durable epoch through
// an fsynced side file), SIGKILLs it at a random point, reopens the
// directory, and compares the recovered database byte-for-byte against
// an in-memory oracle that replays the same script up to the recovered
// epoch. Seed count follows SEQDL_DIFFTEST_ITERS like the other
// differentials.

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/server/service.h"
#include "src/storage/format.h"
#include "src/storage/manifest.h"
#include "src/storage/storage.h"
#include "src/storage/wal.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

uint64_t Iterations() {
  const char* env = std::getenv("SEQDL_DIFFTEST_ITERS");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 200;
}

// --- Instance blocks and segment files --------------------------------------

TEST(StorageFormatTest, InstanceBlockRoundTrip) {
  Universe u;
  // Exercise every shape the encoder handles: multi-atom paths, the
  // empty path, packed values, arity-0 relations, arity-2 tuples.
  Instance in = MustInstance(
      u,
      "R(a ++ b ++ c). R(eps). S(<a ++ b> ++ c). A. E(a, b). E(b, <eps>).");
  std::string block;
  storage::EncodeInstanceBlock(u, in, &block);

  storage::RecordReader r(block, storage::kSdSegmentCorrupt);
  Result<Instance> out =
      storage::DecodeInstanceBlock(u, r, storage::kSdSegmentCorrupt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out->ToString(u), in.ToString(u));
  EXPECT_EQ(out->NumFacts(), in.NumFacts());
}

TEST(StorageFormatTest, InstanceBlockDecodesIntoFreshUniverse) {
  Universe u;
  Instance in = MustInstance(u, "R(a ++ b). S(<a> ++ c). A.");
  std::string block;
  storage::EncodeInstanceBlock(u, in, &block);

  // A fresh universe re-interns every symbol from the block's arena;
  // the rendered text (names, not ids) must survive the hop.
  Universe u2;
  storage::RecordReader r(block, storage::kSdSegmentCorrupt);
  Result<Instance> out =
      storage::DecodeInstanceBlock(u2, r, storage::kSdSegmentCorrupt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->ToString(u2), in.ToString(u));
}

TEST(StorageFormatTest, EmptyInstanceRoundTrips) {
  Universe u;
  Instance in;
  std::string block;
  storage::EncodeInstanceBlock(u, in, &block);
  storage::RecordReader r(block, storage::kSdSegmentCorrupt);
  Result<Instance> out =
      storage::DecodeInstanceBlock(u, r, storage::kSdSegmentCorrupt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->Empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(StorageFormatTest, SegmentFileRoundTripPreservesKind) {
  Universe u;
  ScratchDir dir("seg");
  Instance in = MustInstance(u, "E(a, b). E(b, c). R(a ++ b ++ a).");
  const std::string path = dir.path + "/seg-000001.sdlseg";

  Result<uint64_t> bytes = storage::WriteSegmentFile(
      path, u, in, SegmentKind::kTombstones);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Result<uint64_t> on_disk = storage::FileSize(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*bytes, *on_disk);

  Result<storage::LoadedSegment> seg = storage::ReadSegmentFile(path, u);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_EQ(seg->kind, SegmentKind::kTombstones);
  EXPECT_EQ(seg->facts.ToString(u), in.ToString(u));
}

TEST(StorageFormatTest, SegmentFileRejectsBitFlip) {
  Universe u;
  ScratchDir dir("segcorrupt");
  Instance in = MustInstance(u, "E(a, b). E(b, c).");
  const std::string path = dir.path + "/seg-000001.sdlseg";
  ASSERT_TRUE(
      storage::WriteSegmentFile(path, u, in, SegmentKind::kFacts).ok());

  Result<std::string> bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x40;
  ASSERT_TRUE(storage::WriteFileDurable(path, corrupted).ok());

  Result<storage::LoadedSegment> seg = storage::ReadSegmentFile(path, u);
  EXPECT_FALSE(seg.ok());
  EXPECT_NE(seg.status().message().find("SD404"), std::string::npos)
      << seg.status().ToString();
}

TEST(StorageFormatTest, SegmentFileRejectsTruncation) {
  Universe u;
  ScratchDir dir("segtrunc");
  Instance in = MustInstance(u, "E(a, b).");
  const std::string path = dir.path + "/seg-000001.sdlseg";
  ASSERT_TRUE(
      storage::WriteSegmentFile(path, u, in, SegmentKind::kFacts).ok());
  Result<std::string> bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(storage::WriteFileDurable(
                  path, std::string_view(*bytes).substr(0, bytes->size() - 3))
                  .ok());
  Result<storage::LoadedSegment> seg = storage::ReadSegmentFile(path, u);
  EXPECT_FALSE(seg.ok());
  EXPECT_NE(seg.status().message().find("SD404"), std::string::npos);
}

// --- WAL --------------------------------------------------------------------

TEST(StorageWalTest, AppendAndReplayRoundTrip) {
  Universe u;
  ScratchDir dir("wal");
  const std::string path = dir.path + "/wal-000001.log";
  Instance first = MustInstance(u, "E(a, b). E(b, c).");
  Instance second = MustInstance(u, "E(a, b).");
  {
    Result<storage::WalWriter> w = storage::WalWriter::Open(
        path, storage::SyncMode::kAlways, /*sync_interval_ms=*/100);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(
        w->Append(storage::WalRecordType::kAppend, u, first).ok());
    ASSERT_TRUE(
        w->Append(storage::WalRecordType::kRetract, u, second).ok());
    EXPECT_GT(w->bytes(), 0u);
  }
  std::vector<storage::WalRecordType> types;
  std::vector<std::string> payloads;
  Result<storage::WalReplay> replay = storage::ReplayWal(
      path, u,
      [&](storage::WalRecordType type, Instance batch) {
        types.push_back(type);
        payloads.push_back(batch.ToString(u));
        return Status::OK();
      });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, 2u);
  EXPECT_FALSE(replay->truncated_tail);
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], storage::WalRecordType::kAppend);
  EXPECT_EQ(types[1], storage::WalRecordType::kRetract);
  EXPECT_EQ(payloads[0], first.ToString(u));
  EXPECT_EQ(payloads[1], second.ToString(u));
}

TEST(StorageWalTest, TornTailIsTruncatedAndPrefixSurvives) {
  Universe u;
  ScratchDir dir("waltear");
  const std::string path = dir.path + "/wal-000001.log";
  Instance batch = MustInstance(u, "E(a, b).");
  {
    Result<storage::WalWriter> w = storage::WalWriter::Open(
        path, storage::SyncMode::kNever, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append(storage::WalRecordType::kAppend, u, batch).ok());
    ASSERT_TRUE(w->Append(storage::WalRecordType::kAppend, u, batch).ok());
  }
  Result<uint64_t> clean_size = storage::FileSize(path);
  ASSERT_TRUE(clean_size.ok());

  // Simulate a torn write: a frame header that promises more payload
  // than the file holds.
  {
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    std::string tear;
    PutU32(&tear, 1024);  // payload length never written
    PutU32(&tear, 0xdeadbeef);
    tear += "torn";
    ASSERT_EQ(::write(fd, tear.data(), tear.size()),
              static_cast<ssize_t>(tear.size()));
    ::close(fd);
  }

  uint64_t records = 0;
  Result<storage::WalReplay> replay = storage::ReplayWal(
      path, u,
      [&](storage::WalRecordType, Instance) {
        ++records;
        return Status::OK();
      });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(records, 2u);
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_EQ(replay->valid_bytes, *clean_size);

  // The tail is physically gone: a second replay is clean.
  Result<uint64_t> truncated_size = storage::FileSize(path);
  ASSERT_TRUE(truncated_size.ok());
  EXPECT_EQ(*truncated_size, *clean_size);
  Result<storage::WalReplay> again = storage::ReplayWal(
      path, u, [](storage::WalRecordType, Instance) { return Status::OK(); });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records, 2u);
  EXPECT_FALSE(again->truncated_tail);
}

TEST(StorageWalTest, CrcValidGarbageIsRealCorruption) {
  Universe u;
  ScratchDir dir("walbad");
  const std::string path = dir.path + "/wal-000001.log";
  // A frame whose CRC checks out but whose payload is not a record:
  // that is corruption (SD402), not a torn tail to shrug off.
  std::string payload = "\x07not-a-record";
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, storage::Crc32(payload.data(), payload.size()));
  frame += payload;
  ASSERT_TRUE(storage::WriteFileDurable(path, frame).ok());

  Result<storage::WalReplay> replay = storage::ReplayWal(
      path, u, [](storage::WalRecordType, Instance) { return Status::OK(); });
  EXPECT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("SD402"), std::string::npos)
      << replay.status().ToString();
}

TEST(StorageWalTest, MissingFileIsEmptyReplay) {
  Universe u;
  ScratchDir dir("walnone");
  Result<storage::WalReplay> replay = storage::ReplayWal(
      dir.path + "/wal-000042.log", u,
      [](storage::WalRecordType, Instance) { return Status::OK(); });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records, 0u);
  EXPECT_FALSE(replay->truncated_tail);
}

// --- Manifest ---------------------------------------------------------------

TEST(StorageManifestTest, WritePublishReadRoundTrip) {
  ScratchDir dir("man");
  storage::Manifest m;
  m.generation = 7;
  m.epoch = 42;
  m.shrink_floor = 3;
  m.next_file_id = 9;
  m.wal_file = "wal-000007.log";
  m.segments.push_back(
      {"seg-000001.sdlseg", SegmentKind::kFacts, 0, 100, 4096});
  m.segments.push_back(
      {"seg-000002.sdlseg", SegmentKind::kTombstones, 17, 5, 512});

  ASSERT_TRUE(storage::WriteManifest(dir.path, m).ok());
  ASSERT_TRUE(storage::PublishCurrent(dir.path, m.generation).ok());

  Result<storage::Manifest> got = storage::ReadCurrent(dir.path);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->generation, 7u);
  EXPECT_EQ(got->epoch, 42u);
  EXPECT_EQ(got->shrink_floor, 3u);
  EXPECT_EQ(got->next_file_id, 9u);
  EXPECT_EQ(got->wal_file, "wal-000007.log");
  ASSERT_EQ(got->segments.size(), 2u);
  EXPECT_EQ(got->segments[0].file, "seg-000001.sdlseg");
  EXPECT_EQ(got->segments[0].kind, SegmentKind::kFacts);
  EXPECT_EQ(got->segments[0].facts, 100u);
  EXPECT_EQ(got->segments[1].kind, SegmentKind::kTombstones);
  EXPECT_EQ(got->segments[1].stamp, 17u);
  EXPECT_EQ(got->segments[1].bytes, 512u);
}

TEST(StorageManifestTest, FreshDirectoryIsNotFound) {
  ScratchDir dir("manfresh");
  Result<storage::Manifest> got = storage::ReadCurrent(dir.path);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(StorageManifestTest, CorruptManifestRejected) {
  ScratchDir dir("manbad");
  storage::Manifest m;
  m.generation = 1;
  m.wal_file = "wal-000001.log";
  ASSERT_TRUE(storage::WriteManifest(dir.path, m).ok());
  const std::string path = dir.path + "/" + storage::ManifestFileName(1);
  Result<std::string> bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x01;
  ASSERT_TRUE(storage::WriteFileDurable(path, corrupted).ok());
  Result<storage::Manifest> got = storage::ReadManifest(path);
  EXPECT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("SD403"), std::string::npos)
      << got.status().ToString();
}

// --- Database-level recovery ------------------------------------------------

Database::OpenOptions DurableOpts(const std::string& dir) {
  Database::OpenOptions opts;
  opts.data_dir = dir;
  opts.sync_mode = storage::SyncMode::kAlways;
  return opts;
}

TEST(StorageDatabaseTest, CloseAndReopenServesSameFacts) {
  ScratchDir dir("reopen");
  std::string rendered;
  uint64_t epoch = 0;
  size_t facts = 0;
  {
    Universe u;
    Result<Database> db = Database::Open(
        u, MustInstance(u, "E(a, b). E(b, c). R(a ++ b)."), DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(MustInstance(u, "E(c, d).")).ok());
    ASSERT_TRUE(db->Retract(MustInstance(u, "E(b, c).")).ok());
    rendered = db->edb().ToString(u);
    epoch = db->epoch();
    facts = db->NumFacts();
    db->Close();
  }
  EXPECT_TRUE(Database::DataDirInitialized(dir.path));
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->edb().ToString(u2), rendered);
  EXPECT_EQ(db->epoch(), epoch);
  EXPECT_EQ(db->NumFacts(), facts);
}

TEST(StorageDatabaseTest, WalTailReplaysWhenNeverClosed) {
  ScratchDir dir("waltail");
  std::string rendered;
  uint64_t epoch = 0;
  {
    Universe u;
    Result<Database> db = Database::Open(
        u, MustInstance(u, "E(a, b)."), DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c). S(<a ++ b>).")).ok());
    ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, b).")).ok());
    rendered = db->edb().ToString(u);
    epoch = db->epoch();
    // No Close(): the commits exist only as WAL records past the
    // initial checkpoint. Recovery must replay them.
  }
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->edb().ToString(u2), rendered);
  EXPECT_EQ(db->epoch(), epoch);
  EXPECT_EQ(db->NumTombstones(), 1u);
}

TEST(StorageDatabaseTest, DurableCompactSurvivesReopen) {
  ScratchDir dir("compact");
  std::string rendered;
  {
    Universe u;
    Result<Database> db = Database::Open(
        u, MustInstance(u, "E(a, b). E(b, c)."), DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(MustInstance(u, "E(c, d).")).ok());
    ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, b).")).ok());
    Result<bool> folded = db->Compact();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_TRUE(*folded);
    EXPECT_EQ(db->NumSegments(), 1u);
    EXPECT_EQ(db->NumTombstones(), 0u);
    rendered = db->edb().ToString(u);
    db->Close();
  }
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->NumTombstones(), 0u);
  EXPECT_EQ(db->edb().ToString(u2), rendered);
}

// Compact() leaves the disk holding the stack even with nothing to fold:
// a one-segment stack the WAL holds records for seals, and once sealed a
// second Compact() writes nothing.
TEST(StorageDatabaseTest, CompactSealsAStackWithNothingToFold) {
  ScratchDir dir("compactone");
  Database::OpenOptions opts = DurableOpts(dir.path);
  opts.auto_compact_segments = 1;  // every commit folds to one segment
  Universe u;
  Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c).")).ok());
  ASSERT_EQ(db->NumSegments(), 1u);
  const uint64_t generation = db->storage_info().manifest_generation;
  ASSERT_GT(db->storage_info().wal_bytes, 0u);

  Result<bool> folded = db->Compact();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_FALSE(*folded);
  storage::StorageInfo info = db->storage_info();
  EXPECT_EQ(info.manifest_generation, generation + 1);
  EXPECT_EQ(info.wal_bytes, 0u);
  EXPECT_EQ(info.sealed_segments, 1u);

  folded = db->Compact();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(db->storage_info().manifest_generation, generation + 1);
}

/// The data directory's file names, sorted.
std::vector<std::string> DataFiles(const std::string& dir) {
  Result<std::vector<std::string>> names = storage::ListDir(dir);
  EXPECT_TRUE(names.ok()) << names.status().ToString();
  std::vector<std::string> out = names.ok() ? *names : std::vector<std::string>{};
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> segs;
  for (const std::string& name : DataFiles(dir)) {
    if (name.rfind("seg-", 0) == 0) segs.push_back(name);
  }
  return segs;
}

/// `n` seed facts E(b0, c) .. E(b<n-1>, c).
std::string SeedFacts(int n) {
  std::string seed;
  for (int i = 0; i < n; ++i) seed += "E(" + Numbered("b", i) + ", c). ";
  return seed;
}

/// The WAL records of the data directory's (single) log.
uint64_t WalRecords(const std::string& dir) {
  Universe u;
  uint64_t records = 0;
  for (const std::string& name : DataFiles(dir)) {
    if (name.rfind("wal-", 0) != 0) continue;
    Result<storage::WalReplay> replay = storage::ReplayWal(
        dir + "/" + name, u,
        [](storage::WalRecordType, Instance) { return Status::OK(); });
    EXPECT_TRUE(replay.ok()) << replay.status().ToString();
    if (replay.ok()) records += replay->records;
  }
  return records;
}

// An automatic fold is a read-amplification policy, not a durability
// step: every commit it folds is already in the WAL, so it writes no
// file. Recovery replays the log and folds as it goes; Close() seals.
TEST(StorageDatabaseTest, AutomaticFoldsWriteNoFiles) {
  ScratchDir dir("nofiles");
  Database::OpenOptions opts = DurableOpts(dir.path);
  constexpr size_t kLimit = 4;
  opts.auto_compact_segments = kLimit;
  std::string rendered;
  uint64_t epoch = 0;
  {
    Universe u;
    Result<Database> db =
        Database::Open(u, MustInstance(u, SeedFacts(40)), opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const uint64_t generation = db->storage_info().manifest_generation;
    const std::vector<std::string> sealed = SegmentFiles(dir.path);
    for (int i = 0; i < 40; ++i) {
      // Every commit is effective: fresh appends and live retractions.
      std::string fact = "E(" + Numbered(i % 2 == 0 ? "n" : "b", i) + ", c).";
      Result<uint64_t> committed =
          i % 2 == 0 ? db->Append(MustInstance(u, fact))
                     : db->Retract(MustInstance(u, fact));
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      ASSERT_LE(db->NumSegments(), kLimit);
    }
    EXPECT_EQ(db->epoch(), 40u);
    EXPECT_EQ(db->storage_info().manifest_generation, generation);
    EXPECT_EQ(SegmentFiles(dir.path), sealed);
    EXPECT_EQ(WalRecords(dir.path), 40u);
    rendered = db->edb().ToString(u);
    epoch = db->epoch();
    // No Close(): the 40 commits exist only as WAL records.
  }
  Universe u;
  Result<Database> db = Database::Open(u, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->edb().ToString(u), rendered);
  EXPECT_EQ(db->epoch(), epoch);
  // Without folds the replay would stack 41 segments.
  EXPECT_LE(db->NumSegments(), kLimit + 1);
  const uint64_t generation = db->storage_info().manifest_generation;
  db->Close();
  storage::StorageInfo info = db->storage_info();
  EXPECT_EQ(info.manifest_generation, generation + 1);
  EXPECT_EQ(info.sealed_segments, db->NumSegments());
  EXPECT_EQ(info.wal_bytes, 0u);
}

// A checkpoint reuses the file of every segment whose store it sealed
// before. Automatic folds themselves write nothing (above), so here a
// WAL threshold of one byte checkpoints after every commit, the tail
// fold's included.
TEST(StorageDatabaseTest, TailFoldReusesTheBaseFile) {
  ScratchDir dir("tailfold");
  Database::OpenOptions opts = DurableOpts(dir.path);
  opts.auto_compact_segments = 4;
  opts.checkpoint_wal_bytes = 1;
  std::string rendered;
  size_t segments = 0, tombstones = 0;
  std::string base_file;
  {
    Universe u;
    Result<Database> db =
        Database::Open(u, MustInstance(u, SeedFacts(40)), opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::vector<std::string> sealed = SegmentFiles(dir.path);
    ASSERT_EQ(sealed.size(), 1u);
    base_file = sealed[0];
    ASSERT_TRUE(db->Append(MustInstance(u, "E(n1, c).")).ok());
    ASSERT_TRUE(db->Retract(MustInstance(u, "E(b0, c).")).ok());
    ASSERT_TRUE(db->Append(MustInstance(u, "E(n2, c).")).ok());
    ASSERT_TRUE(db->Append(MustInstance(u, "E(n3, c).")).ok());
    // Five segments: the tail folds into [base, tombstones, facts], and
    // the commit's checkpoint keeps the base's file.
    ASSERT_EQ(db->NumSegments(), 3u);
    ASSERT_EQ(db->NumTombstones(), 1u);
    std::vector<std::string> files = DataFiles(dir.path);
    sealed = SegmentFiles(dir.path);
    ASSERT_EQ(sealed.size(), 3u);
    EXPECT_EQ(sealed[0], base_file);
    // No orphans: CURRENT, one manifest, one WAL and the three segments.
    EXPECT_EQ(files.size(), 6u) << ::testing::PrintToString(files);
    ASSERT_TRUE(db->Append(MustInstance(u, "E(n4, c).")).ok());
    rendered = db->edb().ToString(u);
    segments = db->NumSegments();
    tombstones = db->NumTombstones();
    EXPECT_EQ(segments, 4u);
    EXPECT_EQ(DataFiles(dir.path).size(), 7u);
    // No Close(): recovery reads the stack the last checkpoint sealed.
  }
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "reopen after a crash" : "reopen after Close");
    Universe u;
    Result<Database> db = Database::Open(u, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->edb().ToString(u), rendered);
    EXPECT_EQ(db->NumSegments(), segments);
    EXPECT_EQ(db->NumTombstones(), tombstones);
    EXPECT_EQ(SegmentFiles(dir.path).front(), base_file);
    db->Close();
  }
}

TEST(StorageDatabaseTest, SeedingAnInitializedDirFails) {
  ScratchDir dir("conflict");
  {
    Universe u;
    Result<Database> db = Database::Open(
        u, MustInstance(u, "E(a, b)."), DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db->Close();
  }
  Universe u2;
  Result<Database> db = Database::Open(
      u2, MustInstance(u2, "E(x, y)."), DurableOpts(dir.path));
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kIoError);
  EXPECT_NE(db.status().message().find("SD405"), std::string::npos)
      << db.status().ToString();

  // An *empty* seed is the recovery spelling, not a conflict.
  Result<Database> again =
      Database::Open(u2, Instance(), DurableOpts(dir.path));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->NumFacts(), 1u);
}

TEST(StorageDatabaseTest, OpenWithoutSeedRequiresDataDir) {
  Universe u;
  Database::OpenOptions opts;  // data_dir empty
  Result<Database> db = Database::Open(u, opts);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorageDatabaseTest, StorageInfoTracksDiskAndWal) {
  ScratchDir dir("info");
  Universe u;
  Result<Database> db = Database::Open(
      u, MustInstance(u, "E(a, b)."), DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  storage::StorageInfo info = db->storage_info();
  EXPECT_GE(info.manifest_generation, 1u);
  EXPECT_GT(info.on_disk_bytes, 0u);
  EXPECT_EQ(info.wal_bytes, 0u);
  EXPECT_EQ(info.sealed_segments, 1u);

  ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c).")).ok());
  info = db->storage_info();
  EXPECT_GT(info.wal_bytes, 0u);

  // An in-memory database reports zeroed storage counters.
  Universe u2;
  Result<Database> mem = Database::Open(u2, MustInstance(u2, "E(a, b)."));
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->storage_info().manifest_generation, 0u);
  EXPECT_EQ(mem->storage_info().on_disk_bytes, 0u);
}

TEST(StorageDatabaseTest, WalThresholdTriggersCheckpoint) {
  ScratchDir dir("threshold");
  Universe u;
  Database::OpenOptions opts = DurableOpts(dir.path);
  opts.checkpoint_wal_bytes = 1;  // every commit rotates the log
  Result<Database> db = Database::Open(
      u, MustInstance(u, "E(a, b)."), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  uint64_t gen0 = db->storage_info().manifest_generation;
  ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c).")).ok());
  storage::StorageInfo info = db->storage_info();
  EXPECT_GT(info.manifest_generation, gen0);
  EXPECT_EQ(info.wal_bytes, 0u);  // rotated away by the checkpoint
  db->Close();

  Universe u2;
  Result<Database> back = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumFacts(), 2u);
}

// --- Failed WAL writes and syncs -------------------------------------------

/// The data directory's log (a live engine writes exactly one).
std::string WalPath(const std::string& dir) {
  for (const std::string& name : DataFiles(dir)) {
    if (name.rfind("wal-", 0) == 0) return dir + "/" + name;
  }
  ADD_FAILURE() << "no WAL in " << dir;
  return dir + "/wal-missing";
}

/// While alive, caps this process's file size `slack` bytes past the end
/// of `wal` with SIGXFSZ ignored: the next record written past the cap
/// is cut short and its write then fails with EFBIG.
class FileSizeCap {
 public:
  FileSizeCap(const std::string& wal, off_t slack) {
    struct stat st = {};
    ok_ = ::stat(wal.c_str(), &st) == 0 &&
          ::getrlimit(RLIMIT_FSIZE, &old_) == 0;
    if (!ok_) return;
    old_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit cap = old_;
    cap.rlim_cur = static_cast<rlim_t>(st.st_size + slack);
    ok_ = ::setrlimit(RLIMIT_FSIZE, &cap) == 0;
  }
  ~FileSizeCap() {
    if (old_handler_ == SIG_ERR) return;
    ::setrlimit(RLIMIT_FSIZE, &old_);
    ::signal(SIGXFSZ, old_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;
  bool ok() const { return ok_; }

 private:
  struct rlimit old_ = {};
  sighandler_t old_handler_ = SIG_ERR;
  bool ok_ = false;
};

/// While alive, the descriptor this process holds on `wal` is the write
/// end of a pipe: records written after land in the pipe, and fdatasync
/// fails with EINVAL.
class PipeOverWal {
 public:
  explicit PipeOverWal(const std::string& wal) {
    struct stat want = {};
    Result<std::vector<std::string>> fds = storage::ListDir("/proc/self/fd");
    if (::stat(wal.c_str(), &want) != 0 || !fds.ok()) return;
    for (const std::string& name : *fds) {
      int fd = std::atoi(name.c_str());
      struct stat st = {};
      if (::fstat(fd, &st) != 0 || st.st_dev != want.st_dev ||
          st.st_ino != want.st_ino) {
        continue;
      }
      int p[2];
      if (::pipe(p) != 0) return;
      ::dup2(p[1], fd);
      ::close(p[1]);
      read_end_ = p[0];
      return;
    }
  }
  ~PipeOverWal() {
    if (read_end_ >= 0) ::close(read_end_);
  }
  PipeOverWal(const PipeOverWal&) = delete;
  PipeOverWal& operator=(const PipeOverWal&) = delete;
  bool ok() const { return read_end_ >= 0; }

 private:
  int read_end_ = -1;
};

// A record whose write failed must leave no torn frame, and the log
// must refuse every later commit: replay stops at the first torn frame,
// so a commit acknowledged behind one would be lost.
TEST(StorageDatabaseTest, FailedWalWriteRefusesLaterCommits) {
  ScratchDir dir("walwrite");
  std::string rendered;
  {
    Universe u;
    Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."),
                                         DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c).")).ok());
    rendered = db->edb().ToString(u);
    Instance b = MustInstance(u, "E(c, d). E(d, e). E(e, f).");
    Instance c = MustInstance(u, "E(x, y).");
    Result<uint64_t> failed = Status::Internal("unset");
    {
      FileSizeCap cap(WalPath(dir.path), 10);
      ASSERT_TRUE(cap.ok()) << std::strerror(errno);
      failed = db->Append(std::move(b));
    }
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("SD401"), std::string::npos)
        << failed.status().ToString();
    EXPECT_EQ(db->epoch(), 1u);
    Result<uint64_t> later = db->Append(std::move(c));
    ASSERT_FALSE(later.ok()) << "committed epoch " << *later;
    EXPECT_EQ(later.status().ToString(), failed.status().ToString());
    EXPECT_EQ(db->epoch(), 1u);
    // No Close(): recovery replays the log as the failure left it.
  }
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->edb().ToString(u2), rendered);
}

// The same for a failed sync, run on the helper thread beside a
// commit's work: the work ran on the staged stack, nothing published,
// and the log refuses every later commit.
TEST(StorageDatabaseTest, FailedWalSyncRefusesLaterCommits) {
  ScratchDir dir("walsync");
  std::string rendered;
  {
    Universe u;
    Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."),
                                         DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c).")).ok());
    rendered = db->edb().ToString(u);
    PipeOverWal pipe(WalPath(dir.path));
    ASSERT_TRUE(pipe.ok());
    uint64_t staged_epoch = 0;
    Result<uint64_t> failed = db->Append(
        MustInstance(u, "E(c, d)."), nullptr,
        [&](const Session& staged) { staged_epoch = staged.epoch(); });
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().message().find("fdatasync"), std::string::npos)
        << failed.status().ToString();
    EXPECT_EQ(staged_epoch, 2u);
    EXPECT_EQ(db->epoch(), 1u);
    bool ran = false;
    Result<uint64_t> later =
        db->Append(MustInstance(u, "E(x, y)."), nullptr,
                   [&](const Session&) { ran = true; });
    ASSERT_FALSE(later.ok()) << "committed epoch " << *later;
    EXPECT_EQ(later.status().ToString(), failed.status().ToString());
    EXPECT_FALSE(ran);
    EXPECT_EQ(db->epoch(), 1u);
  }
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->edb().ToString(u2), rendered);
}

// Through the server's write path: a write whose WAL write or sync
// fails installs no view, rendering or plan, in the ViewManager or the
// serving cache, and the cached entry keeps serving the old epoch.
TEST(StorageDatabaseTest, FailedWalWriteOrSyncInstallsNoCachedView) {
  protocol::RunRequest req;
  req.program =
      "R($x, $y) <- E($x, $y).\n"
      "R($x, $z) <- R($x, $y), E($y, $z).\n";
  req.output_rel = "R";
  for (bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "failed sync" : "failed write");
    ScratchDir dir("walview");
    Universe u;
    Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."),
                                         DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    DatabaseService service(u, std::move(*db));
    ASSERT_TRUE(service.Run(req).ok());
    ASSERT_TRUE(service.Append({"E(b, c).", ""}).ok());
    Result<protocol::RunReply> before = service.Run(req);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_TRUE(before->result_cached);
    EXPECT_EQ(before->epoch, 1u);

    Result<protocol::AppendReply> failed = Status::Internal("unset");
    if (sync) {
      PipeOverWal pipe(WalPath(dir.path));
      ASSERT_TRUE(pipe.ok());
      failed = service.Append({"E(c, d).", ""});
    } else {
      FileSizeCap cap(WalPath(dir.path), 10);
      ASSERT_TRUE(cap.ok()) << std::strerror(errno);
      failed = service.Append({"E(c, d). E(d, e).", ""});
    }
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(service.db().epoch(), 1u);
    std::shared_ptr<const ViewSnapshot> stored =
        service.db().views().Lookup(req.program);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->epoch(), 1u);
    Result<protocol::RunReply> after = service.Run(req);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_TRUE(after->result_cached);
    EXPECT_EQ(after->epoch, 1u);
    EXPECT_EQ(after->rendered, before->rendered);
    // Nor a plan: the failed sync's drift check recompiled against the
    // staged stack, and the cached plan is still the one of epoch 1.
    Result<protocol::CompileReply> plan = service.Compile({req.program, ""});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(plan->cache_hit);
    EXPECT_FALSE(service.Append({"E(x, y).", ""}).ok());
    EXPECT_EQ(service.db().epoch(), 1u);
  }
}

// Work that throws does not stop its commit: the record is logged and
// synced beside it, the stack publishes, and only then does the
// exception propagate; the next commit logs and syncs its own record.
TEST(StorageDatabaseTest, ThrowingCommitWorkStillPublishes) {
  ScratchDir dir("throwwork");
  std::string rendered;
  {
    Universe u;
    Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."),
                                         DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_THROW(db->Append(MustInstance(u, "E(b, c)."), nullptr,
                            [](const Session&) {
                              throw std::runtime_error("work");
                            }),
                 std::runtime_error);
    EXPECT_EQ(db->epoch(), 1u);
    Result<uint64_t> next = db->Append(MustInstance(u, "E(c, d)."), nullptr,
                                       [](const Session&) {});
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(*next, 2u);
    rendered = db->edb().ToString(u);
    // No Close(): recovery replays both records.
  }
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->epoch(), 2u);
  EXPECT_EQ(db->edb().ToString(u2), rendered);
}

// A commit's work runs beside its WAL sync, before the stack publishes,
// only when a sync is owed; in memory and under kNever it runs once the
// stack has published. Either way it sees the commit's own stack, and an
// exception it throws propagates after the commit published.
TEST(StorageDatabaseTest, CommitWorkRunsBesideTheSyncOnlyWhenOneIsOwed) {
  for (const char* mode : {"memory", "never", "always"}) {
    SCOPED_TRACE(mode);
    ScratchDir dir("worktime");
    Database::OpenOptions opts;
    if (std::string(mode) != "memory") {
      opts = DurableOpts(dir.path);
      if (std::string(mode) == "never") {
        opts.sync_mode = storage::SyncMode::kNever;
      }
    }
    Universe u;
    Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."), opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const uint64_t published_before = std::string(mode) == "always" ? 1 : 0;
    uint64_t staged = 0, published = 0;
    auto work = [&](const Session& s) {
      staged = s.epoch();
      published = db->epoch();
    };
    ASSERT_TRUE(db->Append(MustInstance(u, "E(b, c)."), nullptr, work).ok());
    EXPECT_EQ(staged, 1u);
    EXPECT_EQ(published, 1u - published_before);
    ASSERT_TRUE(db->Retract(MustInstance(u, "E(a, b)."), nullptr, work).ok());
    EXPECT_EQ(staged, 2u);
    EXPECT_EQ(published, 2u - published_before);
    EXPECT_THROW(db->Append(MustInstance(u, "E(c, d)."), nullptr,
                            [](const Session&) {
                              throw std::runtime_error("work");
                            }),
                 std::runtime_error);
    EXPECT_EQ(db->epoch(), 3u);
  }
}

// Concurrent writers do not wait for each other's work: a commit that
// finds another commit in flight runs its work after publishing, outside
// the writer lock, although its sync is owed. Here the first commit is
// alone, so its work runs beside its sync, under the lock, and lets two
// more writers queue behind it; the one of those that takes the lock
// first finds the other in flight.
TEST(StorageConcurrencyTest, CommitWorkWaitsForNoOtherCommit) {
  ScratchDir dir("inflight");
  {
    Universe u;
    Result<Database> db = Database::Open(u, MustInstance(u, "E(a, b)."),
                                         DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Instance batches[] = {MustInstance(u, "E(b, c)."),
                          MustInstance(u, "E(c, d).")};
    std::atomic<int> ready{0}, committed{0}, after_publish{0};
    std::vector<std::thread> writers;
    bool first_beside = false;
    Result<uint64_t> first = db->Append(
        MustInstance(u, "E(x, y)."), nullptr, [&](const Session& staged) {
          first_beside = db->epoch() < staged.epoch();
          for (Instance& batch : batches) {
            writers.emplace_back([&] {
              ++ready;
              Result<uint64_t> epoch = db->Append(
                  std::move(batch), nullptr, [&](const Session& s) {
                    if (db->epoch() >= s.epoch()) ++after_publish;
                  });
              if (epoch.ok()) ++committed;
            });
          }
          // Both writers are about to enter their commits, which wait for
          // this one's lock.
          while (ready.load() < 2) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        });
    for (std::thread& t : writers) t.join();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE(first_beside);
    EXPECT_EQ(committed.load(), 2);
    EXPECT_GE(after_publish.load(), 1);
    EXPECT_EQ(db->epoch(), 3u);
    // No Close(): every commit synced its own record.
  }
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->epoch(), 3u);
}

TEST(StorageDatabaseTest, QueriesRunAfterRecovery) {
  ScratchDir dir("query");
  constexpr char kReach[] =
      "R($x, $y) <- E($x, $y).\n"
      "R($x, $z) <- R($x, $y), E($y, $z).\n";
  std::string want;
  {
    Universe u;
    Result<Database> db = Database::Open(
        u, MustInstance(u, "E(a, b). E(b, c). E(c, d)."),
        DurableOpts(dir.path));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Result<Program> p = ParseProgram(u, kReach);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    Result<PreparedProgram> prog = db->Compile(std::move(*p));
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    Result<Instance> out = db->Snapshot().Run(*prog);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    want = out->ToString(u);
    db->Close();
  }
  Universe u2;
  Result<Database> db = Database::Open(u2, DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Result<Program> p = ParseProgram(u2, kReach);
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = db->Compile(std::move(*p));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  Result<Instance> out = db->Snapshot().Run(*prog);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->ToString(u2), want);
}

// --- Crash-recovery differential --------------------------------------------

struct CrashOp {
  enum Kind { kAppend, kRetract, kCompact } kind;
  std::string text;  // instance literal; empty for kCompact
};

/// The scripted op stream. Child and oracle call this with the same
/// seed, so both see the identical sequence. Facts draw from a small
/// atom pool so retractions hit often and appends dedupe often — both
/// paths (effective and no-op commits) get exercised.
std::vector<CrashOp> MakeCrashOps(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  auto atom = [&] { return Numbered("a", rng() % 12); };
  std::vector<CrashOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t roll = rng() % 10;
    if (roll < 6) {
      std::string text;
      size_t batch = 1 + rng() % 3;
      for (size_t j = 0; j < batch; ++j) {
        switch (rng() % 3) {
          case 0:
            text += "E(" + atom() + ", " + atom() + "). ";
            break;
          case 1:
            text += "P(" + atom() + " ++ " + atom() + "). ";
            break;
          default:
            text += "Q(<" + atom() + " ++ " + atom() + "> ++ " + atom() +
                    "). ";
            break;
        }
      }
      ops.push_back({CrashOp::kAppend, text});
    } else if (roll < 9) {
      ops.push_back({CrashOp::kRetract,
                     "E(" + atom() + ", " + atom() + ")."});
    } else {
      ops.push_back({CrashOp::kCompact, ""});
    }
  }
  return ops;
}

/// Applies one scripted op to `db`. Returns false on error (the child
/// turns that into a nonzero exit; the oracle asserts).
bool ApplyCrashOp(Universe& u, Database& db, const CrashOp& op) {
  switch (op.kind) {
    case CrashOp::kAppend: {
      Result<Instance> batch = ParseInstance(u, op.text);
      if (!batch.ok()) return false;
      return db.Append(std::move(*batch)).ok();
    }
    case CrashOp::kRetract: {
      Result<Instance> batch = ParseInstance(u, op.text);
      if (!batch.ok()) return false;
      return db.Retract(std::move(*batch)).ok();
    }
    case CrashOp::kCompact:
      return db.Compact().ok();
  }
  return false;
}

/// Even seeds open child and oracle with the same non-empty seed EDB —
/// E facts over the script's atom pool, so retractions hit base facts —
/// and a small segment limit: most automatic folds are then tail folds.
/// Those write no file, so kills inside checkpoints that reuse the
/// base's file come from the seeds whose small WAL threshold checkpoints
/// after tail folds (seed % 3 == 0) and from scripted Compact() ops. Odd
/// seeds start empty and fold only when the script compacts.
std::string CrashSeedText(uint64_t seed) {
  std::string text;
  if (seed % 2 != 0) return text;
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      if ((i + j) % 2 != 0) continue;
      text += "E(a" + std::to_string(i) + ", a" + std::to_string(j) + "). ";
    }
  }
  return text;
}

size_t CrashAutoCompact(uint64_t seed) { return seed % 2 == 0 ? 3 : 0; }

/// Child body: commit the script against `dir`, acking each durable
/// epoch into `ack_path` (pwrite + fsync, so the parent's read after
/// SIGKILL only ever sees epochs the WAL already holds).
void CrashChild(const std::string& dir, const std::string& ack_path,
                const std::vector<CrashOp>& ops, uint64_t seed) {
  Universe u;
  Database::OpenOptions opts = DurableOpts(dir);
  // Small rotation threshold so kills land on every side of a
  // checkpoint, not only in the WAL-tail window.
  opts.checkpoint_wal_bytes = (seed % 3 == 0) ? 256 : (64ull << 20);
  opts.auto_compact_segments = CrashAutoCompact(seed);
  Result<Instance> edb = ParseInstance(u, CrashSeedText(seed));
  if (!edb.ok()) _exit(2);
  Result<Database> db = Database::Open(u, std::move(*edb), opts);
  if (!db.ok()) _exit(2);
  int ack_fd = ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (ack_fd < 0) _exit(3);
  for (const CrashOp& op : ops) {
    if (!ApplyCrashOp(u, *db, op)) _exit(4);
    uint64_t epoch = db->epoch();
    if (::pwrite(ack_fd, &epoch, sizeof(epoch), 0) !=
        static_cast<ssize_t>(sizeof(epoch))) {
      _exit(5);
    }
    if (::fsync(ack_fd) != 0) _exit(6);
  }
  ::close(ack_fd);
  _exit(0);
}

uint64_t ReadAckedEpoch(const std::string& ack_path) {
  uint64_t epoch = 0;
  int fd = ::open(ack_path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  ssize_t n = ::pread(fd, &epoch, sizeof(epoch), 0);
  ::close(fd);
  return n == static_cast<ssize_t>(sizeof(epoch)) ? epoch : 0;
}

TEST(StorageCrashRecoveryTest, KillAndReopenMatchesOracle) {
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "fork-heavy differential is an ASan/plain-build test";
#endif
#endif
  const uint64_t iterations = Iterations();
  constexpr size_t kOpsPerSeed = 64;
  for (uint64_t seed = 1; seed <= iterations; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScratchDir dir("crash");
    const std::string ack_path = dir.path + "/acked-epoch";
    std::vector<CrashOp> ops = MakeCrashOps(seed, kOpsPerSeed);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << std::strerror(errno);
    if (pid == 0) {
      CrashChild(dir.path, ack_path, ops, seed);  // never returns
    }
    // Kill at a seeded-random point; some kills land before the first
    // commit, some after the child finished the whole script.
    std::mt19937_64 krng(seed ^ 0xc2b2ae3d27d4eb4full);
    ::usleep(static_cast<useconds_t>(krng() % 25000));
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid) << std::strerror(errno);
    if (WIFEXITED(wstatus)) {
      // Child finished (or bailed) before the kill landed: a nonzero
      // exit is a child-side setup failure, not a recovery bug.
      ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "child failed before kill";
    }

    const uint64_t acked = ReadAckedEpoch(ack_path);
    if (!Database::DataDirInitialized(dir.path)) {
      // Killed before the seeding checkpoint published CURRENT; then
      // nothing may have been acked either.
      EXPECT_EQ(acked, 0u);
      continue;
    }

    Universe u;
    Database::OpenOptions ropts = DurableOpts(dir.path);
    ropts.auto_compact_segments = CrashAutoCompact(seed);
    Result<Database> recovered = Database::Open(u, ropts);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // Durability: every acked epoch was WAL-fsynced pre-publish.
    EXPECT_GE(recovered->epoch(), acked);

    // Oracle: replay the same script in memory up to the recovered
    // epoch. No-op commits don't move the epoch, so "epoch caught up"
    // identifies the committed prefix exactly (modulo trailing no-ops,
    // which don't change the fact set either).
    Database::OpenOptions oopts;
    oopts.auto_compact_segments = CrashAutoCompact(seed);
    Result<Database> oracle =
        Database::Open(u, MustInstance(u, CrashSeedText(seed)), oopts);
    ASSERT_TRUE(oracle.ok());
    size_t next_op = 0;
    while (oracle->epoch() < recovered->epoch() && next_op < ops.size()) {
      ASSERT_TRUE(ApplyCrashOp(u, *oracle, ops[next_op]))
          << "oracle replay failed at op " << next_op;
      ++next_op;
    }
    ASSERT_EQ(oracle->epoch(), recovered->epoch())
        << "recovered epoch unreachable by script replay";

    EXPECT_EQ(recovered->edb().ToString(u), oracle->edb().ToString(u));
    EXPECT_EQ(recovered->NumFacts(), oracle->NumFacts());

    // Physical layout (segment/tombstone counts) is NOT a function of
    // the epoch — a scripted Compact folds tombstones without bumping
    // it, so the oracle may stop short of one the child ran. Compaction
    // normalizes both sides; contents must be unchanged and the
    // recovered side must still fold durably.
    Result<bool> rfold = recovered->Compact();
    ASSERT_TRUE(rfold.ok()) << rfold.status().ToString();
    Result<bool> ofold = oracle->Compact();
    ASSERT_TRUE(ofold.ok());
    EXPECT_EQ(recovered->edb().ToString(u), oracle->edb().ToString(u));
    EXPECT_EQ(recovered->NumTombstones(), 0u);
  }
}

// --- Snapshot pinning across durable compaction (TSan target) ---------------

TEST(StorageConcurrencyTest, PinnedSnapshotSurvivesDurableCompact) {
  ScratchDir dir("pin");
  Universe u;
  Result<Database> db = Database::Open(
      u, MustInstance(u, "E(a, b). E(b, c). E(c, d)."), DurableOpts(dir.path));
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Session pinned = db->Snapshot();
  const uint64_t pinned_epoch = pinned.epoch();
  const std::string pinned_view = pinned.edb().ToString(u);
  const size_t pinned_facts = pinned.NumFacts();

  // Readers hammer the pinned session while the writer appends,
  // retracts, and compacts — each compact rewrites the manifest and
  // deletes the files the pinned segments were loaded from. The pins
  // are in-memory shared_ptrs; no read may ever touch the dead files.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_EQ(pinned.NumFacts(), pinned_facts);
        EXPECT_EQ(pinned.epoch(), pinned_epoch);
        EXPECT_EQ(pinned.edb().ToString(u), pinned_view);
      }
    });
  }
  for (int round = 0; round < 8; ++round) {
    std::string fact =
        "E(x" + std::to_string(round) + ", y" + std::to_string(round) + ").";
    ASSERT_TRUE(db->Append(MustInstance(u, fact)).ok());
    ASSERT_TRUE(db->Retract(MustInstance(u, fact)).ok());
    Result<bool> folded = db->Compact();
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(pinned.edb().ToString(u), pinned_view);
  EXPECT_EQ(db->storage_info().sealed_segments, db->NumSegments());
}

}  // namespace
}  // namespace seqdl
