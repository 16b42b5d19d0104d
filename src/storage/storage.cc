#include "src/storage/storage.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <utility>

#include "src/storage/format.h"

namespace seqdl {
namespace storage {

namespace {

std::string SegFileName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06" PRIu64 ".sdlseg", id);
  return buf;
}

std::string WalFileName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06" PRIu64 ".log", generation);
  return buf;
}

}  // namespace

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    Universe& u, StorageOptions opts) {
  SEQDL_RETURN_IF_ERROR(EnsureDir(opts.dir));
  auto engine = std::unique_ptr<StorageEngine>(new StorageEngine(opts));

  Result<Manifest> current = ReadCurrent(opts.dir);
  if (current.ok()) {
    SEQDL_RETURN_IF_ERROR(engine->RecoverFrom(u, std::move(current).value()));
  } else if (current.status().code() != StatusCode::kNotFound) {
    return current.status();
  }
  // Fresh directory: generation 0, no files; the caller's initial
  // Checkpoint publishes generation 1.

  SEQDL_RETURN_IF_ERROR(engine->SweepOrphans());
  engine->RefreshInfo();
  return engine;
}

Status StorageEngine::RecoverFrom(Universe& u, Manifest m) {
  for (const ManifestSegment& seg : m.segments) {
    SEQDL_ASSIGN_OR_RETURN(LoadedSegment loaded,
                           ReadSegmentFile(SegPath(seg.file), u));
    if (loaded.kind != seg.kind) {
      return StorageError(kSdManifestCorrupt,
                          SegPath(seg.file) +
                              ": segment kind disagrees with the manifest");
    }
    if (loaded.facts.NumFacts() != seg.facts) {
      return StorageError(kSdManifestCorrupt,
                          SegPath(seg.file) +
                              ": fact count disagrees with the manifest");
    }
    SealedSegment out;
    out.facts = std::move(loaded.facts);
    out.kind = loaded.kind;
    out.stamp = seg.stamp;
    sealed_.push_back(std::move(out));
  }
  recovered_ = true;
  recovered_epoch_ = m.epoch;
  recovered_shrink_floor_ = m.shrink_floor;
  manifest_ = std::move(m);
  return Status::OK();
}

Status StorageEngine::SweepOrphans() const {
  std::set<std::string> live = {"CURRENT"};
  if (manifest_.generation > 0) {
    live.insert(ManifestFileName(manifest_.generation));
    live.insert(manifest_.wal_file);
    for (const ManifestSegment& seg : manifest_.segments) {
      live.insert(seg.file);
    }
  }
  SEQDL_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                         ListDir(opts_.dir));
  for (const std::string& name : entries) {
    if (live.count(name) > 0) continue;
    // Only sweep names this engine generates; leave foreign files alone.
    bool ours = name.rfind("seg-", 0) == 0 || name.rfind("wal-", 0) == 0 ||
                name.rfind("MANIFEST-", 0) == 0 ||
                (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0);
    if (!ours) continue;
    SEQDL_RETURN_IF_ERROR(RemoveFile(opts_.dir + "/" + name));
  }
  return Status::OK();
}

Result<WalReplay> StorageEngine::ReplayTail(
    Universe& u,
    const std::function<Status(WalRecordType, Instance)>& apply) {
  WalReplay replay;
  if (manifest_.generation > 0) {
    std::string wal_path = opts_.dir + "/" + manifest_.wal_file;
    SEQDL_ASSIGN_OR_RETURN(replay, ReplayWal(wal_path, u, apply));
    SEQDL_ASSIGN_OR_RETURN(
        WalWriter w,
        WalWriter::Open(wal_path, opts_.sync_mode, opts_.sync_interval_ms));
    wal_.emplace(std::move(w));
  }
  RefreshInfo();
  return replay;
}

Status StorageEngine::LogCommit(WalRecordType type, const Universe& u,
                                const Instance& batch) {
  if (!wal_.has_value()) {
    return Status::Internal(
        "storage: LogCommit before the WAL was opened (missing initial "
        "checkpoint or ReplayTail)");
  }
  SEQDL_RETURN_IF_ERROR(wal_->Append(type, u, batch));
  std::lock_guard<std::mutex> lock(info_mu_);
  info_.wal_bytes = wal_->bytes();
  return Status::OK();
}

bool StorageEngine::WantsCheckpoint() const {
  return wal_.has_value() && wal_->bytes() >= opts_.checkpoint_wal_bytes;
}

Status StorageEngine::Checkpoint(const Universe& u, uint64_t epoch,
                                 uint64_t shrink_floor,
                                 const std::vector<CheckpointSegment>& stack,
                                 size_t keep) {
  // A stack shorter than the reused prefix can only come from a fold
  // the caller did not describe; rewrite it all.
  size_t reuse = std::min(keep, manifest_.segments.size());
  if (reuse > stack.size()) reuse = 0;

  Manifest next;
  next.generation = manifest_.generation + 1;
  next.epoch = epoch;
  next.shrink_floor = shrink_floor;
  next.next_file_id = manifest_.next_file_id;
  next.wal_file = WalFileName(next.generation);
  next.segments.assign(manifest_.segments.begin(),
                       manifest_.segments.begin() +
                           static_cast<ptrdiff_t>(reuse));

  // 1. Seal the segments above the reused prefix. Failure here leaves
  //    only unreferenced files behind (swept at the next Open).
  std::vector<std::string> fresh_files;
  auto discard_fresh = [&]() {
    for (const std::string& f : fresh_files) {
      (void)RemoveFile(SegPath(f));  // best effort
    }
  };
  for (size_t i = reuse; i < stack.size(); ++i) {
    std::string file = SegFileName(next.next_file_id++);
    Result<uint64_t> size =
        WriteSegmentFile(SegPath(file), u, *stack[i].facts, stack[i].kind);
    if (!size.ok()) {
      discard_fresh();
      return size.status();
    }
    fresh_files.push_back(file);
    ManifestSegment seg;
    seg.file = std::move(file);
    seg.kind = stack[i].kind;
    seg.stamp = stack[i].stamp;
    seg.facts = stack[i].facts->NumFacts();
    seg.bytes = *size;
    next.segments.push_back(std::move(seg));
  }

  // 2. Write the new manifest and create its (empty) WAL before the
  //    CURRENT flip: once CURRENT names the generation, every file it
  //    references must exist.
  Status st = WriteManifest(opts_.dir, next);
  if (st.ok()) {
    Result<WalWriter> w = WalWriter::Open(opts_.dir + "/" + next.wal_file,
                                          opts_.sync_mode,
                                          opts_.sync_interval_ms);
    if (!w.ok()) {
      st = w.status();
    } else {
      st = w->Sync();
      if (st.ok()) {
        // 3. Commit point.
        st = PublishCurrent(opts_.dir, next.generation);
      }
      if (st.ok()) {
        // 4. The old generation is obsolete; deletions are best effort
        //    (a crash here leaves orphans for the next Open's sweep).
        if (manifest_.generation > 0) {
          (void)RemoveFile(opts_.dir + "/" +
                           ManifestFileName(manifest_.generation));
          (void)RemoveFile(opts_.dir + "/" + manifest_.wal_file);
        }
        std::set<std::string> kept;
        for (const ManifestSegment& seg : next.segments) kept.insert(seg.file);
        for (const ManifestSegment& seg : manifest_.segments) {
          if (kept.count(seg.file) == 0) (void)RemoveFile(SegPath(seg.file));
        }
        manifest_ = std::move(next);
        wal_.emplace(std::move(w).value());
        RefreshInfo();
        return Status::OK();
      }
    }
  }
  // Failure before the CURRENT flip: unpublish everything we created.
  (void)RemoveFile(opts_.dir + "/" + ManifestFileName(next.generation));
  (void)RemoveFile(opts_.dir + "/" + next.wal_file);
  discard_fresh();
  return st;
}

StorageInfo StorageEngine::info() const {
  std::lock_guard<std::mutex> lock(info_mu_);
  return info_;
}

void StorageEngine::RefreshInfo() {
  StorageInfo info;
  info.manifest_generation = manifest_.generation;
  info.sealed_segments = manifest_.segments.size();
  for (const ManifestSegment& seg : manifest_.segments) {
    info.on_disk_bytes += seg.bytes;
  }
  info.wal_bytes = wal_.has_value() ? wal_->bytes() : 0;
  std::lock_guard<std::mutex> lock(info_mu_);
  info_ = info;
}

}  // namespace storage
}  // namespace seqdl
