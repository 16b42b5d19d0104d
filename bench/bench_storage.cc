// Durability costs, measured: WAL commit throughput under each fsync
// policy, the same with automatic folds over a large base (the trade of
// folding in memory: cheap commits, a WAL that grows until its
// threshold), a server's write with three cached views, by one writer
// and by four, in memory and durable (whose refresh runs beside the WAL
// sync while one write is in flight), the time Open(dir) takes to replay
// that WAL, cold recovery (`Database::Open(dir)`) versus parsing and
// re-ingesting the same facts, and query latency on a recovered
// database versus a never-persisted one. Prints comparison tables and
// then runs the google-benchmark timers; `--json` instead emits one
// machine-readable document (for the nightly difftest workflow's
// regression record) and skips the benchmark harness.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/server/service.h"
#include "src/storage/format.h"
#include "src/storage/storage.h"
#include "src/storage/wal.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string MakeTempDir(const char* tag) {
  const char* root = std::getenv("TMPDIR");
  if (root == nullptr || *root == '\0') root = "/tmp";
  std::string tmpl = std::string(root) + "/seqdl_bench_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  if (got == nullptr) {
    std::fprintf(stderr, "mkdtemp %s failed: %s\n", tmpl.c_str(),
                 std::strerror(errno));
    std::abort();
  }
  return got;
}

void RemoveTree(const std::string& dir) {
  Result<std::vector<std::string>> names = storage::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)::unlink((dir + "/" + name).c_str());
    }
  }
  (void)::rmdir(dir.c_str());
}

/// `facts` edge facts over a long cycle, plus a path-valued relation so
/// the segment encoder's path table sees nested structure, not just
/// atoms.
Instance MakeFacts(Universe& u, size_t facts) {
  Instance out;
  RelId e = *u.InternRel("E", 2);
  RelId p = *u.InternRel("P", 1);
  size_t nodes = facts;
  for (size_t i = 0; i < facts; ++i) {
    std::string from_name = "n";
    from_name += std::to_string(i);
    std::string to_name = "n";
    to_name += std::to_string((i + 1) % nodes);
    std::vector<Value> from = {Value::Atom(u.InternAtom(from_name))};
    std::vector<Value> to = {Value::Atom(u.InternAtom(to_name))};
    if (i % 8 == 0) {
      std::vector<Value> path = {from[0], to[0]};
      out.Add(p, Tuple{u.InternPath(path)});
    } else {
      out.Add(e, Tuple{u.InternPath(from), u.InternPath(to)});
    }
  }
  return out;
}

/// One commit batch of `batch` fresh facts, disjoint per round so every
/// append is effective (dedupe never empties it).
Instance MakeBatch(Universe& u, size_t round, size_t batch) {
  Instance out;
  RelId e = *u.InternRel("E", 2);
  for (size_t i = 0; i < batch; ++i) {
    std::string stem = "b";
    stem += std::to_string(round);
    stem += '_';
    stem += std::to_string(i);
    std::vector<Value> src = {Value::Atom(u.InternAtom(stem + "s"))};
    std::vector<Value> dst = {Value::Atom(u.InternAtom(stem + "t"))};
    out.Add(e, Tuple{u.InternPath(src), u.InternPath(dst)});
  }
  return out;
}

struct WalPolicyResult {
  const char* policy;
  size_t commits;
  double ms;
  double commits_per_sec;
};

/// Commit throughput through the full Database path (log + publish),
/// one data directory per policy.
WalPolicyResult MeasureWalPolicy(storage::SyncMode mode, const char* name,
                                 size_t commits, size_t batch) {
  std::string dir = MakeTempDir("wal");
  Universe u;
  Database::OpenOptions opts;
  opts.data_dir = dir;
  opts.sync_mode = mode;
  opts.sync_interval_ms = 10;
  Result<Database> db = Database::Open(u, Instance(), opts);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < commits; ++i) {
    if (!db->Append(MakeBatch(u, i, batch)).ok()) std::abort();
  }
  double ms = MsSince(start);
  db->Close();
  RemoveTree(dir);
  return {name, commits, ms, commits / (ms / 1000.0)};
}

/// The churn of a serving workload: the live facts are a window of
/// kChurnLive batches of 5 (MakeBatch rounds). Commit i appends the
/// batch after the window (even i) or retracts its oldest batch (odd i),
/// so every commit is effective and the live fact count stays at
/// kChurnBase, while the net change above the base grows until the fold
/// merges a new base, as in perfbench's durable_ingest.
constexpr size_t kChurnBatch = 5;
constexpr size_t kChurnLive = 2'400;
constexpr size_t kChurnBase = kChurnLive * kChurnBatch;

Instance ChurnBase(Universe& u) {
  Instance out;
  for (size_t r = 0; r < kChurnLive; ++r) {
    out.UnionWith(MakeBatch(u, r, kChurnBatch));
  }
  return out;
}

Result<uint64_t> ChurnCommit(Universe& u, Database& db, size_t i) {
  if (i % 2 == 0) {
    return db.Append(MakeBatch(u, kChurnLive + i / 2, kChurnBatch));
  }
  return db.Retract(MakeBatch(u, i / 2, kChurnBatch));
}

/// `seqdl serve --data-dir`'s default fold limit.
constexpr size_t kServeAutoCompact = 8;

Database::OpenOptions ChurnOptions(const std::string& dir,
                                   storage::SyncMode mode) {
  Database::OpenOptions opts;
  opts.data_dir = dir;
  opts.sync_mode = mode;
  opts.auto_compact_segments = kServeAutoCompact;
  return opts;
}

struct FoldingResult {
  const char* policy;
  size_t commits;
  double ms;
  double commits_per_sec;
  uint64_t checkpoints;  ///< manifest generations the commits published
};

/// Commit throughput with automatic folds: the churn above under
/// auto_compact_segments = kServeAutoCompact.
FoldingResult MeasureFoldingCommits(storage::SyncMode mode, const char* name,
                                    size_t commits) {
  std::string dir = MakeTempDir("fold");
  Universe u;
  Result<Database> db =
      Database::Open(u, ChurnBase(u), ChurnOptions(dir, mode));
  if (!db.ok()) std::abort();
  const uint64_t gen0 = db->storage_info().manifest_generation;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < commits; ++i) {
    if (!ChurnCommit(u, *db, i).ok()) std::abort();
  }
  double ms = MsSince(start);
  uint64_t checkpoints = db->storage_info().manifest_generation - gen0;
  db->Close();
  RemoveTree(dir);
  return {name, commits, ms, commits / (ms / 1000.0), checkpoints};
}

/// perfbench durable_ingest's standing programs (packing, stratified
/// negation, recursion) and the outputs it reads.
constexpr const char* kStandingPrograms[] = {
    "Mark($k, $u ++ <a ++ c ++ g> ++ $v) <- Read($k, $u ++ a ++ c ++ g ++ "
    "$v).\nMarked($k) <- Mark($k, $p).\n",
    "HasRp($k, $v) <- Log($k, $u ++ co ++ $v), $v = $s ++ rp ++ $t.\n---\n"
    "Bad($k) <- Log($k, $x), $x = $u ++ co ++ $v, !HasRp($k, $v).\n---\n"
    "Good($k) <- Log($k, $x), !Bad($k).\n",
    "Reach(@x ++ @y) <- Link(@x ++ @y).\n"
    "Reach(@x ++ @z) <- Reach(@x ++ @y), Link(@y ++ @z).\n"
    "Cyclic(@x) <- Reach(@x ++ @x).\n",
};
constexpr std::pair<int, const char*> kStandingOutputs[] = {
    {0, "Mark"}, {0, "Marked"}, {1, "Good"}, {1, "Bad"}, {2, "Reach"}};

/// Batch i of the service churn: one read of 24-39 bases, one log of
/// 6-13 events and one edge. Edge i lies in cluster i % 32 of four
/// nodes, so any kServiceLive consecutive batches hold distinct edges
/// and close each cluster into a 4-cycle.
std::string ServiceBatch(size_t i) {
  uint64_t x = i * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&x](size_t n) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    return static_cast<size_t>(x % n);
  };
  const char* const bases[] = {"a", "c", "g", "t"};
  const char* const events[] = {"co", "rp", "x", "y"};
  std::string read, log;
  for (size_t n = 24 + next(16); n > 0; --n) {
    read += bases[next(4)];
    if (n > 1) read += " ++ ";
  }
  for (size_t n = 6 + next(8); n > 0; --n) {
    log += events[next(4)];
    if (n > 1) log += " ++ ";
  }
  size_t base = (i % 32) * 4, step = i / 32;
  std::string out = "Read(r" + std::to_string(i) + ", " + read + ").\n";
  out += "Log(c" + std::to_string(i) + ", " + log + ").\n";
  out += "Link(n" + std::to_string(base + step % 4) + " ++ n" +
         std::to_string(base + (step + 1) % 4) + ").\n";
  return out;
}

constexpr size_t kServiceLive = 128;
constexpr size_t kServiceArchive = 2'000;
constexpr size_t kServiceWrites = 2000;

/// Concurrent writers in the service-write table: a durable commit
/// overlaps its fsync with its refresh only while it is the only commit
/// in flight, so more writers must not make writes slower.
constexpr size_t kServiceWriters = 4;

struct ServiceWriteResult {
  const char* policy;
  size_t writers;
  size_t writes;
  double us_per_write;  ///< wall time over all writers' writes
};

/// DatabaseService writes with the standing programs cached, in memory
/// (`name` "memory") or over a data directory under `mode`, both with
/// auto_compact_segments = kServeAutoCompact: write i appends batch
/// kServiceLive + i / 2 (even i) or retracts batch i / 2 (odd i), and
/// each refreshes the three views and patches the five cached
/// renderings. `writers` threads share the writes (writer w makes
/// writes w, w + writers, ...); one writer runs on the calling thread.
ServiceWriteResult MeasureServiceWrites(storage::SyncMode mode,
                                        const char* name, size_t writers) {
  const bool memory = std::strcmp(name, "memory") == 0;
  const std::string dir = memory ? "" : MakeTempDir("service");
  Universe u;
  std::string edb;
  for (size_t i = 0; i < kServiceLive; ++i) edb += ServiceBatch(i);
  for (size_t i = 0; i < kServiceArchive; ++i) {
    edb += "Archive(a" + std::to_string(i) + ", b" + std::to_string(i) +
           ").\n";
  }
  Result<Instance> seed = ParseInstance(u, edb);
  if (!seed.ok()) std::abort();
  Result<Database> db =
      Database::Open(u, std::move(*seed), ChurnOptions(dir, mode));
  if (!db.ok()) std::abort();
  double ms = 0;
  {
    DatabaseService service(u, std::move(*db));
    for (const auto& [program, output] : kStandingOutputs) {
      protocol::RunRequest req;
      req.program = kStandingPrograms[program];
      req.output_rel = output;
      if (!service.Run(req).ok()) std::abort();
    }
    std::vector<std::string> batches;
    for (size_t i = 0; i < kServiceWrites; ++i) {
      batches.push_back(
          ServiceBatch(i % 2 == 0 ? kServiceLive + i / 2 : i / 2));
    }
    auto write = [&](size_t w) {
      for (size_t i = w; i < kServiceWrites; i += writers) {
        bool ok = i % 2 == 0 ? service.Append({batches[i], ""}).ok()
                             : service.Retract({batches[i], ""}).ok();
        if (!ok) std::abort();
      }
    };
    auto start = std::chrono::steady_clock::now();
    if (writers == 1) {
      write(0);
    } else {
      std::vector<std::thread> threads;
      for (size_t w = 0; w < writers; ++w) threads.emplace_back(write, w);
      for (std::thread& t : threads) t.join();
    }
    ms = MsSince(start);
  }
  if (!memory) RemoveTree(dir);
  return {name, writers, kServiceWrites, ms * 1000.0 / kServiceWrites};
}

struct ReplayResult {
  size_t records;
  uint64_t wal_bytes;
  double open_ms;
  double us_per_record;  ///< open time above the no-record open
  double mb_per_sec;     ///< WAL bytes replayed per second, likewise
};

/// Open(dir) over a data directory whose WAL holds `records` churn
/// commits past its seeding checkpoint (written under kNever with the
/// fold limit on and no WAL threshold, and never closed, so nothing
/// seals them). `base_ms` is the open time with no record, subtracted
/// before the per-record rates.
ReplayResult MeasureReplay(size_t records, double base_ms) {
  std::string dir = MakeTempDir("replay");
  Database::OpenOptions opts = ChurnOptions(dir, storage::SyncMode::kNever);
  opts.checkpoint_wal_bytes = UINT64_MAX;
  ReplayResult r{};
  r.records = records;
  {
    Universe u;
    Result<Database> db = Database::Open(u, ChurnBase(u), opts);
    if (!db.ok()) std::abort();
    for (size_t i = 0; i < records; ++i) {
      if (!ChurnCommit(u, *db, i).ok()) std::abort();
    }
    r.wal_bytes = db->storage_info().wal_bytes;
  }
  Universe u;
  auto start = std::chrono::steady_clock::now();
  Result<Database> db = Database::Open(u, opts);
  if (!db.ok() || db->epoch() != records) std::abort();
  r.open_ms = MsSince(start);
  double replay_s = std::max(r.open_ms - base_ms, 1e-6) / 1000.0;
  if (records > 0) {
    r.us_per_record = replay_s * 1e6 / static_cast<double>(records);
    r.mb_per_sec = static_cast<double>(r.wal_bytes) / 1e6 / replay_s;
  }
  RemoveTree(dir);
  return r;
}

struct RecoveryResult {
  size_t facts;
  double cold_open_ms;
  double reingest_ms;
  double speedup;
  double query_recovered_ms;
  double query_memory_ms;
  uint64_t on_disk_bytes;
};

RecoveryResult MeasureRecovery(size_t facts) {
  std::string dir = MakeTempDir("open");
  RecoveryResult r{};
  r.facts = facts;
  std::string rendered;
  {
    Universe u;
    Database::OpenOptions opts;
    opts.data_dir = dir;
    Result<Database> db = Database::Open(u, MakeFacts(u, facts), opts);
    if (!db.ok()) std::abort();
    rendered = db->edb().ToString(u);
    r.on_disk_bytes = db->storage_info().on_disk_bytes;
    db->Close();
  }

  constexpr const char* kHop = "H($x, $z) <- E($x, $y), E($y, $z).\n";
  auto query_ms = [&](Database& db, Universe& u) {
    Result<Program> p = ParseProgram(u, kHop);
    if (!p.ok()) std::abort();
    Result<PreparedProgram> prog = db.Compile(std::move(*p));
    if (!prog.ok()) std::abort();
    auto start = std::chrono::steady_clock::now();
    Result<Instance> out = db.Snapshot().Run(*prog);
    if (!out.ok()) std::abort();
    return MsSince(start);
  };

  {
    // Cold recovery: mmap'd segments decoded straight into the store.
    Universe u;
    Database::OpenOptions opts;
    opts.data_dir = dir;
    auto start = std::chrono::steady_clock::now();
    Result<Database> db = Database::Open(u, opts);
    if (!db.ok()) std::abort();
    r.cold_open_ms = MsSince(start);
    r.query_recovered_ms = query_ms(*db, u);
  }
  {
    // The pre-durability restart path: render to text, parse, re-ingest.
    Universe u;
    auto start = std::chrono::steady_clock::now();
    Result<Instance> parsed = ParseInstance(u, rendered);
    if (!parsed.ok()) std::abort();
    Result<Database> db = Database::Open(u, std::move(*parsed));
    if (!db.ok()) std::abort();
    r.reingest_ms = MsSince(start);
    r.query_memory_ms = query_ms(*db, u);
  }
  r.speedup = r.reingest_ms / r.cold_open_ms;
  RemoveTree(dir);
  return r;
}

constexpr size_t kWalCommits = 200;
constexpr size_t kWalBatch = 8;
constexpr size_t kFoldingCommits = 400;

void PrintTables(bool json) {
  std::vector<WalPolicyResult> wal;
  wal.push_back(MeasureWalPolicy(storage::SyncMode::kAlways, "always",
                                 kWalCommits, kWalBatch));
  wal.push_back(MeasureWalPolicy(storage::SyncMode::kInterval, "interval",
                                 kWalCommits, kWalBatch));
  wal.push_back(MeasureWalPolicy(storage::SyncMode::kNever, "never",
                                 kWalCommits, kWalBatch));
  std::vector<FoldingResult> folding;
  folding.push_back(MeasureFoldingCommits(storage::SyncMode::kAlways,
                                          "always", kFoldingCommits));
  folding.push_back(MeasureFoldingCommits(storage::SyncMode::kNever, "never",
                                          kFoldingCommits));
  // One writer before several, and `memory` and `never` before
  // `always`: those never start the WAL sync thread, and once a thread
  // has run, glibc and libstdc++ leave their single-thread fast paths
  // for the rest of the process.
  std::vector<ServiceWriteResult> service;
  for (size_t writers : {size_t{1}, kServiceWriters}) {
    service.push_back(
        MeasureServiceWrites(storage::SyncMode::kNever, "memory", writers));
    service.push_back(
        MeasureServiceWrites(storage::SyncMode::kNever, "never", writers));
    service.push_back(
        MeasureServiceWrites(storage::SyncMode::kAlways, "always", writers));
  }
  // The part of the fsync one writer's write does not hide behind its
  // refresh.
  const double unhidden_us = service[2].us_per_write - service[1].us_per_write;
  std::vector<ReplayResult> replay;
  replay.push_back(MeasureReplay(0, 0.0));
  for (size_t records : {1'000, 10'000, 100'000}) {
    replay.push_back(MeasureReplay(records, replay[0].open_ms));
  }
  std::vector<RecoveryResult> rec;
  rec.push_back(MeasureRecovery(10'000));
  rec.push_back(MeasureRecovery(50'000));

  if (json) {
    std::printf("{\n  \"wal_policies\": [\n");
    for (size_t i = 0; i < wal.size(); ++i) {
      std::printf(
          "    {\"policy\": \"%s\", \"commits\": %zu, \"ms\": %.3f, "
          "\"commits_per_sec\": %.1f}%s\n",
          wal[i].policy, wal[i].commits, wal[i].ms, wal[i].commits_per_sec,
          i + 1 < wal.size() ? "," : "");
    }
    std::printf("  ],\n  \"folding_commits\": [\n");
    for (size_t i = 0; i < folding.size(); ++i) {
      std::printf(
          "    {\"policy\": \"%s\", \"auto_compact\": %zu, "
          "\"commits\": %zu, \"ms\": %.3f, \"commits_per_sec\": %.1f, "
          "\"checkpoints\": %llu}%s\n",
          folding[i].policy, kServeAutoCompact, folding[i].commits,
          folding[i].ms, folding[i].commits_per_sec,
          static_cast<unsigned long long>(folding[i].checkpoints),
          i + 1 < folding.size() ? "," : "");
    }
    std::printf("  ],\n  \"service_writes\": [\n");
    for (size_t i = 0; i < service.size(); ++i) {
      std::printf(
          "    {\"policy\": \"%s\", \"writers\": %zu, \"writes\": %zu, "
          "\"us_per_write\": %.2f}%s\n",
          service[i].policy, service[i].writers, service[i].writes,
          service[i].us_per_write, i + 1 < service.size() ? "," : "");
    }
    std::printf("  ],\n  \"service_write_fsync_unhidden_us\": %.2f,\n",
                unhidden_us);
    std::printf("  \"replay\": [\n");
    for (size_t i = 0; i < replay.size(); ++i) {
      std::printf(
          "    {\"records\": %zu, \"wal_bytes\": %llu, \"open_ms\": %.3f, "
          "\"us_per_record\": %.2f, \"mb_per_sec\": %.2f}%s\n",
          replay[i].records,
          static_cast<unsigned long long>(replay[i].wal_bytes),
          replay[i].open_ms, replay[i].us_per_record, replay[i].mb_per_sec,
          i + 1 < replay.size() ? "," : "");
    }
    std::printf("  ],\n  \"recovery\": [\n");
    for (size_t i = 0; i < rec.size(); ++i) {
      std::printf(
          "    {\"facts\": %zu, \"cold_open_ms\": %.3f, "
          "\"reingest_ms\": %.3f, \"speedup\": %.2f, "
          "\"query_recovered_ms\": %.3f, \"query_memory_ms\": %.3f, "
          "\"on_disk_bytes\": %llu}%s\n",
          rec[i].facts, rec[i].cold_open_ms, rec[i].reingest_ms,
          rec[i].speedup, rec[i].query_recovered_ms, rec[i].query_memory_ms,
          static_cast<unsigned long long>(rec[i].on_disk_bytes),
          i + 1 < rec.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return;
  }

  std::printf("=== WAL commit throughput by fsync policy ===\n");
  std::printf("%-10s %-9s %-10s %s\n", "policy", "commits", "total(ms)",
              "commits/s");
  for (const WalPolicyResult& w : wal) {
    std::printf("%-10s %-9zu %-10.2f %.0f\n", w.policy, w.commits, w.ms,
                w.commits_per_sec);
  }
  std::printf(
      "\n=== Commit throughput, auto_compact_segments = %zu, %zu-fact base "
      "===\n",
      kServeAutoCompact, kChurnBase);
  std::printf("%-10s %-9s %-10s %-10s %s\n", "policy", "commits",
              "total(ms)", "commits/s", "checkpoints");
  for (const FoldingResult& f : folding) {
    std::printf("%-10s %-9zu %-10.2f %-10.0f %llu\n", f.policy, f.commits,
                f.ms, f.commits_per_sec,
                static_cast<unsigned long long>(f.checkpoints));
  }
  std::printf(
      "\n=== Durable service writes, three cached views (durable_ingest's "
      "programs) ===\n");
  std::printf("%-10s %-8s %-9s %s\n", "policy", "writers", "writes",
              "us/write");
  for (const ServiceWriteResult& w : service) {
    std::printf("%-10s %-8zu %-9zu %.1f\n", w.policy, w.writers, w.writes,
                w.us_per_write);
  }
  std::printf("fsync not hidden by the refresh (one writer): %.1f us/write\n",
              unhidden_us);
  std::printf("\n=== Open(dir) replaying a WAL tail (%zu-fact base) ===\n",
              kChurnBase);
  std::printf("%-9s %-10s %-10s %-12s %s\n", "records", "wal(KB)",
              "open(ms)", "us/record", "MB/s");
  for (const ReplayResult& x : replay) {
    std::printf("%-9zu %-10llu %-10.2f %-12.2f %.2f\n", x.records,
                static_cast<unsigned long long>(x.wal_bytes / 1024),
                x.open_ms, x.us_per_record, x.mb_per_sec);
  }
  std::printf("\n=== Cold Open(dir) vs parse-and-re-ingest ===\n");
  std::printf("%-9s %-10s %-12s %-9s %-13s %-11s %s\n", "facts", "open(ms)",
              "reingest(ms)", "speedup", "query-rec(ms)", "query-mem(ms)",
              "disk(KB)");
  for (const RecoveryResult& x : rec) {
    std::printf("%-9zu %-10.2f %-12.2f %-9.2fx %-13.2f %-11.2f %llu\n",
                x.facts, x.cold_open_ms, x.reingest_ms, x.speedup,
                x.query_recovered_ms, x.query_memory_ms,
                static_cast<unsigned long long>(x.on_disk_bytes / 1024));
  }
  std::printf("\n");
}

void BM_WalCommit(benchmark::State& state) {
  storage::SyncMode mode = static_cast<storage::SyncMode>(state.range(0));
  std::string dir = MakeTempDir("bm_wal");
  Universe u;
  Database::OpenOptions opts;
  opts.data_dir = dir;
  opts.sync_mode = mode;
  opts.sync_interval_ms = 10;
  Result<Database> db = Database::Open(u, Instance(), opts);
  if (!db.ok()) std::abort();
  size_t round = 0;
  for (auto _ : state) {
    if (!db->Append(MakeBatch(u, round++, kWalBatch)).ok()) std::abort();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  db->Close();
  RemoveTree(dir);
}
BENCHMARK(BM_WalCommit)
    ->Arg(static_cast<int>(storage::SyncMode::kAlways))
    ->Arg(static_cast<int>(storage::SyncMode::kInterval))
    ->Arg(static_cast<int>(storage::SyncMode::kNever));

void BM_ColdOpen(benchmark::State& state) {
  size_t facts = static_cast<size_t>(state.range(0));
  std::string dir = MakeTempDir("bm_open");
  {
    Universe u;
    Database::OpenOptions opts;
    opts.data_dir = dir;
    Result<Database> db = Database::Open(u, MakeFacts(u, facts), opts);
    if (!db.ok()) std::abort();
    db->Close();
  }
  for (auto _ : state) {
    Universe u;
    Database::OpenOptions opts;
    opts.data_dir = dir;
    Result<Database> db = Database::Open(u, opts);
    if (!db.ok()) std::abort();
    benchmark::DoNotOptimize(db->NumFacts());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(facts));
  RemoveTree(dir);
}
BENCHMARK(BM_ColdOpen)->Arg(10'000)->Arg(50'000);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  seqdl::PrintTables(json);
  if (json) return 0;  // machine-readable mode: tables only, no harness
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
