// Durability costs, measured: WAL commit throughput under each fsync
// policy, cold recovery (`Database::Open(dir)`) versus parsing and
// re-ingesting the same facts, and query latency on a recovered
// database versus a never-persisted one. Prints comparison tables and
// then runs the google-benchmark timers; `--json` instead emits one
// machine-readable document (for the nightly difftest workflow's
// regression record) and skips the benchmark harness.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/instance.h"
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

void PrintTables(bool json) {
  std::vector<WalPolicyResult> wal;
  wal.push_back(MeasureWalPolicy(storage::SyncMode::kAlways, "always",
                                 kWalCommits, kWalBatch));
  wal.push_back(MeasureWalPolicy(storage::SyncMode::kInterval, "interval",
                                 kWalCommits, kWalBatch));
  wal.push_back(MeasureWalPolicy(storage::SyncMode::kNever, "never",
                                 kWalCommits, kWalBatch));
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
