// Concurrency coverage for the Database/Session API and the thread-safe
// Universe: parallel session runs over one shared pre-indexed EDB must be
// byte-identical to sequential runs, and concurrent interning must
// hash-cons consistently across threads. All assertions happen on the
// main thread after joining (gtest assertions are not thread-safe);
// worker threads only record what they saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/index.h"
#include "src/engine/instance.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/workload/generators.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

constexpr size_t kThreads = 8;

// Deterministic per-thread generator (splitmix64), so runs reproduce.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

// --- Universe interning ------------------------------------------------------

TEST(UniverseConcurrencyTest, InterningStressAgreesAcrossThreads) {
  Universe u;
  // A shared pool of atoms interned before the threads start; the threads
  // then race to intern overlapping sets of paths built from them.
  constexpr size_t kAtoms = 12;
  std::vector<Value> atoms;
  for (size_t i = 0; i < kAtoms; ++i) {
    atoms.push_back(Value::Atom(u.InternAtom(Numbered("a", i))));
  }

  constexpr size_t kItersPerThread = 4000;
  // Each thread records (path contents as digit string) -> PathId.
  std::vector<std::map<std::string, PathId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng{t + 1};
      for (size_t i = 0; i < kItersPerThread; ++i) {
        size_t len = rng.Next() % 6;
        std::vector<Value> values;
        std::string key;
        for (size_t k = 0; k < len; ++k) {
          size_t a = rng.Next() % kAtoms;
          values.push_back(atoms[a]);
          key += static_cast<char>('A' + a);
        }
        PathId id = u.InternPath(values);
        seen[t][key] = id;
        // Round-trip through the lock-free read path while other threads
        // are still interning.
        std::span<const Value> got = u.GetPath(id);
        if (got.size() != values.size()) {
          seen[t][key] = static_cast<PathId>(-1);  // poison: caught below
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Equal contents must have interned to equal ids in every thread.
  std::map<std::string, PathId> combined;
  for (const auto& m : seen) {
    for (const auto& [key, id] : m) {
      ASSERT_NE(id, static_cast<PathId>(-1)) << "GetPath mismatch for " << key;
      auto [it, inserted] = combined.emplace(key, id);
      EXPECT_EQ(it->second, id) << "contents " << key
                                << " interned to two different ids";
    }
  }
  // And every id resolves back to its contents.
  for (const auto& [key, id] : combined) {
    std::span<const Value> got = u.GetPath(id);
    ASSERT_EQ(got.size(), key.size());
    for (size_t k = 0; k < key.size(); ++k) {
      EXPECT_EQ(got[k], atoms[static_cast<size_t>(key[k] - 'A')]);
    }
  }
  EXPECT_EQ(u.InternPath({}), kEmptyPath);
}

TEST(UniverseConcurrencyTest, ConcatAppendStress) {
  Universe u;
  PathId base = u.PathOfChars("ab");
  Value c = Value::Atom(u.InternAtom("c"));
  std::vector<PathId> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PathId p = base;
      for (int i = 0; i < 500; ++i) {
        p = u.Append(base, c);
        p = u.Concat(p, base);
        p = u.SubPath(p, 0, 3);
      }
      results[t] = p;
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t], results[0]);
  }
  EXPECT_EQ(u.FormatPath(results[0]), "a·b·c");
}

TEST(UniverseConcurrencyTest, AtomVarRelInterningStress) {
  Universe u;
  std::vector<std::vector<uint32_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        ids[t].push_back(u.InternAtom("atom" + std::to_string(i % 50)));
        ids[t].push_back(
            u.InternVar(VarKind::kPath, Numbered("v", i % 20)));
        Result<RelId> r = u.InternRel("Rel" + std::to_string(i % 10), 2);
        ids[t].push_back(r.ok() ? *r : static_cast<uint32_t>(-1));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  EXPECT_EQ(u.num_atoms(), 50u);
  EXPECT_EQ(u.num_vars(), 20u);
  EXPECT_EQ(u.num_rels(), 10u);
}

// The renderer holds the atom table's shared lock across a whole fact;
// writers that intern atoms (exclusive lock), paths and relations meanwhile
// must neither deadlock with it nor change what it renders.
TEST(UniverseConcurrencyTest, RenderWhileInterning) {
  Universe u;
  Result<Instance> inst = ParseInstance(
      u, "Mark(k1, a ++ <a ++ c ++ g> ++ t). Mark(k2, <<a> ++ eps> ++ c)."
         "Mark(k3, eps). Marked(k1). Marked(k2). Done.");
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  RelId mark = *u.FindRel("Mark");
  Value omega = Value::Atom(u.InternAtom("ω"));
  for (int i = 0; i < 200; ++i) {
    Value key = Value::Atom(u.InternAtom("key" + std::to_string(i)));
    Value packed = Value::Packed(u.InternPath(std::vector<Value>{omega, key}));
    inst->Add(mark, {u.SingletonPath(key),
                     u.InternPath(std::vector<Value>{key, packed, omega})});
  }
  const std::string full = inst->ToString(u);
  const std::string marks = inst->ToString(u, {&mark, 1});

  constexpr size_t kRenderers = 4, kInterners = 4, kRenders = 50;
  std::atomic<size_t> interning{0};
  std::atomic<bool> done{false};
  std::vector<size_t> mismatches(kRenderers, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kRenderers; ++t) {
    threads.emplace_back([&, t] {
      // Start only once every writer runs, so the renders overlap them.
      while (interning.load() < kInterners) std::this_thread::yield();
      for (size_t i = 0; i < kRenders; ++i) {
        mismatches[t] += inst->ToString(u) != full;
        mismatches[t] += inst->ToString(u, {&mark, 1}) != marks;
      }
    });
  }
  for (size_t t = 0; t < kInterners; ++t) {
    threads.emplace_back([&, t] {
      ++interning;
      for (size_t i = 0; i < 20000 && !done.load(); ++i) {
        std::string name = "fresh" + std::to_string(t) + "_";
        name += std::to_string(i);
        Value a = Value::Atom(u.InternAtom(name));
        u.InternPath(std::vector<Value>{a, omega, a});
        u.FreshAtom("f");
        (void)u.InternRel("F" + name, 1);
      }
    });
  }
  for (size_t t = 0; t < kRenderers; ++t) threads[t].join();
  done = true;
  for (size_t t = kRenderers; t < threads.size(); ++t) threads[t].join();
  for (size_t t = 0; t < kRenderers; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "renderer " << t;
  }
  EXPECT_EQ(inst->ToString(u), full);
}

// Eight threads intern the same 6,000 paths in different orders: 1-300
// values each, and every 50th 5,000 values, longer than one arena chunk
// (4096 values). That grows every shard's id table (64 slots at first)
// several times and rolls its arena over to new chunks, all while the
// table is contended. Two readers meanwhile resolve ids the interning
// threads hand over and compare the contents.
TEST(UniverseConcurrencyTest, InternRacesTableGrowthAndChunkRollover) {
  Universe u;
  constexpr size_t kAtoms = 16;
  std::vector<Value> atoms;
  for (size_t i = 0; i < kAtoms; ++i) {
    atoms.push_back(Value::Atom(u.InternAtom(Numbered("a", i))));
  }
  constexpr size_t kPaths = 6000;
  auto contents = [&atoms](size_t i) {
    Rng rng{i + 1};
    size_t len = i % 50 == 49 ? 5000 : 1 + rng.Next() % 300;
    std::vector<Value> values;
    for (size_t k = 0; k < len; ++k) {
      values.push_back(atoms[rng.Next() % kAtoms]);
    }
    return values;
  };

  constexpr PathId kUnset = ~PathId{0};
  std::vector<std::atomic<PathId>> handed(kPaths);
  for (std::atomic<PathId>& h : handed) h.store(kUnset);
  std::vector<std::vector<PathId>> ids(kThreads,
                                       std::vector<PathId>(kPaths, kUnset));
  constexpr size_t kReaders = 2;
  std::vector<size_t> checked(kReaders, 0), mismatches(kReaders, 0);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread t starts at its own offset and strides by its own step
      // prime to kPaths, so every thread visits every path, and the
      // threads race on different paths at first and on the same ones
      // later.
      static constexpr size_t kSteps[kThreads] = {1, 7, 11, 13, 17, 19, 23,
                                                  29};
      for (size_t k = 0; k < kPaths; ++k) {
        size_t i = (t * 751 + k * kSteps[t]) % kPaths;
        PathId id = u.InternPath(contents(i));
        ids[t][i] = id;
        handed[i].store(id, std::memory_order_release);
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng{100 + r};
      while (!done.load(std::memory_order_acquire)) {
        size_t i = rng.Next() % kPaths;
        PathId id = handed[i].load(std::memory_order_acquire);
        if (id == kUnset) continue;
        std::vector<Value> want = contents(i);
        std::span<const Value> got = u.GetPath(id);
        if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
          ++mismatches[r];
        }
        ++checked[r];
      }
    });
  }
  for (size_t t = 0; t < kThreads; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kThreads; t < threads.size(); ++t) threads[t].join();

  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(mismatches[r], 0u) << "reader " << r;
    EXPECT_GT(checked[r], 0u) << "reader " << r;
  }
  // Every thread got one id per path, and equal contents share it.
  std::map<std::vector<Value>, PathId> by_contents;
  for (size_t i = 0; i < kPaths; ++i) {
    for (size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(ids[t][i], ids[0][i]) << "path " << i << ", thread " << t;
    }
    std::vector<Value> want = contents(i);
    auto [it, inserted] = by_contents.emplace(want, ids[0][i]);
    EXPECT_EQ(it->second, ids[0][i]) << "path " << i;
    std::span<const Value> got = u.GetPath(ids[0][i]);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "path " << i;
  }
  // Distinct contents got distinct ids: the store holds each once.
  std::set<PathId> distinct;
  for (const auto& [values, id] : by_contents) distinct.insert(id);
  EXPECT_EQ(distinct.size(), by_contents.size());
  EXPECT_EQ(u.num_paths(), by_contents.size() + 1);  // + the empty path
}

// --- Index builds ------------------------------------------------------------

// kThreads threads race to first-probe the same unbuilt (relation, column,
// family) index of one shared store, then probe every other family in a
// thread-specific order, so first builds of different families race too.
// Each index builds once, and every thread gets exactly the rows a scan
// keeps.
TEST(IndexConcurrencyTest, FirstProbesRace) {
  Universe u;
  RelId rel = *u.InternRel("R", 2);
  constexpr size_t kKeys = 16;
  std::vector<Value> atoms;
  for (size_t i = 0; i < kKeys; ++i) {
    atoms.push_back(Value::Atom(u.InternAtom(Numbered("k", i))));
  }
  Instance facts;
  Rng rng{7};
  for (size_t i = 0; i < 4000; ++i) {
    std::vector<Value> pair = {atoms[rng.Next() % kKeys],
                               atoms[rng.Next() % kKeys]};
    std::vector<Value> one = {atoms[rng.Next() % kKeys]};
    facts.Add(rel, {u.InternPath(pair), u.InternPath(one)});
  }
  const IndexedStore store(u, std::move(facts));
  const TupleSet& tuples = store.Tuples(rel);

  // Every (column, family), probed by the key of the first row.
  struct Probe {
    uint32_t col;
    IndexFamily family;
    uint32_t key;
  };
  std::vector<Probe> probes;
  for (uint32_t col = 0; col < 2; ++col) {
    for (IndexFamily family : kIndexFamilies) {
      probes.push_back(
          {col, family, *FamilyKey(u, family, tuples.Row(0)[col])});
    }
  }
  auto sorted_rows = [](auto&& rows) {
    std::vector<Tuple> out;
    for (TupleRef t : rows) out.emplace_back(t.begin(), t.end());
    std::sort(out.begin(), out.end());
    return out;
  };

  std::vector<std::vector<std::vector<Tuple>>> got(
      kThreads, std::vector<std::vector<Tuple>>(probes.size()));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t i = 0; i < probes.size(); ++i) {
        size_t k = i == 0 ? 0 : 1 + (i - 1 + t) % (probes.size() - 1);
        const Probe& p = probes[k];
        got[t][k] = sorted_rows(store.Probe(rel, p.col, p.family, p.key));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(store.NumIndexedFamilies(), probes.size());
  for (size_t k = 0; k < probes.size(); ++k) {
    const Probe& p = probes[k];
    std::vector<Tuple> want;
    for (TupleRef t : tuples) {
      if (FamilyKey(u, p.family, t[p.col]) == p.key) {
        want.emplace_back(t.begin(), t.end());
      }
    }
    std::sort(want.begin(), want.end());
    ASSERT_FALSE(want.empty());
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t][k], want) << "thread " << t << " probe " << k;
    }
  }
}

// --- Database/Session --------------------------------------------------------

TEST(DatabaseConcurrencyTest, ParallelSessionRunsMatchSequential) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 24;
  gw.edges = 48;
  gw.seed = 7;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  // Sequential reference (also exercises the lazy base index build before
  // the threads arrive — and again from cold in a fresh Database below).
  Result<Instance> reference = db->Snapshot().Run(*prog);
  ASSERT_TRUE(reference.ok());
  std::string reference_text = reference->ToString(u);
  ASSERT_FALSE(reference_text.empty());

  constexpr size_t kRunsPerThread = 3;
  std::vector<std::string> outputs(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session = db->Snapshot();
      for (size_t r = 0; r < kRunsPerThread; ++r) {
        Result<Instance> out = session.Run(*prog);
        if (!out.ok()) {
          errors[t] = out.status().ToString();
          return;
        }
        std::string text = out->ToString(u);
        if (r == 0) {
          outputs[t] = text;
        } else if (text != outputs[t]) {
          errors[t] = "run " + std::to_string(r) + " differed from run 0";
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
    // Byte-identical to the sequential run.
    EXPECT_EQ(outputs[t], reference_text) << "thread " << t;
  }
}

TEST(DatabaseConcurrencyTest, ConcurrentStatsCollectionAndReads) {
  // Threads race stats-collecting runs (each records derived-fact
  // measurements into the Database's accumulator) against Database::Stats()
  // readers (which merge the call_once-cached base measurement with an
  // accumulator snapshot) and stats-driven compiles. Everything must stay
  // data-race free and every run byte-identical.
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 16;
  gw.edges = 32;
  gw.seed = 11;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  Result<Instance> reference = db->Snapshot().Run(*prog);
  ASSERT_TRUE(reference.ok());
  std::string reference_text = reference->ToString(u);

  constexpr size_t kRunsPerThread = 3;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session = db->Snapshot();
      RunOptions opts;
      opts.collect_derived_stats = true;
      for (size_t r = 0; r < kRunsPerThread; ++r) {
        // Interleave accumulator writes (the run), snapshot reads, and a
        // stats-driven compile + run.
        EvalStats stats;
        Result<Instance> out = session.Run(*prog, opts, &stats);
        if (!out.ok()) {
          errors[t] = out.status().ToString();
          return;
        }
        if (out->ToString(u) != reference_text) {
          errors[t] = "stats-collecting run differed";
          return;
        }
        StoreStats snapshot = db->Stats();
        if (snapshot.NumRelations() == 0) {
          errors[t] = "Stats() saw no relations";
          return;
        }
        Result<PreparedProgram> planned = db->Compile(q->program);
        if (!planned.ok()) {
          errors[t] = planned.status().ToString();
          return;
        }
        Result<Instance> planned_out = session.Run(*planned);
        if (!planned_out.ok()) {
          errors[t] = planned_out.status().ToString();
          return;
        }
        if (planned_out->ToString(u) != reference_text) {
          errors[t] = "selectivity-planned run differed";
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  // After the joins, the accumulator holds every collecting run's derived
  // relation (reach_ab's IDB), merged into the base EDB measurements.
  StoreStats final_stats = db->Stats();
  EXPECT_GT(final_stats.NumRelations(), db->base().Stats().NumRelations());
}

TEST(DatabaseConcurrencyTest, ColdDatabaseRacesIndexBuild) {
  // No sequential warm-up run: all threads hit the lazy call_once index
  // build simultaneously.
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 16;
  gw.edges = 32;
  gw.seed = 3;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  Instance edb_copy = *in;
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());

  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<Instance> out = db->Snapshot().Run(*prog);
      outputs[t] = out.ok() ? out->ToString(u) : out.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();

  // Reference computed afterwards by Run on an instance (derived facts =
  // full result minus the EDB).
  Result<Instance> full = prog->Run(edb_copy);
  ASSERT_TRUE(full.ok());
  std::set<RelId> idb = IdbRels(prog->program());
  std::string reference =
      full->Project({idb.begin(), idb.end()}).ToString(u);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outputs[t], reference) << "thread " << t;
  }
}

TEST(DatabaseConcurrencyTest, DistinctProgramsShareOneDatabase) {
  Universe u;
  Result<Program> reach = ParseProgram(
      u,
      "Reach($x, $y) <- R($x ++ $y).\n"
      "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  ASSERT_TRUE(reach.ok());
  Result<Program> loops = ParseProgram(u, "Loop($x) <- R($x ++ $x).");
  ASSERT_TRUE(loops.ok());
  Result<Instance> in = ParseInstance(
      u, "R(a ++ b). R(b ++ c). R(c ++ a). R(d ++ d).");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> p1 = Engine::Compile(u, std::move(*reach));
  Result<PreparedProgram> p2 = Engine::Compile(u, std::move(*loops));
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());

  std::string ref1 = db->Snapshot().Run(*p1)->ToString(u);
  std::string ref2 = db->Snapshot().Run(*p2)->ToString(u);
  ASSERT_FALSE(ref1.empty());
  ASSERT_FALSE(ref2.empty());

  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const PreparedProgram& prog = (t % 2 == 0) ? *p1 : *p2;
      Result<Instance> out = db->Snapshot().Run(prog);
      outputs[t] = out.ok() ? out->ToString(u) : out.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outputs[t], t % 2 == 0 ? ref1 : ref2) << "thread " << t;
  }
}

TEST(DatabaseConcurrencyTest, SessionRejectsForeignUniverse) {
  Universe u1, u2;
  Result<Instance> in = ParseInstance(u1, "R(a).");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u1, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<Program> p = ParseProgram(u2, "S($x) <- R($x).");
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = Engine::Compile(u2, std::move(*p));
  ASSERT_TRUE(prog.ok());
  Result<Instance> out = db->Snapshot().Run(*prog);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// --- Epochs: ingest vs snapshots ---------------------------------------------

// A snapshot pinned at epoch k returns byte-identical results before,
// during, and after later Append/Commit/Compact — and matches a fresh
// Database::Open on exactly epoch k's facts.
TEST(EpochConcurrencyTest, SnapshotsPinTheirEpochAcrossAppendAndCompact) {
  Universe u;
  Result<Program> p = ParseProgram(
      u,
      "Reach($x, $y) <- R($x ++ $y).\n"
      "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(*p));
  ASSERT_TRUE(prog.ok());
  Result<Instance> first = ParseInstance(u, "R(a ++ b). R(b ++ c).");
  Result<Instance> second = ParseInstance(u, "R(c ++ d).");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  Result<Database> db = Database::Open(u, *first);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->epoch(), 0u);
  Session at0 = db->Snapshot();
  Result<Instance> before = at0.Run(*prog);
  ASSERT_TRUE(before.ok());
  std::string at0_text = before->ToString(u);

  // Cold-open references for both epochs.
  Result<Database> cold0 = Database::Open(u, *first);
  ASSERT_TRUE(cold0.ok());
  EXPECT_EQ(cold0->Snapshot().Run(*prog)->ToString(u), at0_text);
  Instance merged = *first;
  merged.UnionWith(*second);
  Result<Database> cold1 = Database::Open(u, merged);
  ASSERT_TRUE(cold1.ok());
  std::string at1_text = cold1->Snapshot().Run(*prog)->ToString(u);
  ASSERT_NE(at0_text, at1_text);

  // Append publishes epoch 1; the pinned snapshot still reads epoch 0.
  Result<uint64_t> epoch = db->Append(*second);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(db->NumSegments(), 2u);
  EXPECT_EQ(at0.epoch(), 0u);
  EXPECT_EQ(at0.Run(*prog)->ToString(u), at0_text);
  Session at1 = db->Snapshot();
  EXPECT_EQ(at1.epoch(), 1u);
  EXPECT_EQ(at1.Run(*prog)->ToString(u), at1_text);

  // Compaction folds the stack without moving the epoch; both pinned
  // snapshots are unaffected, and new snapshots see the merged store.
  EXPECT_TRUE(*db->Compact());
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(at0.NumSegments(), 1u);
  EXPECT_EQ(at1.NumSegments(), 2u);  // the pre-compaction stack, pinned
  EXPECT_EQ(at0.Run(*prog)->ToString(u), at0_text);
  EXPECT_EQ(at1.Run(*prog)->ToString(u), at1_text);
  EXPECT_EQ(db->Snapshot().Run(*prog)->ToString(u), at1_text);
  // Nothing left to fold.
  EXPECT_FALSE(*db->Compact());
}

// One writer thread commits batches while reader threads open snapshots
// and run; every reader must see some prefix epoch's exact results. The
// per-epoch references are computed from cold opens after the fact.
TEST(EpochConcurrencyTest, WriterRacesSnapshotReaders) {
  Universe u;
  Result<Program> p = ParseProgram(
      u,
      "Reach($x, $y) <- R($x ++ $y).\n"
      "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(*p));
  ASSERT_TRUE(prog.ok());

  // A chain a0 -> a1 -> ... appended one edge per commit: every epoch has
  // a distinct Reach closure.
  constexpr size_t kCommits = 12;
  std::vector<Instance> batches;
  RelId r = *u.InternRel("R", 1);
  for (size_t i = 0; i <= kCommits; ++i) {
    Value from = Value::Atom(u.InternAtom("n" + std::to_string(i)));
    Value to = Value::Atom(u.InternAtom("n" + std::to_string(i + 1)));
    std::vector<Value> edge = {from, to};
    Instance batch;
    batch.Add(r, {u.InternPath(edge)});
    batches.push_back(std::move(batch));
  }

  Result<Database> db = Database::Open(u, batches[0]);
  ASSERT_TRUE(db.ok());

  struct Observation {
    uint64_t epoch;
    std::string text;
  };
  std::vector<std::vector<Observation>> seen(kThreads - 1);
  std::vector<std::string> errors(kThreads - 1);

  std::vector<std::thread> threads;
  // Writer: append the remaining batches one commit each, compacting
  // halfway to race segment retirement against the readers.
  threads.emplace_back([&] {
    for (size_t i = 1; i < batches.size(); ++i) {
      if (!db->Append(batches[i]).ok()) return;
      if (i == batches.size() / 2) db->Compact();
    }
  });
  // Readers: snapshot, run twice, record (epoch, bytes). Assertions
  // happen on the main thread after joining.
  for (size_t t = 0; t + 1 < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 6; ++i) {
        Session snap = db->Snapshot();
        Result<Instance> out1 = snap.Run(*prog);
        Result<Instance> out2 = snap.Run(*prog);
        if (!out1.ok() || !out2.ok()) {
          errors[t] = (out1.ok() ? out2 : out1).status().ToString();
          return;
        }
        std::string text = out1->ToString(u);
        if (text != out2->ToString(u)) {
          errors[t] = "re-run of one snapshot differed";
          return;
        }
        seen[t].push_back({snap.epoch(), std::move(text)});
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Cold-open reference per epoch.
  std::vector<std::string> reference;
  Instance accumulated;
  for (size_t i = 0; i < batches.size(); ++i) {
    accumulated.UnionWith(batches[i]);
    Result<Database> cold = Database::Open(u, accumulated);
    ASSERT_TRUE(cold.ok());
    Result<Instance> out = cold->Snapshot().Run(*prog);
    ASSERT_TRUE(out.ok());
    reference.push_back(out->ToString(u));
  }

  for (size_t t = 0; t + 1 < kThreads; ++t) {
    ASSERT_TRUE(errors[t].empty()) << "reader " << t << ": " << errors[t];
    for (const Observation& o : seen[t]) {
      ASSERT_LT(o.epoch, reference.size()) << "reader " << t;
      EXPECT_EQ(o.text, reference[o.epoch])
          << "reader " << t << " at epoch " << o.epoch;
    }
  }
  EXPECT_EQ(db->epoch(), kCommits);
}

// Concurrent stats reads and stats-driven compiles stay safe while the
// epoch moves underneath them.
TEST(EpochConcurrencyTest, StatsAndCompileRaceIngest) {
  Universe u;
  Result<Program> p = ParseProgram(u, "Loop($x) <- R($x ++ $x).");
  ASSERT_TRUE(p.ok());
  Program program = *p;
  Result<Instance> in = ParseInstance(u, "R(a ++ a). R(a ++ b).");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());

  RelId r = *u.FindRel("R");
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (size_t i = 0; i < 16; ++i) {
      Value x = Value::Atom(u.InternAtom(Numbered("x", i)));
      std::vector<Value> loop = {x, x};
      Instance batch;
      batch.Add(r, {u.InternPath(loop)});
      if (!db->Append(std::move(batch)).ok()) return;
      if (i % 5 == 4) db->Compact();
    }
  });
  for (size_t t = 1; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 8; ++i) {
        StoreStats stats = db->Stats();
        if (stats.NumRelations() == 0) {
          errors[t] = "Stats() saw no relations";
          return;
        }
        Result<PreparedProgram> planned = db->Compile(program);
        if (!planned.ok()) {
          errors[t] = planned.status().ToString();
          return;
        }
        Session snap = db->Snapshot();
        RunOptions opts;
        opts.collect_derived_stats = true;
        Result<Instance> out = snap.Run(*planned, opts);
        if (!out.ok()) {
          errors[t] = out.status().ToString();
          return;
        }
        // Within one snapshot, loops == facts whose path is x·x; the
        // count must match the pinned EDB regardless of racing appends.
        // (edb() materializes a copy: keep it alive past the loop.)
        Instance edb = snap.edb();
        size_t loops = 0;
        for (TupleRef tup : edb.Tuples(r)) {
          std::span<const Value> path = u.GetPath(tup[0]);
          if (path.size() == 2 && path[0] == path[1]) ++loops;
        }
        if (out->NumFacts() != loops) {
          errors[t] = "derived loop count diverged from pinned EDB";
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
}

// PreparedProgram::Run on an instance is thread-safe too: each Run builds
// its own throwaway base, and the shared Universe interns with
// synchronization.
TEST(DatabaseConcurrencyTest, LegacyPreparedRunsAreThreadSafe) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 12;
  gw.edges = 24;
  gw.seed = 11;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  Result<Instance> reference = prog->Run(*in);
  ASSERT_TRUE(reference.ok());
  std::string reference_text = reference->ToString(u);

  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<Instance> out = prog->Run(*in);
      outputs[t] = out.ok() ? out->ToString(u) : out.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outputs[t], reference_text) << "thread " << t;
  }
}

}  // namespace
}  // namespace seqdl
