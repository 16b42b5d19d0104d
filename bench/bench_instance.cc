// Instances: heap bytes each stored tuple costs, the time to add, look up,
// copy and destroy tuples, and the small freed blocks a destroyed instance
// leaves in the allocator.
//
// The tables printed first fill one relation with 1M distinct tuples of
// arity 1, 2 and 3 and divide the heap growth by the tuple count. Heap
// bytes are glibc's mallinfo2 `uordblks + hblkhd`: bytes in use from the
// heap proper plus the mmapped blocks, where large tables live. The
// second table counts the fastbin blocks (mallinfo2 `smblks`) that
// destroying an instance of 500 binary tuples leaves: glibc consolidates
// them on the next allocation of 1 KB or more, so whoever allocates next
// pays for them. The benchmarks then time one tuple's add and lookup, and
// a whole instance's copy and destruction, at 500, 36,000 and 1,000,000
// tuples of each arity.
//
// Tuples are made of interned one-value paths, interned in sequence:
// arity 1 takes path i for tuple i; arities 2 and 3 take the pair
// (i mod 2000, i / 2000) of the first 2,000 paths, and arity 3 adds path
// i mod 7.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/engine/instance.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

constexpr size_t kMaxTuples = 1000000;
constexpr size_t kPairPaths = 2000;

// The paths tuples are made of, interned once for every benchmark.
struct Paths {
  Universe u;
  std::vector<PathId> ids;
  Paths() {
    ids.reserve(kMaxTuples);
    for (size_t i = 0; i < kMaxTuples; ++i) {
      const Value v = Value::Atom(static_cast<AtomId>(i));
      ids.push_back(u.InternPath({&v, 1}));
    }
  }
};

Paths& SharedPaths() {
  static Paths* paths = new Paths;
  return *paths;
}

// Writes tuple i of `arity` values into `t` (see the file comment).
void FillTuple(const std::vector<PathId>& ids, uint32_t arity, size_t i,
               Tuple* t) {
  t->clear();
  if (arity == 1) {
    t->push_back(ids[i]);
    return;
  }
  t->push_back(ids[i % kPairPaths]);
  t->push_back(ids[i / kPairPaths]);
  if (arity == 3) t->push_back(ids[i % 7]);
}

// An instance of `n` tuples of `arity` in relation `rel`.
Instance MakeInstance(RelId rel, uint32_t arity, size_t n) {
  const std::vector<PathId>& ids = SharedPaths().ids;
  Instance inst;
  Tuple t;
  for (size_t i = 0; i < n; ++i) {
    FillTuple(ids, arity, i, &t);
    inst.Add(rel, t);
  }
  return inst;
}

// Relation "R<arity>". Its name is appended into a named string: GCC 12
// at -O3 reports a false -Wrestrict on `"literal" + <temporary string>`.
RelId RelOfArity(uint32_t arity) {
  std::string name = "R";
  name += std::to_string(arity);
  return *SharedPaths().u.InternRel(name, arity);
}

size_t HeapBytes() {
  struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

// An allocation of 1 KB or more, freed at once: glibc consolidates its
// fastbins first, so afterwards they are empty.
void ConsolidateFastbins() {
  void* p = std::malloc(4096);
  benchmark::DoNotOptimize(p);
  std::free(p);
}

void PrintTables() {
  SharedPaths();
  std::printf("=== Instance: heap bytes per tuple (%zu distinct tuples) ===\n",
              kMaxTuples);
  std::printf("%8s %16s %16s\n", "arity", "bytes of values", "bytes spent");
  for (uint32_t arity : {1u, 2u, 3u}) {
    RelId rel = RelOfArity(arity);
    size_t before = HeapBytes();
    Instance inst = MakeInstance(rel, arity, kMaxTuples);
    double spent = static_cast<double>(HeapBytes() - before) / kMaxTuples;
    std::printf("%8u %16zu %16.1f\n", arity, arity * sizeof(PathId), spent);
  }
  std::printf("\n");

  constexpr size_t kSmall = 500;
  size_t left;
  {
    Instance inst = MakeInstance(RelOfArity(2), 2, kSmall);
    ConsolidateFastbins();
    size_t before = mallinfo2().smblks;
    { Instance doomed = std::move(inst); }
    left = mallinfo2().smblks - before;
  }
  std::printf("=== Instance: fastbin blocks a destroyed instance of %zu "
              "binary tuples leaves ===\n%zu\n\n",
              kSmall, left);
}

// Reports, as time_per_tuple, the time per tuple of an iteration that
// handles `tuples` tuples.
void SetTimePerTuple(benchmark::State& state, size_t tuples) {
  state.counters["time_per_tuple"] = benchmark::Counter(
      static_cast<double>(tuples),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Adds n new tuples to an empty instance, which is destroyed outside the
// timed region.
void BM_Add(benchmark::State& state) {
  const uint32_t arity = static_cast<uint32_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<PathId>& ids = SharedPaths().ids;
  const RelId rel = RelOfArity(arity);
  Tuple t;
  for (auto _ : state) {
    {
      Instance inst;
      for (size_t i = 0; i < n; ++i) {
        FillTuple(ids, arity, i, &t);
        benchmark::DoNotOptimize(inst.Add(rel, t));
      }
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  SetTimePerTuple(state, n);
}

// Looks up each of an instance's n tuples.
void BM_Contains(benchmark::State& state) {
  const uint32_t arity = static_cast<uint32_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<PathId>& ids = SharedPaths().ids;
  const RelId rel = RelOfArity(arity);
  const Instance inst = MakeInstance(rel, arity, n);
  Tuple t;
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      FillTuple(ids, arity, i, &t);
      benchmark::DoNotOptimize(inst.Contains(rel, t));
    }
  }
  SetTimePerTuple(state, n);
}

// Copies an instance of n tuples; the copy is destroyed outside the timed
// region.
void BM_Copy(benchmark::State& state) {
  const uint32_t arity = static_cast<uint32_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const Instance inst = MakeInstance(RelOfArity(arity), arity, n);
  for (auto _ : state) {
    {
      Instance copy = inst;
      benchmark::DoNotOptimize(copy);
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  SetTimePerTuple(state, n);
}

// Destroys an instance of n tuples, copied outside the timed region.
void BM_Destroy(benchmark::State& state) {
  const uint32_t arity = static_cast<uint32_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const Instance inst = MakeInstance(RelOfArity(arity), arity, n);
  for (auto _ : state) {
    state.PauseTiming();
    {
      Instance copy = inst;
      benchmark::DoNotOptimize(copy);
      state.ResumeTiming();
    }
  }
  SetTimePerTuple(state, n);
}

void Sizes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"arity", "tuples"});
  b->ArgsProduct({{1, 2, 3}, {500, 36000, static_cast<int64_t>(kMaxTuples)}});
}

BENCHMARK(BM_Add)->Apply(Sizes);
BENCHMARK(BM_Contains)->Apply(Sizes);
BENCHMARK(BM_Copy)->Apply(Sizes);
BENCHMARK(BM_Destroy)->Apply(Sizes);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
