// The Universe's path store: heap bytes each interned path costs, and the
// time of an InternPath hit and miss and of an InternAtom hit.
//
// The table printed first interns 1M distinct paths of 2, 8 and 32 values
// into a fresh Universe and divides the heap growth by the path count.
// Heap bytes are glibc's mallinfo2 `uordblks + hblkhd`: bytes in use from
// the heap proper plus the mmapped blocks, where large tables live.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "src/term/universe.h"

namespace seqdl {
namespace {

constexpr size_t kAtoms = 1024;

// The name of atom `a`: "a0", "a1", ...
std::string AtomName(size_t a) {
  std::string name = "a";
  name += std::to_string(a);
  return name;
}

// Interns kAtoms atoms into `u`: their ids are 0..kAtoms-1 in any Universe.
void InternAtoms(Universe& u) {
  for (size_t a = 0; a < kAtoms; ++a) u.InternAtom(AtomName(a));
}

// Writes path i of `len` values into `out`: its first two values spell i
// in base kAtoms, so up to kAtoms^2 (1M) paths are distinct.
void FillPath(size_t i, std::span<Value> out) {
  for (size_t k = 0; k < out.size(); ++k) {
    size_t digit = k < 2 ? (i >> (10 * k)) % kAtoms
                         : (i * 2654435761u + k * 40503u) % kAtoms;
    out[k] = Value::Atom(static_cast<AtomId>(digit));
  }
}

size_t HeapBytes() {
  struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

void PrintBytesPerPath() {
  constexpr size_t kPaths = 1000000;
  std::printf("=== Universe: heap bytes per interned path (%zu distinct "
              "paths) ===\n",
              kPaths);
  std::printf("%8s %16s %16s\n", "values", "bytes of values", "bytes spent");
  for (size_t len : {2, 8, 32}) {
    std::vector<Value> values(len);
    size_t before;
    {
      Universe u;
      InternAtoms(u);
      before = HeapBytes();
      for (size_t i = 0; i < kPaths; ++i) {
        FillPath(i, values);
        u.InternPath(values);
      }
      double spent = static_cast<double>(HeapBytes() - before) / kPaths;
      std::printf("%8zu %16zu %16.1f\n", len, len * sizeof(Value), spent);
    }
  }
  std::printf("\n");
}

// The paths an InternPath benchmark interns: `count` distinct paths of
// `len` values, laid out back to back.
std::vector<Value> PathBatch(size_t count, size_t len) {
  std::vector<Value> batch(count * len);
  for (size_t i = 0; i < count; ++i) {
    FillPath(i, std::span<Value>(batch).subspan(i * len, len));
  }
  return batch;
}

// Reports, as time_per_call, the time of one of the `calls_per_iteration`
// interning calls each iteration makes.
void SetTimePerCall(benchmark::State& state, size_t calls_per_iteration) {
  state.counters["time_per_call"] = benchmark::Counter(
      static_cast<double>(calls_per_iteration),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Hits: 4096 paths interned before timing, then looked up again.
void BM_InternPathHit(benchmark::State& state) {
  constexpr size_t kPaths = 4096;
  size_t len = static_cast<size_t>(state.range(0));
  std::vector<Value> batch = PathBatch(kPaths, len);
  std::span<const Value> all(batch);
  Universe u;
  InternAtoms(u);
  for (size_t i = 0; i < kPaths; ++i) u.InternPath(all.subspan(i * len, len));
  for (auto _ : state) {
    for (size_t i = 0; i < kPaths; ++i) {
      benchmark::DoNotOptimize(u.InternPath(all.subspan(i * len, len)));
    }
  }
  SetTimePerCall(state, kPaths);
}
BENCHMARK(BM_InternPathHit)->Arg(2)->Arg(8)->Arg(32);

// Misses: 65536 new paths into a fresh Universe per iteration, which is
// made and destroyed outside the timed region.
void BM_InternPathMiss(benchmark::State& state) {
  constexpr size_t kPaths = 65536;
  size_t len = static_cast<size_t>(state.range(0));
  std::vector<Value> batch = PathBatch(kPaths, len);
  std::span<const Value> all(batch);
  for (auto _ : state) {
    state.PauseTiming();
    {
      Universe u;
      InternAtoms(u);
      state.ResumeTiming();
      for (size_t i = 0; i < kPaths; ++i) {
        benchmark::DoNotOptimize(u.InternPath(all.subspan(i * len, len)));
      }
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  SetTimePerCall(state, kPaths);
}
BENCHMARK(BM_InternPathMiss)->Arg(2)->Arg(8)->Arg(32);

// Hits on the atom table, the lookup every parsed atom token makes.
void BM_InternAtomHit(benchmark::State& state) {
  Universe u;
  InternAtoms(u);
  std::vector<std::string> names;
  for (size_t a = 0; a < kAtoms; ++a) names.push_back(AtomName(a));
  for (auto _ : state) {
    for (const std::string& name : names) {
      benchmark::DoNotOptimize(u.InternAtom(name));
    }
  }
  SetTimePerCall(state, kAtoms);
}
BENCHMARK(BM_InternAtomHit);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintBytesPerPath();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
