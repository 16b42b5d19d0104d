// The repo benchmark's workload runner. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// and prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1). The line before it is a
// JSON object of context: build and host facts, sample counts, sizes and
// the stationarity check. perfbench/run.py builds this binary and runs it.
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

/// The build guard: numbers only come from an optimized, assertion-free,
/// sanitizer-free build. Returns the reason to refuse, or "".
std::string BuildRefusal() {
#ifndef NDEBUG
  return "NDEBUG is not defined (assertions are compiled in)";
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "build type '" + type + "'";
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos) {
    return "sanitizer build";
  }
  return "";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool HardwareCounters() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

/// Nanoseconds per step of a dependent random walk over 32 MiB, taken
/// before the workload: the memory speed the run met. The last-level
/// cache of a shared host can be contended by other tenants for minutes
/// at a time, which slows the engine far more than plain arithmetic; the
/// probe tells such runs apart.
double MemoryProbeNs() {
  std::vector<uint32_t> next(8u << 20);
  std::iota(next.begin(), next.end(), 0u);
  std::mt19937 rng(1);
  // Sattolo's shuffle: a single cycle through every slot.
  for (size_t i = next.size() - 1; i > 0; --i) std::swap(next[i], next[rng() % i]);
  constexpr int kSteps = 500'000;
  uint32_t x = 0;
  int64_t t0 = NowNs();
  for (int i = 0; i < kSteps; ++i) x = next[x];
  int64_t t1 = NowNs();
  if (x == next.size()) std::abort();  // keeps the walk observable
  return static_cast<double>(t1 - t0) / kSteps;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_reads|adhoc_analytics|"
               "durable_ingest|cluster_mix --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  o.start_ns = NowNs();
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atoi(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--work-dir") o.work_dir = v;
    else return Usage();
  }
  if (o.workload.empty() || o.work_dir.empty() || o.seconds < 1) return Usage();
  if (std::string why = BuildRefusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from this build: %s\n", why.c_str());
    return 3;
  }

  double probe_ns = MemoryProbeNs();
  Report r;
  if (o.workload == "serve_reads") r = RunServeReads(o);
  else if (o.workload == "adhoc_analytics") r = RunAdhocAnalytics(o);
  else if (o.workload == "durable_ingest") r = RunDurableIngest(o);
  else if (o.workload == "cluster_mix") r = RunClusterMix(o);
  else return Usage();
  SampleThreads();

  r.info["build_type"] = PERFBENCH_BUILD_TYPE;
  r.info["compiler"] = __VERSION__;
  r.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.info["cpu_model"] = CpuModel();
  r.info["hw_counters"] = HardwareCounters() ? "yes" : "no";
  r.info["peak_threads"] = std::to_string(PeakThreads());
  r.info["host_memory_probe_ns"] = std::to_string(probe_ns);
  r.info["seed"] = std::to_string(o.seed);
  {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    r.info["minor_faults"] = std::to_string(ru.ru_minflt);
    r.info["user_s"] = std::to_string(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6);
    r.info["sys_s"] = std::to_string(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
    r.info["context_switches"] = std::to_string(ru.ru_nvcsw) + " voluntary, " + std::to_string(ru.ru_nivcsw) + " involuntary";
  }
  if (r.info.count("data_dir_fs") == 0) r.info["data_dir_fs"] = "none (in-memory)";

  std::string info = "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    info += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  std::printf("%s}}\n", info.c_str());

  std::string out = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  std::set<std::string> seen;
  first = true;
  for (const Metric& m : r.metrics) {
    if (!seen.insert(m.name).second) continue;
    out += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
