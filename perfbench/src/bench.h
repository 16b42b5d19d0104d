// Shared pieces of the repo benchmark: run options, the result record
// every workload fills, the op log and the end-to-end figures taken from
// it, the span recorder of the traced run, and helpers of the in-process
// request path (encoded frame in, ServiceRequestHandler::Handle, reply
// frame out).
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/server.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Work directory inside the checkout (data directories, span dumps).
  std::string work_dir;
  /// When the process started (NowNs()); the run's time budget counts
  /// from here.
  int64_t start_ns = 0;
};

/// One printed metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload reports back to main().
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context printed beside the result (sample counts, sizes, drift).
  std::map<std::string, std::string> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a wrong answer; the first few are kept for the log.
  void Wrong(const std::string& what);
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& v, double q);

/// Median of a small sample (copied).
double Median(std::vector<double> v);

/// Every timed op of a run, in op order: start, end and class.
struct OpLog {
  enum Class : uint8_t { kRead = 0, kWrite = 1 };
  struct Entry {
    int64_t start;
    int64_t end;
    Class cls;
  };
  std::vector<Entry> ops;
  void Add(Class cls, int64_t start, int64_t end) { ops.push_back({start, end, cls}); }
};

/// How many rounds a pass plays. A round sets up a fresh node (one
/// setup_s sample) and plays the workload's op sequence once, so every
/// round does the same work from the same state: the figures do not
/// depend on how many rounds fit in the run, and neither does the memory
/// a round holds (the program cache never evicts, so a run that kept one
/// node would grow with its speed). The first `warmup` rounds are played
/// and checked but not measured.
struct RoundPlan {
  /// No round starts unless the previous round's length still fits
  /// before this instant.
  int64_t deadline_ns = 0;
  int warmup = 1;
  int min_rounds = 4;
  int max_rounds = 400;
};

/// Round counter of a pass:
///
///   for (Rounds rounds(plan); rounds.Next();) { ... }
class Rounds {
 public:
  explicit Rounds(const RoundPlan& plan) : plan_(plan) {}
  /// Starts the next round if the plan allows it.
  bool Next();
  bool measured() const { return index_ >= plan_.warmup; }

 private:
  RoundPlan plan_;
  int index_ = -1;
  int64_t begun_ns_ = 0;
  int64_t last_ns_ = 0;
};

/// What a node held at the end of a round: the state half of the
/// stationarity check.
struct RoundState {
  uint64_t live_facts = 0;
  uint64_t segments = 0;
  uint64_t cached_views = 0;
};

/// Mean op time of the log, in microseconds: with every op one Handle
/// call, the server.handle_us of the run.
double MeanUs(const OpLog& log);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();
/// Peak thread count seen so far by SampleThreads().
int PeakThreads();
/// Samples /proc/self/status Threads: into the peak.
void SampleThreads();

// --- Traced run --------------------------------------------------------------

/// Span recorder of the traced run: steady_clock spans with a name,
/// parent and op id, kept in memory and summarized (and dumped) at exit.
/// Off, every call is a branch and nothing is stored.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    int parent;
    uint32_t op;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }
  bool on() const { return on_; }

  /// Opens a span under this thread's innermost open span; returns its
  /// index, or -1 when tracing is off.
  int Begin(const char* name);
  /// Opens a span under an explicit parent (spans recorded on another
  /// thread, e.g. inside a shard server).
  int BeginChild(const char* name, int parent);
  void End(int id);
  /// Records an already-timed span under this thread's open span.
  void Record(const char* name, int64_t start, int64_t end);

  void set_op(uint32_t op) { op_.store(op, std::memory_order_relaxed); }
  /// Innermost open span of the calling thread (-1 if none).
  int Current() const;

  /// Mean self time per span (us) of every span name, plus
  /// trace.unaccounted_share: the share of root ("op") span time that no
  /// child span covers.
  void Summarize(Report* r) const;
  /// Writes every span as one tab-separated line.
  void Dump(const std::string& path) const;

 private:
  bool on_;
  std::atomic<uint32_t> op_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.Begin(name)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- Runs ----------------------------------------------------------------------

/// What one pass over a workload's op sequence produced.
struct PassResult {
  Report r;                        ///< correctness, op counts and context
  std::vector<double> setup_s;     ///< every round's set-up time
  std::vector<OpLog> rounds;       ///< the measured rounds' timed ops
  std::vector<RoundState> states;  ///< the measured rounds' end states
  std::vector<Metric> counts;      ///< the program's own per-layer counts, per round

  /// Median wall time of a measured round's timed phase.
  double RoundSeconds() const;
};

/// Adds the end-to-end metrics of a pass to `r`: setup_s (median over
/// every round), and the medians over the measured rounds of each
/// round's ops_per_s, read_p50_us and read_p95_us. A slow spell of the
/// host that covers a few rounds does not move a median. A tail
/// percentile is taken per round only when every round holds ten
/// samples beyond it; otherwise it is pooled over the rounds. The p99s
/// (read, write, every op), write_p50_us, sample counts, the values of
/// every round and the two halves of the stationarity check go to
/// r->info.
void AddEndToEnd(Report* r, const PassResult& p);

/// The per-layer report of a traced run: span self times of the traced
/// pass, the counts of the untraced pass (same op sequence, same service
/// calls), then counts only the traced pass has, and
/// trace.overhead_share, the traced round's extra wall time against an
/// untraced one. Writes the spans to the work directory.
Report LayerReport(const Options& o, const PassResult& base, const PassResult& traced,
                   const Tracer& t);

/// Runs `pass(tracer, plan)` untraced for the run's time budget; with
/// --trace 1 the untraced rounds get half of it and one traced round
/// follows, and the per-layer report is returned, else the end-to-end
/// one plus peak_rss_mb.
template <typename PassFn>
Report RunPasses(const Options& o, PassFn pass) {
  RoundPlan plan;
  int64_t budget_ns = static_cast<int64_t>(o.seconds) * 1'000'000'000;
  plan.deadline_ns = o.start_ns + (o.trace ? budget_ns / 2 : budget_ns);
  Tracer off(false);
  PassResult base = pass(off, plan);
  AddEndToEnd(&base.r, base);
  if (!o.trace) {
    base.r.Add("peak_rss_mb", PeakRssMb(), "MB");
    return base.r;
  }
  Tracer on(true);
  PassResult traced = pass(on, RoundPlan{0, 0, 1, 1});
  return LayerReport(o, base, traced, on);
}

// --- In-process request path -------------------------------------------------

/// Strips the u32 length prefix an encoder puts on a frame: what a server
/// worker hands to RequestHandler::Handle after reading the frame.
std::string PayloadOf(const std::string& frame);

/// The rendering carried by a `run` reply frame, or the reply's error.
seqdl::Result<std::string> RenderedOf(const std::string& frame);

/// FNV-1a 64 of a rendering (answers are checked by hash in the loop).
uint64_t Fnv(const std::string& s);

/// Filesystem type name of `path` (statfs f_type), e.g. "ext4", "tmpfs".
std::string FsType(const std::string& path);

void RemoveTree(const std::string& dir);

// --- Workloads (one file each) -----------------------------------------------

Report RunServeReads(const Options& o);
Report RunAdhocAnalytics(const Options& o);
Report RunDurableIngest(const Options& o);
Report RunClusterMix(const Options& o);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
