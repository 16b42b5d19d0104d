#include "perfbench/src/bench.h"

#include <sys/statfs.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

void Report::Wrong(const std::string& what) {
  if (correct || info["wrong_answers"].size() < 400) {
    info["wrong_answers"] += what.substr(0, 120) + "; ";
  }
  correct = false;
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

bool Rounds::Next() {
  int64_t now = NowNs();
  if (index_ >= 0) last_ns_ = now - begun_ns_;
  ++index_;
  begun_ns_ = now;
  if (index_ < plan_.min_rounds) return true;
  return index_ < plan_.max_rounds && now + last_ns_ <= plan_.deadline_ns;
}

namespace {

double Us(const OpLog::Entry& e) { return static_cast<double>(e.end - e.start) / 1e3; }

double RoundSecondsOf(const OpLog& log) {
  if (log.ops.empty()) return 0;
  return static_cast<double>(log.ops.back().end - log.ops.front().start) / 1e9;
}

std::string List(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

}  // namespace

double PassResult::RoundSeconds() const {
  std::vector<double> s;
  for (const OpLog& log : rounds) s.push_back(RoundSecondsOf(log));
  return Median(s);
}

void AddEndToEnd(Report* r, const PassResult& p) {
  if (!p.setup_s.empty()) r->Add("setup_s", Median(p.setup_s), "s");
  if (p.rounds.empty()) return;
  // Per round: throughput, and the latency samples of each class (-1:
  // every op) in op order.
  std::vector<double> rate;
  std::vector<std::vector<double>> samples[3];  // [read, write, all][round]
  for (const OpLog& log : p.rounds) {
    rate.push_back(static_cast<double>(log.ops.size()) / RoundSecondsOf(log));
    for (auto& s : samples) s.emplace_back();
    for (const OpLog::Entry& e : log.ops) {
      samples[e.cls].back().push_back(Us(e));
      samples[2].back().push_back(Us(e));
    }
  }
  size_t n_rounds = p.rounds.size();
  // The median over rounds of a per-round percentile; a p99 needs ten
  // samples beyond it in every round, else it is pooled over the rounds.
  auto stat = [&](int cls, double q, const std::string& name) {
    size_t least = SIZE_MAX, total = 0;
    for (const std::vector<double>& s : samples[cls]) {
      least = std::min(least, s.size());
      total += s.size();
    }
    if (total == 0) return -1.0;
    double beyond = static_cast<double>(least) * (1 - q);
    if (beyond >= 10 || q <= 0.5) {
      std::vector<double> per_round;
      for (std::vector<double> s : samples[cls]) {
        if (!s.empty()) per_round.push_back(Percentile(s, q));
      }
      r->info[name + "_rounds"] = List(per_round);
      r->info[name + "_samples"] =
          "median of " + std::to_string(n_rounds) + " rounds of >= " + std::to_string(least);
      return Median(per_round);
    }
    std::vector<double> pooled;
    for (const std::vector<double>& s : samples[cls]) pooled.insert(pooled.end(), s.begin(), s.end());
    r->info[name + "_samples"] = "pooled over " + std::to_string(n_rounds) + " rounds, " +
                                 std::to_string(pooled.size()) + " samples";
    return Percentile(pooled, q);
  };
  r->Add("ops_per_s", Median(rate), "1/s");
  r->Add("read_p50_us", stat(OpLog::kRead, 0.5, "read_p50_us"), "us");
  r->Add("read_p95_us", stat(OpLog::kRead, 0.95, "read_p95_us"), "us");
  // Context, not metrics: the p99s sit on the edge of modes a percent of
  // the ops wide (see BENCHMARK.json), and writes exist in one workload.
  r->info["read_p99_us"] = std::to_string(stat(OpLog::kRead, 0.99, "read_p99_us"));
  r->info["op_p99_us"] = std::to_string(stat(2, 0.99, "op_p99_us"));
  if (double w50 = stat(OpLog::kWrite, 0.5, "write_p50_us"); w50 >= 0) {
    r->info["write_p50_us"] = std::to_string(w50);
    r->info["write_p95_us"] = std::to_string(stat(OpLog::kWrite, 0.95, "write_p95_us"));
    r->info["write_p99_us"] = std::to_string(stat(OpLog::kWrite, 0.99, "write_p99_us"));
  }
  r->info["rounds"] = std::to_string(n_rounds);
  r->info["ops_per_s_rounds"] = List(rate);
  r->info["round_s"] = std::to_string(p.RoundSeconds());
  r->info["setup_s_rounds"] = List(p.setup_s);
  r->info["ops_per_round"] = std::to_string(p.rounds.front().ops.size());

  // Stationarity: the p50 of each op class and the node's end state in
  // each half of the measured rounds. Rounds replay one op sequence from
  // a fresh node, so a drift here is the host's, or state that outlives
  // a round.
  size_t half = n_rounds / 2;
  for (int h = 0; h < 2 && half > 0; ++h) {
    size_t lo = h == 0 ? 0 : half, hi = h == 0 ? half : n_rounds;
    std::string tag = "half" + std::to_string(h + 1) + "_";
    for (int cls = 0; cls < 2; ++cls) {
      std::vector<double> p50;
      for (size_t i = lo; i < hi; ++i) {
        std::vector<double> s = samples[cls][i];
        if (!s.empty()) p50.push_back(Percentile(s, 0.5));
      }
      if (!p50.empty()) r->info[tag + (cls == 0 ? "read" : "write") + "_p50_us"] = std::to_string(Median(p50));
    }
    if (hi - 1 < p.states.size()) {
      const RoundState& st = p.states[hi - 1];
      r->info[tag + "live_facts"] = std::to_string(st.live_facts);
      r->info[tag + "segments"] = std::to_string(st.segments);
      r->info[tag + "cached_views"] = std::to_string(st.cached_views);
    }
  }
  // Drift inside a round (the same in every round): p50 of each class
  // over the first and the second half of a round's ops, median over
  // rounds. Context, not a flag.
  for (int cls = 0; cls < 2; ++cls) {
    std::vector<double> first, second;
    for (const OpLog& log : p.rounds) {
      std::vector<double> a, b;
      for (size_t i = 0; i < log.ops.size(); ++i) {
        if (log.ops[i].cls == cls) (i < log.ops.size() / 2 ? a : b).push_back(Us(log.ops[i]));
      }
      if (a.empty() || b.empty()) continue;
      first.push_back(Percentile(a, 0.5));
      second.push_back(Percentile(b, 0.5));
    }
    if (!first.empty()) {
      r->info[std::string("within_round_") + (cls == 0 ? "read" : "write") + "_p50_us"] =
          std::to_string(Median(first)) + " -> " + std::to_string(Median(second));
    }
  }
}

double MeanUs(const OpLog& log) {
  double total = 0;
  for (const OpLog::Entry& e : log.ops) total += static_cast<double>(e.end - e.start);
  return log.ops.empty() ? 0 : total / 1e3 / static_cast<double>(log.ops.size());
}

namespace {

long StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t len = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtol(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

int peak_threads = 0;

}  // namespace

double PeakRssMb() { return static_cast<double>(StatusField("VmHWM:")) / 1024.0; }

void SampleThreads() {
  peak_threads = std::max(peak_threads, static_cast<int>(StatusField("Threads:")));
}

int PeakThreads() { return peak_threads; }

// --- Tracer -------------------------------------------------------------------

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

int Tracer::Begin(const char* name) {
  if (!on_) return -1;
  int parent = open_spans.empty() ? -1 : open_spans.back();
  int id = BeginChild(name, parent);
  open_spans.push_back(id);
  return id;
}

int Tracer::BeginChild(const char* name, int parent) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, NowNs(), 0, parent, op_.load(std::memory_order_relaxed)});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = now;
}

void Tracer::Record(const char* name, int64_t start, int64_t end) {
  if (!on_) return;
  int parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, op_.load(std::memory_order_relaxed)});
}

int Tracer::Current() const { return open_spans.empty() ? -1 : open_spans.back(); }

void Tracer::Summarize(Report* r) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(static_cast<int>(i));
  }
  struct Agg {
    double self_ns = 0;
    uint64_t n = 0;
  };
  std::map<std::string, Agg> by_name;
  double op_ns = 0, op_uncovered_ns = 0;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the span: children on
    // other threads (shard servers) may overlap each other.
    iv.clear();
    for (int c : children[i]) {
      iv.emplace_back(std::max(spans_[c].start, s.start), std::min(spans_[c].end, s.end));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    double self = static_cast<double>(s.end - s.start - covered);
    if (std::string(s.name) == "op") {
      op_ns += static_cast<double>(s.end - s.start);
      op_uncovered_ns += self;
      continue;
    }
    Agg& a = by_name[s.name];
    a.self_ns += self;
    ++a.n;
  }
  for (const auto& [name, a] : by_name) {
    r->Add(name + "_us", a.self_ns / 1e3 / static_cast<double>(a.n), "us");
    r->info["spans." + name] = std::to_string(a.n);
  }
  r->Add("trace.unaccounted_share", op_ns > 0 ? op_uncovered_ns / op_ns : 0, "share");
  r->info["spans.total"] = std::to_string(spans_.size());
}

void Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "op\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.op, i, s.parent, s.name,
                 static_cast<long long>(s.start), static_cast<long long>(s.end));
  }
  std::fclose(f);
}

Report LayerReport(const Options& o, const PassResult& base, const PassResult& traced,
                   const Tracer& t) {
  Report r;
  r.correct = base.r.correct && traced.r.correct;
  r.attempted = traced.r.attempted;
  r.failed = traced.r.failed;
  r.info = base.r.info;
  t.Summarize(&r);
  // Counts of the untraced pass first: a name both passes report keeps
  // the untraced value (main prints the first of a name).
  for (const Metric& m : base.counts) r.metrics.push_back(m);
  for (const Metric& m : traced.counts) r.metrics.push_back(m);
  r.Add("trace.overhead_share", traced.RoundSeconds() / base.RoundSeconds() - 1.0, "share");
  t.Dump(o.work_dir + "/" + o.workload + ".spans.tsv");
  return r;
}

// --- Request path ----------------------------------------------------------------

std::string PayloadOf(const std::string& frame) { return frame.substr(4); }

seqdl::Result<std::string> RenderedOf(const std::string& frame) {
  if (frame.size() < 4) return seqdl::Status::Internal("short reply frame");
  SEQDL_ASSIGN_OR_RETURN(seqdl::protocol::Reply reply,
                         seqdl::protocol::DecodeReply(std::string_view(frame).substr(4)));
  if (!reply.status.ok()) return reply.status;
  return std::move(reply.run.rendered);
}

uint64_t Fnv(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string FsType(const std::string& path) {
  struct statfs sf;
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(sf.f_type);
      return os.str();
    }
  }
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
