// serve_reads: read-only serving at a fixed epoch over a large keyed EDB
// of DNA reads and event logs.
//
// Why: the common serving case, a large long-lived EDB queried by many
// small programs, most of them repeated. About 80% of requests repeat
// one of kHotPrograms programs that setup warms and that fit the result
// cache easily (512 answers of 8 facts, about 0.6 MB of the 64 MiB
// budget); the rest name a sample/case-group pair never sent before, so
// each parses, runs admission and lint, compiles and is answered by
// index probes. read_p50_us then falls inside the cache-hit mode
// (decode -> lookup -> encode, a few microseconds) and read_p95_us
// inside the fresh-program path (a few hundred; its own p75), neither
// on the boundary between the two (at the 80th percentile).
//
// Loads: server (frame decode/encode, program and result caches),
// syntax, analysis (admission, lint) and engine compilation and cold
// evaluation. Bypasses writes, view maintenance and storage.
//
// Sizes: kReads DNA reads plus kLogs event logs (36k facts), kGroup
// facts per key. A round parses and opens them, warms the hot set and
// plays kOpsPerRound ops (about 2000 fresh programs) on that node; the
// program cache never evicts, so a round, not the run, bounds it, and
// peak_rss_mb does not depend on how many rounds a run fits.
//
// What the traced run showed: a fresh program spends most of its time
// in the cold view materialization of two 4-fact index probes
// (engine.eval, about 270 us, roughly 40 us per rule firing) while
// parse, admission, lint and compile take under 10 us each; a hit is
// one Handle span of about 3 us.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "perfbench/src/bench.h"
#include "perfbench/src/data.h"
#include "perfbench/src/node.h"

namespace perfbench {
namespace {

constexpr size_t kReads = 24000;
constexpr size_t kLogs = 12000;
constexpr size_t kGroup = 4;
constexpr size_t kHotPrograms = 512;
/// Ops per round; every round replays them on a fresh node.
constexpr size_t kOpsPerRound = 10000;
constexpr double kFreshShare = 0.2;

struct Op {
  std::string payload;
  uint64_t expect = 0;
  bool fresh = false;
};

struct Inputs {
  std::string edb_text;
  std::vector<std::string> hot_payloads;
  std::vector<Op> ops;
};

Inputs Generate(const Options& o) {
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 11);
  Inputs in;
  // Reads are keyed by sample and logs by case group, kGroup facts per
  // key, so one program's answer is the rendering of 2 * kGroup facts.
  std::vector<std::vector<std::string>> read_lines(kReads / kGroup), log_lines(kLogs / kGroup);
  in.edb_text.reserve(kReads * 140 + kLogs * 90);
  for (size_t i = 0; i < kReads; ++i) {
    Seq s = RandomDna(rng, 24, 48);
    in.edb_text += "Read(s" + std::to_string(i % read_lines.size()) + ", " + PathText(s) + ").\n";
    read_lines[i % read_lines.size()].push_back("Q(" + Rendered(s) + ").");
  }
  for (size_t i = 0; i < kLogs; ++i) {
    Seq s = RandomLog(rng, 8, 20);
    in.edb_text += "Log(k" + std::to_string(i % log_lines.size()) + ", " + PathText(s) + ").\n";
    log_lines[i % log_lines.size()].push_back("Q(" + Rendered(s) + ").");
  }
  // A program names one sample and one case group. The first
  // kHotPrograms pairs of a seeded sequence form the hot set; every
  // later pair is sent once, as a fresh program.
  std::set<std::pair<size_t, size_t>> used;
  auto next_pair = [&] {
    while (true) {
      std::pair<size_t, size_t> p{rng() % read_lines.size(), rng() % log_lines.size()};
      if (used.insert(p).second) return p;
    }
  };
  auto make_op = [&](std::pair<size_t, size_t> p) {
    seqdl::protocol::RunRequest req;
    req.program = "Q($s) <- Read(s" + std::to_string(p.first) + ", $s).\nQ($s) <- Log(k" +
                  std::to_string(p.second) + ", $s).\n";
    req.source_name = "q.sdl";
    std::set<std::string> lines(read_lines[p.first].begin(), read_lines[p.first].end());
    lines.insert(log_lines[p.second].begin(), log_lines[p.second].end());
    Op op;
    op.payload = PayloadOf(seqdl::protocol::EncodeRunRequest(req));
    op.expect = Fnv(RenderLines(lines));
    return op;
  };
  std::vector<Op> hot;
  for (size_t h = 0; h < kHotPrograms; ++h) {
    hot.push_back(make_op(next_pair()));
    in.hot_payloads.push_back(hot.back().payload);
  }
  size_t n = kOpsPerRound;
  std::uniform_real_distribution<double> coin(0, 1);
  for (size_t i = 0; i < n; ++i) {
    if (coin(rng) < kFreshShare) {
      in.ops.push_back(make_op(next_pair()));
      in.ops.back().fresh = true;
    } else {
      in.ops.push_back(hot[rng() % kHotPrograms]);
    }
  }
  return in;
}

/// One pass: rounds of set-up (parse, open, warm the hot set) and the
/// op sequence, each on a fresh node.
PassResult Pass(const Inputs& in, Tracer& t, const RoundPlan& plan) {
  PassResult p;
  Report& r = p.r;
  std::vector<double> parse_s, open_s, handle_us, hit_us, fresh_us;
  for (Rounds rounds(plan); rounds.Next();) {
    int64_t t0 = NowNs();
    auto node = std::make_unique<Node>();
    OpenTimes times;
    seqdl::Result<seqdl::Database> db = OpenInMemory(*node, in.edb_text, &times);
    if (!db.ok()) {
      r.Wrong("open: " + db.status().ToString());
      return p;
    }
    node->Serve(std::move(*db));
    for (const std::string& payload : in.hot_payloads) {
      node->Handle(payload);
    }
    p.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    parse_s.push_back(times.parse_s);
    open_s.push_back(times.open_s);
    seqdl::CacheCounters before = node->service->CacheStats();

    OpLog log;
    log.ops.reserve(in.ops.size());
    std::vector<double> class_us[2];  // [hit, fresh]
    seqdl::EvalStats eval;
    for (size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      t.set_op(static_cast<uint32_t>(i));
      ++r.attempted;
      seqdl::Result<std::string> rendered = seqdl::Status::Internal("unset");
      int64_t b = NowNs(), e = 0;
      if (t.on() && op.fresh) {
        seqdl::EvalStats stats;
        {
          Scope s(t, "op");
          rendered = TracedColdRun(*node, t, op.payload, &stats);
        }
        e = NowNs();
        eval.rule_firings += stats.rule_firings;
        eval.index_probes += stats.index_probes + stats.prefix_probes + stats.suffix_probes;
        eval.full_scans += stats.full_scans;
        eval.rounds += stats.rounds;
      } else {
        std::string frame;
        {
          Scope s(t, "op");
          Scope h(t, "server.cache_hit");
          frame = node->Handle(op.payload);
        }
        e = NowNs();
        rendered = RenderedOf(frame);
      }
      if (!rendered.ok()) {
        ++r.failed;
        continue;
      }
      if (Fnv(*rendered) != op.expect) r.Wrong("op " + std::to_string(i) + ": wrong answer");
      log.Add(OpLog::kRead, b, e);
      class_us[op.fresh ? 1 : 0].push_back(static_cast<double>(e - b) / 1e3);
    }
    SampleThreads();
    if (!rounds.measured()) continue;
    seqdl::CacheCounters after = node->service->CacheStats();
    uint64_t hits = after.hits - before.hits, misses = after.misses - before.misses;
    handle_us.push_back(MeanUs(log));
    hit_us.push_back(Median(class_us[0]));
    fresh_us.push_back(Median(class_us[1]));
    p.rounds.push_back(std::move(log));
    p.states.push_back(StateOf(*node));
    r.info["fresh_requests"] = std::to_string(class_us[1].size());
    r.info["edb_facts"] = std::to_string(node->service->db().NumFacts());
    r.info["hot_set_bytes"] = std::to_string(before.bytes);
    r.info["cached_bytes"] = std::to_string(after.bytes);
    p.counts = {
        {"server.hit_ratio", static_cast<double>(hits) / static_cast<double>(hits + misses), "share"},
        {"server.programs_cached", static_cast<double>(node->service->NumCachedPrograms()), "count"},
    };
    // Evaluation counters exist only where the traced pass ran the
    // evaluation itself; per fresh program, so they repeat exactly.
    if (t.on()) {
      double fresh = static_cast<double>(std::max<size_t>(1, class_us[1].size()));
      p.counts.push_back({"engine.rule_firings", static_cast<double>(eval.rule_firings) / fresh, "count"});
      p.counts.push_back({"engine.index_probes", static_cast<double>(eval.index_probes) / fresh, "count"});
      p.counts.push_back({"engine.full_scans", static_cast<double>(eval.full_scans) / fresh, "count"});
      p.counts.push_back({"engine.rounds", static_cast<double>(eval.rounds) / fresh, "count"});
    }
  }
  r.info["hit_p50_us"] = std::to_string(Median(hit_us));
  r.info["fresh_p50_us"] = std::to_string(Median(fresh_us));
  p.counts.push_back({"server.handle_us", Median(handle_us), "us"});
  p.counts.push_back({"engine.open_s", Median(open_s), "s"});
  p.counts.push_back({"syntax.parse_facts_us", Median(parse_s) * 1e6, "us"});
  return p;
}

}  // namespace

Report RunServeReads(const Options& o) {
  Inputs in = Generate(o);
  return RunPasses(o, [&](Tracer& t, const RoundPlan& plan) { return Pass(in, t, plan); });
}

}  // namespace perfbench
