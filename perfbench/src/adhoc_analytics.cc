// adhoc_analytics: every request is a program the server has never seen,
// drawn from three templates of the paper's applications, each with a
// fresh constant:
//   * motif marking with packing over the DNA reads of one sample,
//     Hit($u ++ <m> ++ $v) <- Seq(sK, $u ++ m ++ $v);
//   * "every X is eventually followed by Y" compliance over the event
//     logs of one case group, with equations and stratified negation;
//   * reachability from a fresh source over one path-encoded graph,
//     with recursion.
//
// Why: analysts' one-off queries. Setup fills the result cache to its
// 4096-entry cap, so every timed op misses, evicts one entry and pays a
// cold evaluation.
//
// Loads: engine evaluation (cold view materialization) and term
// rendering, plus parse and compile of each program. Bypasses cache
// hits, writes and storage.
//
// Sizes: kSamples x kReadsPerSample reads, kGroups x kLogsPerGroup logs
// and kGraphs graphs of kNodes nodes and kEdges edges (32k facts). A
// round opens them, warms the indexes, fills the result cache and plays
// kOpsPerRound never-seen programs. The three templates cost about the
// same (p50s within a fifth of each other), so read_p50_us does not
// fall on a step between templates. About one op in a hundred, at the
// same positions of a seed's sequence every time, costs 3-10x its
// template's p50 (motif and compliance ops only; no page faults or
// preemption go with it), so a p99 sits on the edge of that mode and
// jumps from seed to seed; read_p95_us stays inside the common mode.
//
// Not in BENCHMARK.json: every listed workload is one more set of runs
// exposed to the host's slow spells, so the benchmark keeps two;
// serve_reads measures compilation and cold evaluation, and
// durable_ingest the packing, negation and recursion programs. Run it
// by name to measure one-off analytic programs.
//
// What the traced run showed: cold evaluation is most of an op
// (engine.eval, about 25 rule firings and 8 index probes per op); parse,
// admission, lint, compile and render take a few microseconds to about
// twenty each. The split path skips the service's cache bookkeeping
// (program-cache insert, result-cache insert, eviction and view
// invalidation), so trace.overhead_share understates the tracer's cost;
// from one traced round it moves by about a tenth from run to run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "perfbench/src/bench.h"
#include "perfbench/src/data.h"
#include "perfbench/src/node.h"

namespace perfbench {
namespace {

constexpr size_t kSamples = 256;
constexpr size_t kReadsPerSample = 16;
constexpr size_t kGroups = 256;
constexpr size_t kLogsPerGroup = 12;
constexpr size_t kGraphs = 384;
constexpr size_t kNodes = 32;
constexpr size_t kEdges = 64;
/// The result cache's entry cap (ServiceOptions::result_cache_entries).
constexpr size_t kWarmEntries = 4096;
/// Ops per round; every round replays them on a fresh node.
constexpr size_t kOpsPerRound = 3000;

struct Op {
  std::string payload;
  uint64_t expect = 0;
  int kind = 0;  // 0 motif, 1 compliance, 2 reach
};

struct Inputs {
  std::string edb_text;
  std::vector<std::string> warm_payloads;
  std::vector<Op> ops;
};

std::string Payload(const std::string& program, const std::string& output_rel) {
  seqdl::protocol::RunRequest req;
  req.program = program;
  req.source_name = "adhoc.sdl";
  req.output_rel = output_rel;
  return PayloadOf(seqdl::protocol::EncodeRunRequest(req));
}

Inputs Generate(const Options& o) {
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 23);
  Inputs in;
  std::vector<std::vector<Seq>> samples(kSamples), groups(kGroups);
  std::vector<seqdl::Graph> graphs;
  for (size_t k = 0; k < kSamples; ++k) {
    for (size_t i = 0; i < kReadsPerSample; ++i) {
      samples[k].push_back(RandomDna(rng, 24, 40));
      in.edb_text += "Seq(s" + std::to_string(k) + ", " + PathText(samples[k].back()) + ").\n";
    }
  }
  for (size_t k = 0; k < kGroups; ++k) {
    for (size_t i = 0; i < kLogsPerGroup; ++i) {
      groups[k].push_back(RandomLog(rng, 8, 16));
      in.edb_text += "Trace(g" + std::to_string(k) + ", " + PathText(groups[k].back()) + ").\n";
    }
  }
  for (size_t k = 0; k < kGraphs; ++k) {
    graphs.push_back(RandomDigraph(rng, kNodes, kEdges));
    for (const auto& [a, b] : graphs.back().edges) {
      in.edb_text += "Edge(h" + std::to_string(k) + ", " + NodeName(a) + " ++ " + NodeName(b) +
                     ").\n";
    }
  }

  std::set<std::string> used;
  auto motif = [&]() {
    while (true) {
      size_t k = rng() % kSamples;
      Seq m = RandomDna(rng, 4, 4);
      std::string program = "Hit($u ++ <" + PathText(m) + "> ++ $v) <- Seq(s" + std::to_string(k) +
                            ", $u ++ " + PathText(m) + " ++ $v).\n";
      if (!used.insert(program).second) continue;
      std::set<std::string> lines;
      for (const Seq& read : samples[k]) MotifLines(read, m, "Hit", "", &lines);
      return Op{Payload(program, ""), Fnv(RenderLines(lines)), 0};
    }
  };
  auto compliance = [&]() {
    while (true) {
      size_t k = rng() % kGroups;
      const std::string& x = kActivities[rng() % kActivities.size()];
      const std::string& y = kActivities[rng() % kActivities.size()];
      if (x == y) continue;
      std::string g = "g" + std::to_string(k);
      std::string program = "HasY($v) <- Trace(" + g + ", $u ++ " + x + " ++ $v), $v = $s ++ " +
                            y + " ++ $t.\n---\nBad($x) <- Trace(" + g + ", $x), $x = $u ++ " + x +
                            " ++ $v, !HasY($v).\n---\nGood($x) <- Trace(" + g +
                            ", $x), !Bad($x).\n";
      if (!used.insert(program).second) continue;
      std::set<std::string> lines;
      for (const Seq& log : groups[k]) {
        if (Complies(log, x, y)) lines.insert("Good(" + Rendered(log) + ").");
      }
      return Op{Payload(program, "Good"), Fnv(RenderLines(lines)), 1};
    }
  };
  auto reach = [&]() {
    while (true) {
      size_t k = rng() % kGraphs;
      uint32_t src = static_cast<uint32_t>(rng() % kNodes);
      std::string h = "h" + std::to_string(k);
      std::string program = "T(@y) <- Edge(" + h + ", " + NodeName(src) +
                            " ++ @y).\nT(@z) <- T(@y), Edge(" + h + ", @y ++ @z).\n";
      if (!used.insert(program).second) continue;
      std::set<std::string> lines;
      for (uint32_t n : ReachableFrom(graphs[k], src)) lines.insert("T(" + NodeName(n) + ").");
      return Op{Payload(program, ""), Fnv(RenderLines(lines)), 2};
    }
  };
  // Setup warms the lazy indexes with one program per template, then
  // fills the result cache to its entry cap with empty point probes, so
  // the timed phase starts in the steady state where every op evicts.
  in.warm_payloads = {motif().payload, compliance().payload, reach().payload};
  for (size_t i = 0; i < kWarmEntries; ++i) {
    in.warm_payloads.push_back(Payload("W($s) <- Seq(w" + std::to_string(i) + ", $s).\n", ""));
  }
  size_t n = kOpsPerRound;
  for (size_t i = 0; i < n; ++i) {
    switch (rng() % 3) {
      case 0: in.ops.push_back(motif()); break;
      case 1: in.ops.push_back(compliance()); break;
      default: in.ops.push_back(reach()); break;
    }
  }
  return in;
}

/// One pass: rounds of set-up (parse, open, warm the indexes, fill the
/// result cache) and the op sequence, each on a fresh node.
PassResult Pass(const Inputs& in, Tracer& t, const RoundPlan& plan) {
  PassResult p;
  Report& r = p.r;
  std::vector<double> parse_s, open_s, handle_us, by_kind[3];
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
    for (const std::string& payload : in.warm_payloads) {
      node->Handle(payload);
    }
    p.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    parse_s.push_back(times.parse_s);
    open_s.push_back(times.open_s);
    seqdl::CacheCounters before = node->service->CacheStats();

    OpLog log;
    log.ops.reserve(in.ops.size());
    std::vector<double> kind_us[3];
    seqdl::EvalStats eval;
    for (size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      t.set_op(static_cast<uint32_t>(i));
      ++r.attempted;
      seqdl::Result<std::string> rendered = seqdl::Status::Internal("unset");
      int64_t b = NowNs(), e = 0;
      if (t.on()) {
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
        std::string frame = node->Handle(op.payload);
        e = NowNs();
        rendered = RenderedOf(frame);
      }
      if (!rendered.ok()) {
        ++r.failed;
        continue;
      }
      if (Fnv(*rendered) != op.expect) r.Wrong("op " + std::to_string(i) + ": wrong answer");
      log.Add(OpLog::kRead, b, e);
      kind_us[op.kind].push_back(static_cast<double>(e - b) / 1e3);
    }
    SampleThreads();
    if (!rounds.measured()) continue;
    seqdl::CacheCounters after = node->service->CacheStats();
    handle_us.push_back(MeanUs(log));
    for (int k = 0; k < 3; ++k) by_kind[k].insert(by_kind[k].end(), kind_us[k].begin(), kind_us[k].end());
    p.rounds.push_back(std::move(log));
    p.states.push_back(StateOf(*node));
    r.info["edb_facts"] = std::to_string(node->service->db().NumFacts());
    r.info["cached_bytes"] = std::to_string(after.bytes);
    p.counts = {
        {"server.evictions", static_cast<double>(after.evictions - before.evictions), "count"},
        {"server.programs_cached", static_cast<double>(node->service->NumCachedPrograms()), "count"},
    };
    // Evaluation counters exist only where the traced pass ran the
    // evaluation itself; per op, so they repeat exactly.
    if (t.on()) {
      double ops = static_cast<double>(std::max<size_t>(1, in.ops.size()));
      p.counts.push_back({"engine.rule_firings", static_cast<double>(eval.rule_firings) / ops, "count"});
      p.counts.push_back({"engine.index_probes", static_cast<double>(eval.index_probes) / ops, "count"});
      p.counts.push_back({"engine.full_scans", static_cast<double>(eval.full_scans) / ops, "count"});
      p.counts.push_back({"engine.rounds", static_cast<double>(eval.rounds) / ops, "count"});
    }
  }
  const char* names[3] = {"motif", "compliance", "reach"};
  for (int k = 0; k < 3; ++k) {
    r.info[std::string(names[k]) + "_p50_us"] = std::to_string(Median(by_kind[k]));
    r.info[std::string(names[k]) + "_p99_us"] = std::to_string(Percentile(by_kind[k], 0.99));
  }
  p.counts.push_back({"server.handle_us", Median(handle_us), "us"});
  p.counts.push_back({"engine.open_s", Median(open_s), "s"});
  p.counts.push_back({"syntax.parse_facts_us", Median(parse_s) * 1e6, "us"});
  return p;
}

}  // namespace

Report RunAdhocAnalytics(const Options& o) {
  Inputs in = Generate(o);
  return RunPasses(o, [&](Tracer& t, const RoundPlan& plan) { return Pass(in, t, plan); });
}

}  // namespace perfbench
