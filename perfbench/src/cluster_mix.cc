// cluster_mix: a Coordinator, called directly by the client thread, over
// two in-process shard Servers with one worker each.
//
// Why: the sharded deployment. The EDB is keyed (customers and their
// orders share the key that places them on a shard). A fixed set of
// kPrograms standing programs is read between routed write batches, so
// the coordinator's epoch-keyed cache never answers and every read
// scatters; three are distribution-transparent keyed joins, one is a
// residual self-join of a small reference relation that the
// coordinator gathers and finishes itself. Writes append new orders and
// retract the oldest, so the live fact count stays constant.
//
// Loads: cluster (split, scatter, merge by re-parsing shard renderings),
// the analysis locality pass, the wire path over loopback and the
// shards' view refresh. This is the only workload that crosses sockets.
//
// Sizes: kCustomers customers with kOrdersPerCustomer orders each,
// kRefEdges reference pairs over kRefNodes nodes; write batches of
// kBatch orders. The program set stays fixed: every shard write
// refreshes every cached view on that shard.
//
// Not in BENCHMARK.json: with the shards on `seqdl serve`'s default
// --auto-compact=8, a transparent join keeps answering with an order
// retracted just before a compaction (seed 1: op 36 returns
// J(k1194, o29) after o29's retraction); with auto-compaction off every
// answer matches. The workload stays here to reproduce that until the
// program is fixed; it reports correct: false.
//
// The traced run wraps each shard's ServiceRequestHandler in a timing
// handler, so shard spans nest inside the coordinator span on the same
// clock; split, locality and merge are timed on the op's own inputs
// after the op.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>

#include "perfbench/src/bench.h"
#include "perfbench/src/data.h"
#include "perfbench/src/node.h"
#include "src/analysis/locality.h"
#include "src/cluster/coordinator.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"

namespace perfbench {
namespace {

constexpr size_t kCustomers = 1200;
constexpr size_t kOrdersPerCustomer = 4;
constexpr size_t kRegions = 8;
constexpr size_t kRefNodes = 60;
constexpr size_t kRefEdges = 150;
constexpr size_t kBatch = 8;
constexpr int kSetups = 3;
constexpr size_t kCyclesPerSecond = 60;
constexpr size_t kPrograms = 4;

/// Three transparent keyed joins (one region each) and one residual join.
std::string ProgramText(size_t p) {
  if (p == 3) return "Pair($a, $c) <- Ref($a, $b), Ref($b, $c).\n";
  return "J($k, $o) <- Cust($k, reg" + std::to_string(p) + "), Ord($k, $o).\n";
}

struct Op {
  enum Kind { kAppend, kRetract, kRead } kind = kRead;
  std::string text;  // facts or program
  size_t batch = 0;
  size_t program = 0;
  uint64_t expect = 0;
};

struct Inputs {
  std::string edb_text;
  std::vector<Op> ops;
};

Inputs Generate(const Options& o) {
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 53);
  Inputs in;
  std::vector<size_t> region(kCustomers);
  std::deque<std::pair<size_t, size_t>> orders;  // (customer, order id)
  size_t next_order = 0;
  for (size_t c = 0; c < kCustomers; ++c) {
    region[c] = rng() % kRegions;
    in.edb_text += "Cust(k" + std::to_string(c) + ", reg" + std::to_string(region[c]) + ").\n";
  }
  auto order_fact = [](std::pair<size_t, size_t> ord) {
    return "Ord(k" + std::to_string(ord.first) + ", o" + std::to_string(ord.second) + ").\n";
  };
  for (size_t i = 0; i < kCustomers * kOrdersPerCustomer; ++i) {
    orders.emplace_back(rng() % kCustomers, next_order++);
    in.edb_text += order_fact(orders.back());
  }
  seqdl::Graph ref = RandomDigraph(rng, kRefNodes, kRefEdges);
  std::set<std::string> pair_lines;
  for (const auto& [a, b] : ref.edges) {
    in.edb_text += "Ref(m" + std::to_string(a) + ", m" + std::to_string(b) + ").\n";
    for (const auto& [b2, c] : ref.edges) {
      if (b2 == b) pair_lines.insert("Pair(m" + std::to_string(a) + ", m" + std::to_string(c) + ").");
    }
  }
  uint64_t pair_hash = Fnv(RenderLines(pair_lines));
  auto reads = [&] {
    for (size_t p = 0; p < kPrograms; ++p) {
      Op op;
      op.text = ProgramText(p);
      op.program = p;
      if (p == 3) {
        op.expect = pair_hash;
      } else {
        std::set<std::string> lines;
        for (const auto& ord : orders) {
          if (region[ord.first] == p) {
            lines.insert("J(k" + std::to_string(ord.first) + ", o" + std::to_string(ord.second) + ").");
          }
        }
        op.expect = Fnv(RenderLines(lines));
      }
      in.ops.push_back(std::move(op));
    }
  };
  size_t cycles = kCyclesPerSecond * static_cast<size_t>(o.seconds);
  for (size_t c = 0; c < cycles; ++c) {
    Op add;
    add.kind = Op::kAppend;
    for (size_t i = 0; i < kBatch; ++i) {
      orders.emplace_back(rng() % kCustomers, next_order++);
      add.text += order_fact(orders.back());
    }
    add.batch = kBatch;
    in.ops.push_back(std::move(add));
    reads();
    Op del;
    del.kind = Op::kRetract;
    for (size_t i = 0; i < kBatch; ++i) {
      del.text += order_fact(orders.front());
      orders.pop_front();
    }
    del.batch = kBatch;
    in.ops.push_back(std::move(del));
    reads();
  }
  return in;
}

/// A shard's request handler with a span around every request, nested
/// under the client's coordinator span; run replies are captured so the
/// merge can be timed on them after the op.
class TimingHandler : public seqdl::RequestHandler {
 public:
  TimingHandler(seqdl::DatabaseService& service, Tracer& t, std::atomic<int>& parent)
      : inner_(service), t_(t), parent_(parent) {}

  std::string Handle(const std::string& payload, const std::function<bool()>& cancel,
                     bool* shutdown) override {
    if ((calls_.fetch_add(1) & 255) == 0) SampleThreads();
    int id = t_.BeginChild("cluster.shard", parent_.load());
    std::string reply = inner_.Handle(payload, cancel, shutdown);
    t_.End(id);
    if (t_.on() && !payload.empty() &&
        static_cast<uint8_t>(payload[0]) == static_cast<uint8_t>(seqdl::protocol::MsgType::kRun)) {
      std::lock_guard<std::mutex> lock(mu_);
      captured_.push_back(reply);
    }
    return reply;
  }

  std::vector<std::string> TakeCaptured() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(captured_);
  }

 private:
  seqdl::ServiceRequestHandler inner_;
  Tracer& t_;
  std::atomic<int>& parent_;
  std::atomic<uint64_t> calls_{0};
  std::mutex mu_;
  std::vector<std::string> captured_;
};

struct Shard {
  seqdl::Universe u;
  std::unique_ptr<seqdl::DatabaseService> service;
  std::unique_ptr<TimingHandler> handler;
  std::unique_ptr<seqdl::Server> server;
};

struct Cluster {
  std::vector<std::unique_ptr<Shard>> shards;
  seqdl::Universe u;
  std::unique_ptr<seqdl::Coordinator> coord;

  ~Cluster() {
    coord.reset();
    for (auto& s : shards) s->server.reset();
  }
};

seqdl::Result<std::unique_ptr<Cluster>> StartCluster(const Inputs& in, Tracer& t,
                                                     std::atomic<int>& parent) {
  auto c = std::make_unique<Cluster>();
  std::vector<seqdl::ShardAddress> addrs;
  for (int i = 0; i < 2; ++i) {
    auto s = std::make_unique<Shard>();
    SEQDL_ASSIGN_OR_RETURN(seqdl::Database db,
                           seqdl::Database::Open(s->u, seqdl::Instance(), OpenDefaults("")));
    s->service = std::make_unique<seqdl::DatabaseService>(s->u, std::move(db), ServeDefaults());
    s->handler = std::make_unique<TimingHandler>(*s->service, t, parent);
    seqdl::ServerOptions sopts;
    sopts.threads = 1;
    SEQDL_ASSIGN_OR_RETURN(s->server, seqdl::Server::Start(*s->handler, sopts));
    addrs.push_back({"127.0.0.1", s->server->port()});
    c->shards.push_back(std::move(s));
  }
  c->coord = std::make_unique<seqdl::Coordinator>(c->u, std::move(addrs));
  seqdl::protocol::AppendRequest seed{in.edb_text, "edb.sdl"};
  SEQDL_RETURN_IF_ERROR(c->coord->Append(seed).status());
  for (size_t p = 0; p < kPrograms; ++p) {
    seqdl::protocol::RunRequest req;
    req.program = ProgramText(p);
    req.source_name = "standing.sdl";
    SEQDL_RETURN_IF_ERROR(c->coord->Run(req).status());
  }
  return c;
}

/// One pass: kSetups cluster set-ups, then one round of the op sequence
/// on the last (the round plan is not used: this workload is kept as a
/// reproduction, not measured).
PassResult Pass(const Inputs& in, Tracer& t) {
  PassResult p;
  Report& r = p.r;
  std::atomic<int> parent{-1};
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (int s = 0; s < kSetups; ++s) {
    cluster.reset();
    int64_t t0 = NowNs();
    seqdl::Result<std::unique_ptr<Cluster>> c = StartCluster(in, t, parent);
    if (!c.ok()) {
      r.Wrong("cluster setup: " + c.status().ToString());
      return p;
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    cluster = std::move(*c);
  }
  for (auto& s : cluster->shards) s->handler->TakeCaptured();
  seqdl::Coordinator& coord = *cluster->coord;

  OpLog log;
  size_t residual = 0, read_ops = 0;
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    t.set_op(static_cast<uint32_t>(i));
    ++r.attempted;
    seqdl::Status st;
    std::string rendered;
    size_t written = 0;
    int64_t b = NowNs();
    {
      Scope s(t, "op");
      Scope self(t, "cluster.coord_self");
      parent.store(t.Current());
      if (op.kind == Op::kRead) {
        seqdl::protocol::RunRequest req;
        req.program = op.text;
        req.source_name = "standing.sdl";
        seqdl::Result<seqdl::protocol::RunReply> reply = coord.Run(req);
        if (reply.ok()) rendered = std::move(reply->rendered);
        else st = reply.status();
      } else if (op.kind == Op::kAppend) {
        seqdl::Result<seqdl::protocol::AppendReply> reply =
            coord.Append(seqdl::protocol::AppendRequest{op.text, "batch.sdl"});
        if (reply.ok()) written = reply->appended;
        else st = reply.status();
      } else {
        seqdl::Result<seqdl::protocol::RetractReply> reply =
            coord.Retract(seqdl::protocol::RetractRequest{op.text, "batch.sdl"});
        if (reply.ok()) written = reply->retracted;
        else st = reply.status();
      }
      parent.store(-1);
    }
    int64_t e = NowNs();
    if (!st.ok()) {
      ++r.failed;
      continue;
    }
    log.Add(op.kind == Op::kRead ? OpLog::kRead : OpLog::kWrite, b, e);
    if (op.kind == Op::kRead) {
      if (Fnv(rendered) != op.expect) r.Wrong("op " + std::to_string(i) + ": wrong answer");
      ++read_ops;
      // Locality class of the read (the coordinator's own routing rule).
      seqdl::Result<seqdl::Program> prog = seqdl::ParseProgram(cluster->u, op.text);
      if (prog.ok()) {
        int64_t lb = NowNs();
        seqdl::LocalityReport loc = seqdl::AnalyzeLocality(cluster->u, *prog);
        t.Record("analysis.locality", lb, NowNs());
        if (loc.cls == seqdl::LocalityClass::kResidual) ++residual;
      }
      if (t.on()) {
        // The coordinator's merge on the captured shard replies.
        std::vector<std::string> frames;
        for (auto& s : cluster->shards) {
          for (std::string& f : s->handler->TakeCaptured()) frames.push_back(std::move(f));
        }
        std::vector<std::string> parts;
        for (const std::string& f : frames) {
          seqdl::Result<seqdl::protocol::Reply> rep =
              seqdl::protocol::DecodeReply(std::string_view(f).substr(4));
          if (rep.ok() && rep->status.ok()) parts.push_back(rep->run.rendered);
        }
        int64_t mb = NowNs();
        seqdl::Instance merged;
        for (const std::string& part : parts) {
          seqdl::Result<seqdl::Instance> inst = seqdl::ParseInstance(cluster->u, part);
          if (inst.ok()) merged.UnionWith(std::move(*inst));
        }
        std::string out = merged.ToString(cluster->u);
        t.Record("cluster.merge", mb, NowNs());
      }
    } else {
      if (written != op.batch) {
        r.Wrong("op " + std::to_string(i) + ": wrote " + std::to_string(written) + " of " +
                std::to_string(op.batch));
      }
      seqdl::Result<seqdl::Instance> batch = seqdl::Status::Internal("untraced");
      if (t.on()) batch = seqdl::ParseInstance(cluster->u, op.text);
      if (batch.ok()) {
        int64_t sb = NowNs();
        std::vector<seqdl::Instance> parts = coord.partitioner().Split(cluster->u, *batch);
        t.Record("cluster.split", sb, NowNs());
      }
    }
  }
  SampleThreads();
  p.setup_s = setups;
  p.rounds.push_back(std::move(log));
  p.counts = {{"cluster.residual_share",
               static_cast<double>(residual) / static_cast<double>(std::max<size_t>(1, read_ops)),
               "share"}};
  seqdl::Result<seqdl::protocol::DbInfo> info = coord.Info();
  if (info.ok()) r.info["live_facts_end"] = std::to_string(info->facts);
  size_t cached = 0;
  for (auto& s : cluster->shards) cached += s->service->NumCachedPrograms();
  r.info["shard_cached_programs"] = std::to_string(cached);
  r.info["shards"] = "2 (in-process, loopback TCP, 1 worker each)";
  cluster.reset();
  return p;
}

}  // namespace

Report RunClusterMix(const Options& o) {
  Inputs in = Generate(o);
  return RunPasses(o, [&](Tracer& t, const RoundPlan&) { return Pass(in, t); });
}

}  // namespace perfbench
