// durable_ingest: writes beside reads on a durable data directory.
//
// Why: a live EDB that keeps changing while standing programs are read.
// Three standing programs are materialized during setup: motif marking
// with packing over the reads (monotone), co/rp compliance over the
// event logs (stratified negation) and the transitive closure of a
// path-encoded graph (recursion). The timed loop alternates write
// batches with reads of five derived relations of the three programs:
// an append of new reads, logs and an edge, then a retraction of the
// oldest ones, so the live fact count stays constant.
//
// Loads: storage (WAL with sync=always, checkpoints, copy-forward
// compaction every 8 segments), engine append/retract/compact, the
// service's statistics-drift check before each refresh and read, view
// refresh (delta on appends, DRed and stratum recompute on retractions,
// cold re-materialization after a compaction folds tombstones) and term
// rendering, since every read after a write re-renders. Bypasses cold
// ad-hoc evaluation. Every eighth write compacts: that write is the
// cliff of the write latencies (write_p99_us beside the result).
//
// Sizes: kReads reads, kLogs logs, kEdges edges over kNodes nodes,
// plus kArchive archived reads no view reads (13k facts); batches of
// kBatchReads reads, kBatchLogs logs and one edge. A round seeds a fresh
// directory, closes it, reopens it (recovery) and materializes the three
// views (its setup_s sample), then plays kCyclesPerRound cycles. Read
// and write p50 creep up within a round although live facts and answer
// sizes stay flat (the creep follows the distinct values ever written);
// a round bounds it, and within_round_*_p50_us beside the result shows
// it.
//
// The data directory lives under the checkout's work directory; its
// filesystem type is recorded beside the result.
//
// What the traced run showed: one write in eight compacts, and that
// write re-materializes all three views cold (view.cold about 10 ms
// each against about 1 ms for a delta or DRed refresh); engine.append,
// which holds the WAL fsync and the compaction, averages about 7 ms.
// The drift check's Database::Stats() (engine.stats, about 0.4 ms, once
// per read and three times per write) costs more than rendering a read.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iterator>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "perfbench/src/bench.h"
#include "perfbench/src/data.h"
#include "perfbench/src/node.h"
#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/storage/wal.h"
#include "src/syntax/parser.h"
#include "src/view/view.h"

namespace perfbench {
namespace {

constexpr size_t kReads = 600;
/// Facts of a relation no standing program reads: recovery and
/// compaction carry them, views do not.
constexpr size_t kArchive = 12000;
constexpr size_t kLogs = 200;
/// The graph is kComponents disjoint clusters of kNodes / kComponents
/// nodes and kEdges / kComponents edges each: its closure size then
/// varies little from seed to seed. A write replaces one edge of one
/// cluster, round robin, so no cluster grows or shrinks over a run.
constexpr size_t kNodes = 128;
constexpr size_t kComponents = 32;
constexpr size_t kEdges = 128;
constexpr size_t kBatchReads = 4;
constexpr size_t kBatchLogs = 1;
/// Write/read cycles per round (one cycle = append, the kReadsPerWrite
/// reads, retract, the reads again); every round replays them on a
/// fresh data directory.
constexpr size_t kCyclesPerRound = 48;

const char* const kPrograms[3] = {
    "Mark($k, $u ++ <a ++ c ++ g> ++ $v) <- Read($k, $u ++ a ++ c ++ g ++ $v).\n"
    "Marked($k) <- Mark($k, $p).\n",
    "HasRp($k, $v) <- Log($k, $u ++ co ++ $v), $v = $s ++ rp ++ $t.\n---\n"
    "Bad($k) <- Log($k, $x), $x = $u ++ co ++ $v, !HasRp($k, $v).\n---\n"
    "Good($k) <- Log($k, $x), !Bad($k).\n",
    "Reach(@x ++ @y) <- Link(@x ++ @y).\n"
    "Reach(@x ++ @z) <- Reach(@x ++ @y), Link(@y ++ @z).\n"
    "Cyclic(@x) <- Reach(@x ++ @x).\n",
};

/// What a client reads after every write: derived relations of each
/// standing program. Their renderings differ in cost (Mark is the
/// largest by far), so the count is odd: with an even count the read
/// p50 would fall on the step between the two middle outputs' costs and
/// jump with the least noise.
struct Answer {
  int program;
  const char* output;
};
constexpr Answer kAnswers[] = {{0, "Mark"}, {0, "Marked"}, {1, "Good"}, {1, "Bad"}, {2, "Reach"}};
constexpr size_t kReadsPerWrite = std::size(kAnswers);

struct Op {
  enum Kind { kAppend, kRetract, kRead } kind = kRead;
  std::string payload;
  std::string facts;       // write batch text
  size_t batch = 0;        // facts in the batch
  size_t read = 0;         // kRead: index into kAnswers
  uint64_t expect = 0;     // kRead: hash of the expected rendering
};

/// Fixed-width keys, so renderings do not grow as the run mints keys.
std::string Key(const char* prefix, size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%07zu", prefix, n);
  return buf;
}

struct Inputs {
  std::string edb_text;
  std::string read_payloads[kReadsPerWrite];
  std::vector<Op> ops;
  size_t live_facts = 0;
};

/// The live EDB as the benchmark tracks it, with the expected renderings
/// of every read derived from it in plain C++.
struct Live {
  std::deque<std::pair<std::string, Seq>> reads, logs;
  std::deque<std::pair<uint32_t, uint32_t>> edges;

  std::string ReadFact(const std::pair<std::string, Seq>& r) const {
    return "Read(" + r.first + ", " + PathText(r.second) + ").\n";
  }
  std::string LogFact(const std::pair<std::string, Seq>& l) const {
    return "Log(" + l.first + ", " + PathText(l.second) + ").\n";
  }
  static std::string EdgeFact(std::pair<uint32_t, uint32_t> e) {
    return "Link(" + NodeName(e.first) + " ++ " + NodeName(e.second) + ").\n";
  }
  uint64_t Expect(const std::string& output) const {
    std::set<std::string> lines;
    if (output == "Mark" || output == "Marked") {
      for (const auto& [k, s] : reads) {
        std::set<std::string> marks;
        MotifLines(s, {"a", "c", "g"}, "Mark", k, &marks);
        if (output == "Mark") lines.insert(marks.begin(), marks.end());
        else if (!marks.empty()) lines.insert("Marked(" + k + ").");
      }
    } else if (output == "Good" || output == "Bad") {
      for (const auto& [k, s] : logs) {
        if (Complies(s, "co", "rp") == (output == "Good")) lines.insert(output + "(" + k + ").");
      }
    } else {
      seqdl::Graph g;
      g.nodes = kNodes;
      g.edges.assign(edges.begin(), edges.end());
      for (const auto& [x, y] : Closure(g)) {
        if (output == "Reach") {
          lines.insert("Reach(" + NodeName(x) + "\xC2\xB7" + NodeName(y) + ").");
        } else if (x == y) {
          lines.insert("Cyclic(" + NodeName(x) + ").");
        }
      }
    }
    return Fnv(RenderLines(lines));
  }
};

Inputs Generate(const Options& o) {
  Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 37);
  Inputs in;
  Live live;
  size_t next_read = 0, next_log = 0;
  std::set<std::pair<uint32_t, uint32_t>> edge_set;
  std::vector<std::deque<std::pair<uint32_t, uint32_t>>> cluster(kComponents);
  auto new_edge = [&](size_t c) {
    constexpr size_t kSize = kNodes / kComponents;
    uint32_t base = static_cast<uint32_t>(c * kSize);
    while (true) {
      std::pair<uint32_t, uint32_t> e{base + static_cast<uint32_t>(rng() % kSize),
                                      base + static_cast<uint32_t>(rng() % kSize)};
      if (edge_set.insert(e).second) {
        cluster[c].push_back(e);
        return e;
      }
    }
  };
  for (size_t i = 0; i < kReads; ++i) {
    live.reads.emplace_back(Key("r", next_read++), RandomDna(rng, 24, 40));
    in.edb_text += live.ReadFact(live.reads.back());
  }
  for (size_t i = 0; i < kLogs; ++i) {
    live.logs.emplace_back(Key("c", next_log++), RandomLog(rng, 6, 14));
    in.edb_text += live.LogFact(live.logs.back());
  }
  for (size_t i = 0; i < kEdges; ++i) {
    live.edges.push_back(new_edge(i % kComponents));
    in.edb_text += Live::EdgeFact(live.edges.back());
  }
  for (size_t i = 0; i < kArchive; ++i) {
    in.edb_text += "Archive(a" + std::to_string(i) + ", " + PathText(RandomDna(rng, 24, 40)) + ").\n";
  }
  in.live_facts = kReads + kLogs + kEdges + kArchive;
  for (size_t k = 0; k < kReadsPerWrite; ++k) {
    seqdl::protocol::RunRequest req;
    req.program = kPrograms[kAnswers[k].program];
    req.source_name = "standing.sdl";
    req.output_rel = kAnswers[k].output;
    in.read_payloads[k] = PayloadOf(seqdl::protocol::EncodeRunRequest(req));
  }
  auto reads_after_write = [&] {
    for (size_t k = 0; k < kReadsPerWrite; ++k) {
      Op op;
      op.kind = Op::kRead;
      op.payload = in.read_payloads[k];
      op.read = k;
      op.expect = live.Expect(kAnswers[k].output);
      in.ops.push_back(std::move(op));
    }
  };
  size_t cycles = kCyclesPerRound;
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    Op add;
    add.kind = Op::kAppend;
    for (size_t i = 0; i < kBatchReads; ++i) {
      live.reads.emplace_back(Key("r", next_read++), RandomDna(rng, 24, 40));
      add.facts += live.ReadFact(live.reads.back());
    }
    for (size_t i = 0; i < kBatchLogs; ++i) {
      live.logs.emplace_back(Key("c", next_log++), RandomLog(rng, 6, 14));
      add.facts += live.LogFact(live.logs.back());
    }
    size_t c = cycle % kComponents;
    live.edges.push_back(new_edge(c));
    add.facts += Live::EdgeFact(live.edges.back());
    add.batch = kBatchReads + kBatchLogs + 1;
    seqdl::protocol::AppendRequest areq{add.facts, "batch.sdl"};
    add.payload = PayloadOf(seqdl::protocol::EncodeAppendRequest(areq));
    in.ops.push_back(std::move(add));
    reads_after_write();

    Op del;
    del.kind = Op::kRetract;
    for (size_t i = 0; i < kBatchReads; ++i) {
      del.facts += live.ReadFact(live.reads.front());
      live.reads.pop_front();
    }
    for (size_t i = 0; i < kBatchLogs; ++i) {
      del.facts += live.LogFact(live.logs.front());
      live.logs.pop_front();
    }
    std::pair<uint32_t, uint32_t> oldest = cluster[c].front();
    cluster[c].pop_front();
    edge_set.erase(oldest);
    live.edges.erase(std::find(live.edges.begin(), live.edges.end(), oldest));
    del.facts += Live::EdgeFact(oldest);
    del.batch = kBatchReads + kBatchLogs + 1;
    seqdl::protocol::RetractRequest rreq{del.facts, "batch.sdl"};
    del.payload = PayloadOf(seqdl::protocol::EncodeRetractRequest(rreq));
    in.ops.push_back(std::move(del));
    reads_after_write();
  }
  return in;
}

/// The service's program-cache entry of a standing program, kept by the
/// traced path: the plan, the epoch it was compiled at and the
/// statistics it was compiled against.
struct Standing {
  std::optional<seqdl::PreparedProgram> prog;
  uint64_t epoch = 0;
  seqdl::StoreStats stats;
};

/// DatabaseService::Prepare on a cached standing program, split: at a
/// new epoch it measures the statistics' drift since the plan was
/// compiled (engine.stats) and recompiles past the service's
/// recompile_drift. Counts the recompiles.
seqdl::Status TracedPrepare(Node& n, Tracer& t, int p, Standing& s, uint64_t* recompiles) {
  seqdl::Database& db = n.service->db();
  if (db.epoch() == s.epoch) return seqdl::Status();
  double drift = 0;
  {
    Scope sc(t, "engine.stats");
    drift = seqdl::StatsDrift(s.stats, db.Stats());
  }
  if (drift < ServeDefaults().recompile_drift) return seqdl::Status();
  uint64_t epoch = db.epoch();
  SEQDL_ASSIGN_OR_RETURN(seqdl::PreparedProgram fresh, TracedCompile(n, t, kPrograms[p], &s.stats));
  s.prog.emplace(std::move(fresh));
  s.epoch = epoch;
  ++*recompiles;
  return seqdl::Status();
}

/// The traced write: the service's Append/Retract, split: decode, parse
/// the batch, append or retract, then for each standing program the
/// service's Prepare and the eager view refresh, classed by which
/// ViewManager counter moved. Returns the number of facts written.
seqdl::Result<size_t> TracedWrite(Node& n, Tracer& t, const Op& op, std::vector<Standing>& progs,
                                  uint64_t* recompiles) {
  seqdl::Result<seqdl::protocol::Request> req = seqdl::Status::Internal("unset");
  {
    Scope s(t, "server.decode");
    req = seqdl::protocol::DecodeRequest(op.payload);
  }
  if (!req.ok()) return req.status();
  const std::string& text = op.kind == Op::kAppend ? req->append.facts : req->retract.facts;
  seqdl::Result<seqdl::Instance> batch = seqdl::Status::Internal("unset");
  {
    Scope s(t, "syntax.parse_facts");
    batch = seqdl::ParseInstance(n.u, text);
  }
  if (!batch.ok()) return batch.status();
  seqdl::Database& db = n.service->db();
  size_t written = 0;
  {
    Scope s(t, "engine.append");
    seqdl::Result<uint64_t> epoch = op.kind == Op::kAppend ? db.Append(std::move(*batch), &written)
                                                           : db.Retract(std::move(*batch), &written);
    if (!epoch.ok()) return epoch.status();
  }
  for (int p = 0; p < 3; ++p) {
    SEQDL_RETURN_IF_ERROR(TracedPrepare(n, t, p, progs[p], recompiles));
    seqdl::ViewManager::Counters before = db.views().counters();
    int64_t b = NowNs();
    seqdl::Result<std::shared_ptr<const seqdl::ViewSnapshot>> view =
        db.views().Refresh(kPrograms[p], *progs[p].prog);
    int64_t e = NowNs();
    if (!view.ok()) return view.status();
    seqdl::ViewManager::Counters after = db.views().counters();
    const char* name = after.cold_runs > before.cold_runs           ? "view.cold"
                       : after.dred_refreshes > before.dred_refreshes ? "view.dred"
                                                                      : "view.delta";
    t.Record(name, b, e);
  }
  n.service->Info();  // the reply's DbInfo
  return written;
}

/// The traced read of a standing program after a write: the result
/// cache misses (new epoch), the service's Prepare runs, and the view is
/// current (the write refreshed it), so the rest is the refresh hit, the
/// render and the encode.
seqdl::Result<std::string> TracedRead(Node& n, Tracer& t, const Op& op, std::vector<Standing>& progs,
                                      uint64_t* recompiles) {
  seqdl::Result<seqdl::protocol::Request> req = seqdl::Status::Internal("unset");
  {
    Scope s(t, "server.decode");
    req = seqdl::protocol::DecodeRequest(op.payload);
  }
  if (!req.ok()) return req.status();
  int prog = kAnswers[op.read].program;
  SEQDL_RETURN_IF_ERROR(TracedPrepare(n, t, prog, progs[prog], recompiles));
  seqdl::Result<std::shared_ptr<const seqdl::ViewSnapshot>> view = seqdl::Status::Internal("unset");
  {
    Scope s(t, "view.lookup");
    view = n.service->db().views().Refresh(kPrograms[prog], *progs[prog].prog);
  }
  if (!view.ok()) return view.status();
  seqdl::protocol::RunReply reply;
  {
    Scope s(t, "term.render");
    SEQDL_ASSIGN_OR_RETURN(seqdl::RelId rel, n.u.FindRel(req->run.output_rel));
    reply.rendered = (*view)->idb().Project({rel}).ToString(n.u);
  }
  {
    Scope s(t, "server.encode");
    std::string frame = seqdl::protocol::EncodeRunReply(reply);
    if (frame.size() < reply.rendered.size()) return seqdl::Status::Internal("encode");
  }
  return std::move(reply.rendered);
}

/// Seeds a fresh data directory, closes it, reopens it (recovery) and
/// materializes the standing views: one round's set-up.
seqdl::Result<std::unique_ptr<Node>> SetUp(const Inputs& in, const std::string& dir,
                                           double* recover_s) {
  auto n = std::make_unique<Node>();
  {
    SEQDL_ASSIGN_OR_RETURN(seqdl::Instance edb, seqdl::ParseInstance(n->u, in.edb_text));
    SEQDL_ASSIGN_OR_RETURN(seqdl::Database seeded,
                           seqdl::Database::Open(n->u, std::move(edb), OpenDefaults(dir)));
    seeded.Close();
  }
  // Recovery into a fresh universe, as a restarted server would.
  n = std::make_unique<Node>();
  int64_t t1 = NowNs();
  SEQDL_ASSIGN_OR_RETURN(seqdl::Database db, seqdl::Database::Open(n->u, OpenDefaults(dir)));
  db.Stats();
  *recover_s = static_cast<double>(NowNs() - t1) / 1e9;
  n->Serve(std::move(db));
  for (const std::string& payload : in.read_payloads) {
    SEQDL_RETURN_IF_ERROR(RenderedOf(n->Handle(payload)).status());
  }
  return n;
}

/// The standing programs compiled the way the service compiled them
/// during set-up (same epoch, same statistics), for the traced path.
seqdl::Result<std::vector<Standing>> CompileStanding(Node& n) {
  std::vector<Standing> progs;
  seqdl::Database& db = n.service->db();
  for (const char* text : kPrograms) {
    Standing s;
    s.epoch = db.epoch();
    s.stats = db.Stats();
    SEQDL_ASSIGN_OR_RETURN(seqdl::Program prog, seqdl::ParseProgram(n.u, text));
    seqdl::CompileOptions copts;
    copts.stats = &s.stats;
    SEQDL_ASSIGN_OR_RETURN(seqdl::PreparedProgram prepared,
                           seqdl::Engine::Compile(n.u, std::move(prog), copts));
    s.prog.emplace(std::move(prepared));
    progs.push_back(std::move(s));
  }
  return progs;
}

/// One pass: rounds of set-up on a fresh data directory and the op
/// sequence.
PassResult Pass(const Options& o, const Inputs& in, Tracer& t, const RoundPlan& plan) {
  PassResult p;
  Report& r = p.r;
  std::vector<double> recover_s, handle_us, read_us[kReadsPerWrite], append_us, retract_us;
  std::string dir = o.work_dir + "/durable-" + std::to_string(::getpid()) + (t.on() ? "-traced" : "");
  for (Rounds rounds(plan); rounds.Next();) {
    RemoveTree(dir);
    int64_t t0 = NowNs();
    double recover = 0;
    seqdl::Result<std::unique_ptr<Node>> set_up = SetUp(in, dir, &recover);
    if (!set_up.ok()) {
      r.Wrong("set-up: " + set_up.status().ToString());
      return p;
    }
    p.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    recover_s.push_back(recover);
    Node& node = **set_up;
    r.info["data_dir_fs"] = FsType(dir);

    std::vector<Standing> progs;
    uint64_t recompiles = 0;
    std::unique_ptr<seqdl::storage::WalWriter> side_log;
    if (t.on()) {
      seqdl::Result<std::vector<Standing>> compiled = CompileStanding(node);
      if (!compiled.ok()) {
        r.Wrong("compile: " + compiled.status().ToString());
        return p;
      }
      progs = std::move(*compiled);
      RemoveTree(dir + "-side");
      std::filesystem::create_directories(dir + "-side");
      seqdl::Result<seqdl::storage::WalWriter> w = seqdl::storage::WalWriter::Open(
          dir + "-side/side.wal", seqdl::storage::SyncMode::kAlways, 100);
      if (!w.ok()) {
        r.Wrong("side log: " + w.status().ToString());
        return p;
      }
      side_log = std::make_unique<seqdl::storage::WalWriter>(std::move(*w));
    }

    seqdl::ViewManager::Counters vbefore = node.service->db().views().counters();
    seqdl::protocol::DbInfo info0 = node.service->Info();
    OpLog log;
    log.ops.reserve(in.ops.size());
    uint64_t segments_sum = 0, compactions = 0, writes_done = 0, wal_bytes_sum = 0;
    uint64_t last_segments = info0.segments;
    uint64_t half_bytes[2][kReadsPerWrite] = {}, half_reads[2][kReadsPerWrite] = {};
    size_t half = in.ops.size() / 2;
    for (size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      int h = i < half ? 0 : 1;
      t.set_op(static_cast<uint32_t>(i));
      ++r.attempted;
      int64_t b = NowNs(), e = 0;
      if (op.kind == Op::kRead) {
        seqdl::Result<std::string> rendered = seqdl::Status::Internal("unset");
        if (t.on()) {
          {
            Scope s(t, "op");
            rendered = TracedRead(node, t, op, progs, &recompiles);
          }
          e = NowNs();
        } else {
          std::string frame = node.Handle(op.payload);
          e = NowNs();
          rendered = RenderedOf(frame);
        }
        if (!rendered.ok()) {
          ++r.failed;
          continue;
        }
        if (Fnv(*rendered) != op.expect) {
          r.Wrong("op " + std::to_string(i) + " (" + kAnswers[op.read].output + "): wrong answer");
        }
        log.Add(OpLog::kRead, b, e);
        if (rounds.measured()) read_us[op.read].push_back(static_cast<double>(e - b) / 1e3);
        half_bytes[h][op.read] += rendered->size();
        ++half_reads[h][op.read];
        continue;
      }
      seqdl::Result<size_t> written = seqdl::Status::Internal("unset");
      if (t.on()) {
        {
          Scope s(t, "op");
          written = TracedWrite(node, t, op, progs, &recompiles);
        }
        e = NowNs();
      } else {
        std::string frame = node.Handle(op.payload);
        e = NowNs();
        seqdl::Result<seqdl::protocol::Reply> reply =
            seqdl::protocol::DecodeReply(std::string_view(frame).substr(4));
        if (!reply.ok()) written = reply.status();
        else if (!reply->status.ok()) written = reply->status;
        else written = op.kind == Op::kAppend ? reply->append.appended : reply->retract.retracted;
      }
      if (!written.ok()) {
        ++r.failed;
        continue;
      }
      if (*written != op.batch) {
        r.Wrong("op " + std::to_string(i) + ": wrote " + std::to_string(*written) + " of " +
                std::to_string(op.batch) + " facts");
      }
      log.Add(OpLog::kWrite, b, e);
      if (rounds.measured()) {
        (op.kind == Op::kAppend ? append_us : retract_us).push_back(static_cast<double>(e - b) / 1e3);
      }
      if (t.on()) {
        // The same batch under the same sync mode to a side log, outside
        // the op: the WAL's share of a write without the writer lock.
        seqdl::Result<seqdl::Instance> batch = seqdl::ParseInstance(node.u, op.facts);
        seqdl::Status st = batch.status();
        if (batch.ok()) {
          int64_t wb = NowNs();
          st = side_log->Append(op.kind == Op::kAppend ? seqdl::storage::WalRecordType::kAppend
                                                       : seqdl::storage::WalRecordType::kRetract,
                                node.u, *batch);
          t.Record("storage.wal_append", wb, NowNs());
        }
        if (!st.ok()) r.Wrong("side log: " + st.ToString());
      }
      seqdl::protocol::DbInfo now = node.service->Info();
      wal_bytes_sum += now.wal_bytes;
      uint64_t segs = now.segments;
      if (segs < last_segments) ++compactions;
      last_segments = segs;
      segments_sum += segs;
      ++writes_done;
    }
    SampleThreads();
    if (rounds.measured()) {
      seqdl::protocol::DbInfo info = node.service->Info();
      seqdl::ViewManager::Counters v = node.service->db().views().counters();
      handle_us.push_back(MeanUs(log));
      p.rounds.push_back(std::move(log));
      p.states.push_back(StateOf(node));
      r.info["disk_bytes_per_fact"] = std::to_string(
          static_cast<double>(info.on_disk_bytes + info.wal_bytes) / static_cast<double>(info.facts));
      r.info["edb_facts"] = std::to_string(in.live_facts);
      // The size of each read's answer in each half of a round: the
      // views' own drift, context for the p50s.
      for (size_t k = 0; k < kReadsPerWrite; ++k) {
        auto mean = [&](int h) {
          return static_cast<double>(half_bytes[h][k]) /
                 static_cast<double>(std::max<uint64_t>(1, half_reads[h][k]));
        };
        r.info[std::string("answer_bytes.") + kAnswers[k].output] =
            std::to_string(mean(0)) + " -> " + std::to_string(mean(1));
      }
      double n_writes = static_cast<double>(std::max<uint64_t>(1, writes_done));
      double facts = static_cast<double>(info.facts);
      p.counts = {
          {"engine.compactions", static_cast<double>(compactions), "count"},
          {"engine.segments", static_cast<double>(segments_sum) / n_writes, "count"},
          {"view.delta_refreshes", static_cast<double>(v.delta_refreshes - vbefore.delta_refreshes), "count"},
          {"view.dred_refreshes", static_cast<double>(v.dred_refreshes - vbefore.dred_refreshes), "count"},
          {"view.cold_runs", static_cast<double>(v.cold_runs - vbefore.cold_runs), "count"},
          {"view.strata_recomputed", static_cast<double>(v.strata_recomputed - vbefore.strata_recomputed), "count"},
          {"storage.wal_bytes_per_fact", static_cast<double>(wal_bytes_sum) / n_writes / facts, "B/fact"},
          {"storage.checkpoints", static_cast<double>(info.manifest_generation - info0.manifest_generation), "count"},
      };
      if (t.on()) p.counts.push_back({"server.recompiles", static_cast<double>(recompiles), "count"});
    }
    set_up->reset();
    side_log.reset();
    RemoveTree(dir);
    RemoveTree(dir + "-side");
  }
  // Latency of each kind of op, pooled over the measured rounds.
  auto shape = [](std::vector<double> v) {
    return std::to_string(Percentile(v, 0.5)) + " / " + std::to_string(Percentile(v, 0.99));
  };
  for (size_t k = 0; k < kReadsPerWrite; ++k) {
    r.info[std::string("read_p50_p99_us.") + kAnswers[k].output] = shape(read_us[k]);
  }
  r.info["append_p50_p99_us"] = shape(append_us);
  r.info["retract_p50_p99_us"] = shape(retract_us);
  p.counts.push_back({"server.handle_us", Median(handle_us), "us"});
  p.counts.push_back({"storage.recover_s", Median(recover_s), "s"});
  return p;
}

}  // namespace

Report RunDurableIngest(const Options& o) {
  Inputs in = Generate(o);
  return RunPasses(o, [&](Tracer& t, const RoundPlan& plan) { return Pass(o, in, t, plan); });
}

}  // namespace perfbench
