#include "src/cluster/coordinator.h"

#include <algorithm>
#include <set>
#include <thread>
#include <utility>

#include "src/analysis/locality.h"
#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/syntax/ast.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"

namespace seqdl {

namespace {

/// The client layer's transport failures are distinguishable from
/// server-side application errors only by message (the wire carries raw
/// status codes, and e.g. kNotFound is both "cannot connect" and a
/// server's "no such relation"). These are the frame/socket layer's
/// fixed message stems.
bool LooksLikeTransportFailure(const Status& st) {
  if (st.code() == StatusCode::kDeadlineExceeded) return true;
  const std::string& m = st.message();
  auto has = [&m](const char* stem) {
    return m.find(stem) != std::string::npos;
  };
  return has("cannot connect") || has("send failed") || has("recv failed") ||
         has("connection closed") || has("truncated frame") ||
         has("oversized frame") || has("client is closed");
}

/// Shard counters sum; wall times take the max — the shards ran in
/// parallel, so the slowest one is the cluster's wall time.
void Accumulate(protocol::WireEvalStats* into,
                const protocol::WireEvalStats& s) {
  into->derived_facts += s.derived_facts;
  into->rounds = std::max(into->rounds, s.rounds);
  into->rule_firings += s.rule_firings;
  into->index_probes += s.index_probes;
  into->prefix_probes += s.prefix_probes;
  into->suffix_probes += s.suffix_probes;
  into->full_scans += s.full_scans;
  into->delta_scans += s.delta_scans;
  into->compile_seconds = std::max(into->compile_seconds, s.compile_seconds);
  into->run_seconds = std::max(into->run_seconds, s.run_seconds);
}

/// The residual path's shard-side query: one copy rule per EDB relation
/// of the user's program, each deriving into a fresh *alias* relation
/// ("__gather_R(vars) <- R(vars)"), so a plain `run` returns exactly the
/// shard's partition of those relations. The alias is load-bearing: a
/// shard answers with the *derived* overlay only, and derived facts that
/// duplicate visible base facts are suppressed — an identity rule with
/// the EDB relation itself as head would dump nothing. `aliases` maps
/// each alias RelId back to the real one for re-assembly at the
/// coordinator. No new message type, no special shard support.
Result<Program> BuildDumpProgram(
    Universe& u, const std::set<RelId>& edb_rels,
    std::vector<std::pair<RelId, RelId>>* aliases) {
  Program dump;
  dump.strata.emplace_back();
  for (RelId rel : edb_rels) {
    // Pick an alias name no relation the coordinator has seen uses (a
    // shard could only collide via a write that bypassed the
    // coordinator, which already forfeits coherence — see the cache
    // caveat in the file comment).
    std::string alias_name = "__gather_" + u.RelName(rel);
    while (u.FindRel(alias_name).ok()) alias_name += '_';
    uint32_t arity = u.RelArity(rel);
    SEQDL_ASSIGN_OR_RETURN(RelId alias, u.InternRel(alias_name, arity));
    aliases->emplace_back(alias, rel);

    Rule r;
    r.head.rel = alias;
    Predicate body;
    body.rel = rel;
    for (uint32_t i = 0; i < arity; ++i) {
      std::string var = "d";
      var += std::to_string(i);
      VarId v = u.InternVar(VarKind::kPath, var);
      PathExpr e = VarExpr(u, v);
      r.head.args.push_back(e);
      body.args.push_back(e);
    }
    r.body.push_back(Literal::Pred(std::move(body)));
    dump.strata[0].rules.push_back(std::move(r));
  }
  return dump;
}

}  // namespace

Result<std::vector<ShardAddress>> ParseShardList(std::string_view spec) {
  std::vector<ShardAddress> shards;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string_view item = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) {
      return Status::InvalidArgument(
          "empty shard entry: expected host:port[,host:port...]");
    }
    size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == item.size()) {
      return Status::InvalidArgument("bad shard address '" +
                                     std::string(item) +
                                     "': expected host:port");
    }
    ShardAddress addr;
    addr.host = std::string(item.substr(0, colon));
    uint32_t port = 0;
    for (char c : item.substr(colon + 1)) {
      if (c < '0' || c > '9' || port > 65535) {
        return Status::InvalidArgument("bad shard port in '" +
                                       std::string(item) + "'");
      }
      port = port * 10 + static_cast<uint32_t>(c - '0');
    }
    if (port == 0 || port > 65535) {
      return Status::InvalidArgument("bad shard port in '" +
                                     std::string(item) + "'");
    }
    addr.port = static_cast<uint16_t>(port);
    shards.push_back(std::move(addr));
  }
  if (shards.empty()) {
    return Status::InvalidArgument(
        "empty shard list: expected host:port[,host:port...]");
  }
  return shards;
}

Coordinator::Coordinator(Universe& u, std::vector<ShardAddress> shards,
                         CoordinatorOptions opts)
    : u_(&u),
      opts_(std::move(opts)),
      partitioner_(static_cast<uint32_t>(shards.size()), opts_.partition),
      epochs_(shards.size()) {
  shards_.reserve(shards.size());
  for (ShardAddress& addr : shards) {
    auto shard = std::make_unique<Shard>();
    shard->addr = std::move(addr);
    shards_.push_back(std::move(shard));
  }
}

ClientOptions Coordinator::MakeClientOptions() const {
  ClientOptions copts;
  copts.connect_timeout_ms = opts_.connect_timeout_ms;
  copts.io_timeout_ms = opts_.io_timeout_ms;
  copts.max_frame_bytes = opts_.max_frame_bytes;
  return copts;
}

Status Coordinator::NameShardError(size_t i, const Status& st) const {
  StatusCode code = st.code();
  if (code != StatusCode::kDeadlineExceeded && LooksLikeTransportFailure(st)) {
    code = StatusCode::kUnavailable;
  }
  return Status(code,
                "shard " + shards_[i]->addr.ToString() + ": " + st.message());
}

void Coordinator::UpdateEpoch(size_t i, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  TrackedEpoch& t = epochs_[i];
  // Epochs are monotonic per shard; a pinned-run epoch may trail a
  // racing append's, so only move forward.
  if (!t.known || epoch > t.epoch) {
    t.known = true;
    t.epoch = std::max(t.epoch, epoch);
  }
}

std::vector<Coordinator::TrackedEpoch> Coordinator::SnapshotEpochs() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epochs_;
}

template <typename T>
Result<T> Coordinator::CallShard(size_t i,
                                 const std::function<Result<T>(Client&)>& fn) {
  Shard& s = *shards_[i];
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.client.has_value()) {
    Result<Client> c =
        Client::Connect(s.addr.host, s.addr.port, MakeClientOptions());
    if (!c.ok()) return NameShardError(i, c.status());
    // Handshake before anything else: a mismatched shard fails every
    // request with the structured version error, never a misdecode.
    Result<protocol::HelloReply> hello = c->Hello();
    if (!hello.ok()) return NameShardError(i, hello.status());
    Result<protocol::DbInfo> info = c->Epoch();
    if (!info.ok()) return NameShardError(i, info.status());
    UpdateEpoch(i, info->epoch);
    s.client.emplace(std::move(*c));
  }
  Result<T> r = fn(*s.client);
  if (!r.ok() && LooksLikeTransportFailure(r.status())) {
    // The stream position is unknown after a transport/deadline failure:
    // drop the connection (the next call reconnects) and name the shard.
    s.client.reset();
    return NameShardError(i, r.status());
  }
  return r;
}

template <typename T>
std::vector<Result<T>> Coordinator::Scatter(
    const std::function<Result<T>(Client&, size_t)>& fn) {
  std::vector<Result<T>> out(
      shards_.size(), Result<T>(Status::Internal("shard call not reached")));
  std::vector<std::thread> threads;
  threads.reserve(shards_.size() > 0 ? shards_.size() - 1 : 0);
  for (size_t i = 1; i < shards_.size(); ++i) {
    threads.emplace_back([this, &fn, &out, i] {
      out[i] = CallShard<T>(
          i, [&fn, i](Client& c) { return fn(c, i); });
    });
  }
  out[0] =
      CallShard<T>(0, [&fn](Client& c) { return fn(c, 0); });
  for (std::thread& t : threads) t.join();
  return out;
}

template <typename T>
Status Coordinator::FirstError(const std::vector<Result<T>>& results) const {
  for (const Result<T>& r : results) {
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

Result<protocol::CompileReply> Coordinator::Compile(
    const protocol::CompileRequest& req) {
  // Parse locally first: a parse error costs no shard traffic and is
  // annotated with the client's source name exactly as a server would.
  Result<Program> program = ParseProgram(*u_, req.program);
  if (!program.ok()) {
    return protocol::AnnotateParseError(req.source_name, program.status());
  }

  std::vector<Result<protocol::CompileReply>> results =
      Scatter<protocol::CompileReply>(
          [&req](Client& c, size_t) {
            return c.Compile(req.program, req.source_name);
          });
  SEQDL_RETURN_IF_ERROR(FirstError(results));

  protocol::CompileReply reply = *results[0];
  reply.cache_hit = true;
  for (const Result<protocol::CompileReply>& r : results) {
    reply.cache_hit = reply.cache_hit && r->cache_hit;
    reply.compile_seconds = std::max(reply.compile_seconds,
                                     r->compile_seconds);
  }

  // Ride the cluster's own findings along with the shard's lints: the
  // SD2xx locality classification tells the client where its query will
  // execute (see analysis/locality.h).
  LocalityOptions lopts;
  for (const std::string& name : opts_.partition.broadcast) {
    Result<RelId> rel = u_->FindRel(name);
    if (rel.ok()) lopts.broadcast.insert(*rel);
  }
  DiagnosticList diags;
  AnalyzeLocality(*u_, *program, lopts, &diags);
  for (const Diagnostic& d : diags.all()) {
    reply.diagnostics.push_back(protocol::ToWire(d));
  }
  return reply;
}

Result<protocol::RunReply> Coordinator::Run(
    const protocol::RunRequest& req, const std::function<bool()>& cancel) {
  Result<Program> program = ParseProgram(*u_, req.program);
  if (!program.ok()) {
    return protocol::AnnotateParseError(req.source_name, program.status());
  }

  const std::string cache_key = req.output_rel + '\n' + req.program;
  if (opts_.result_cache_entries > 0) {
    std::optional<protocol::RunReply> hit = CacheLookup(cache_key);
    if (hit.has_value()) return *std::move(hit);
  }

  LocalityOptions lopts;
  bool pinned = false;
  for (RelId rel : AllRels(*program)) {
    const std::string& name = u_->RelName(rel);
    if (opts_.partition.broadcast.count(name) != 0) {
      lopts.broadcast.insert(rel);
    }
    pinned = pinned || opts_.partition.pinned.count(name) != 0;
  }
  LocalityReport report = AnalyzeLocality(*u_, *program, lopts);

  std::vector<uint64_t> pinned_epochs;
  Result<protocol::RunReply> reply =
      (report.cls == LocalityClass::kTransparent && !pinned)
          ? RunTransparent(req, &pinned_epochs)
          : RunResidual(req, std::move(program).value(), cancel,
                        &pinned_epochs);
  if (reply.ok() && opts_.result_cache_entries > 0 &&
      pinned_epochs.size() == shards_.size()) {
    CacheStore(cache_key, std::move(pinned_epochs), *reply);
  }
  return reply;
}

Result<protocol::RunReply> Coordinator::RunTransparent(
    const protocol::RunRequest& req, std::vector<uint64_t>* pinned_epochs) {
  std::vector<Result<protocol::RunReply>> results =
      Scatter<protocol::RunReply>([&req](Client& c, size_t) {
        return c.Run(req.program, req.output_rel, req.source_name);
      });
  SEQDL_RETURN_IF_ERROR(FirstError(results));

  protocol::RunReply out;
  Instance merged;
  for (size_t i = 0; i < results.size(); ++i) {
    const protocol::RunReply& r = *results[i];
    UpdateEpoch(i, r.epoch);
    pinned_epochs->push_back(r.epoch);
    out.epoch += r.epoch;
    out.segments += r.segments;
    Accumulate(&out.stats, r.stats);
    // Shard answers are Instance::ToString renderings; re-parsing into
    // the coordinator's universe and unioning dedupes the overlap
    // (broadcast-derived facts appear on every shard) with set
    // semantics, and the final ToString is sorted — byte-identical to a
    // single-node rendering of the same fact set.
    SEQDL_ASSIGN_OR_RETURN(Instance part, ParseInstance(*u_, r.rendered));
    merged.UnionWith(std::move(part));
  }
  out.rendered = merged.ToString(*u_);
  return out;
}

Result<protocol::RunReply> Coordinator::RunResidual(
    const protocol::RunRequest& req, Program program,
    const std::function<bool()>& cancel,
    std::vector<uint64_t>* pinned_epochs) {
  protocol::RunReply out;
  Instance gathered;
  std::set<RelId> edb_rels = EdbRels(program);
  if (!edb_rels.empty()) {
    std::vector<std::pair<RelId, RelId>> aliases;
    SEQDL_ASSIGN_OR_RETURN(Program dump,
                           BuildDumpProgram(*u_, edb_rels, &aliases));
    std::string dump_text = FormatProgram(*u_, dump);
    std::vector<Result<protocol::RunReply>> results =
        Scatter<protocol::RunReply>([&dump_text](Client& c, size_t) {
          return c.Run(dump_text, /*output_rel=*/"",
                       /*source_name=*/"<edb-gather>");
        });
    SEQDL_RETURN_IF_ERROR(FirstError(results));
    for (size_t i = 0; i < results.size(); ++i) {
      const protocol::RunReply& r = *results[i];
      UpdateEpoch(i, r.epoch);
      pinned_epochs->push_back(r.epoch);
      out.epoch += r.epoch;
      out.segments += r.segments;
      SEQDL_ASSIGN_OR_RETURN(Instance part, ParseInstance(*u_, r.rendered));
      // Un-alias: the shards answered under the dump's alias heads.
      for (const auto& [alias, real] : aliases) {
        for (TupleRef t : part.Tuples(alias)) gathered.Add(real, t);
      }
    }
  }

  // Finish locally with single-node machinery end to end — Database +
  // Session::Run has exactly the derived-only overlay semantics a
  // standalone server renders, so the answer matches byte for byte.
  SEQDL_ASSIGN_OR_RETURN(PreparedProgram prepared,
                         Engine::Compile(*u_, std::move(program), {}));
  SEQDL_ASSIGN_OR_RETURN(Database db,
                         Database::Open(*u_, std::move(gathered)));
  Session session = db.Snapshot();
  RunOptions ropts = opts_.residual_run;
  AddCancel(&ropts, cancel);
  EvalStats stats;
  SEQDL_ASSIGN_OR_RETURN(Instance derived, session.Run(prepared, ropts,
                                                       &stats));
  SEQDL_ASSIGN_OR_RETURN(out.rendered,
                         RenderOutput(*u_, derived, req.output_rel));
  out.stats = protocol::ToWire(stats);
  return out;
}

Result<protocol::AppendReply> Coordinator::Append(
    const protocol::AppendRequest& req) {
  Result<Instance> parsed = ParseInstance(*u_, req.facts);
  if (!parsed.ok()) {
    return protocol::AnnotateParseError(req.source_name, parsed.status());
  }

  // Route partitioned facts to their owners; broadcast facts go to every
  // shard but are *counted* once (shard 0's reply), so the aggregate
  // matches what a single node would have reported.
  std::vector<Instance> routed(shards_.size());
  Instance bcast;
  for (RelId rel : parsed->Relations()) {
    bool is_bcast = partitioner_.IsBroadcast(*u_, rel);
    for (TupleRef t : parsed->Tuples(rel)) {
      if (is_bcast) {
        bcast.Add(rel, t);
      } else {
        routed[partitioner_.ShardOf(*u_, rel, t)].Add(rel, t);
      }
    }
  }

  protocol::AppendReply out;
  std::vector<std::string> routed_text(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!routed[i].Empty()) routed_text[i] = routed[i].ToString(*u_);
  }
  std::string bcast_text = bcast.Empty() ? std::string() : bcast.ToString(*u_);

  std::vector<Result<protocol::AppendReply>> results =
      Scatter<protocol::AppendReply>(
          [&](Client& c, size_t i) -> Result<protocol::AppendReply> {
            uint64_t appended = 0;
            protocol::DbInfo info;
            bool have_info = false;
            if (!routed_text[i].empty()) {
              SEQDL_ASSIGN_OR_RETURN(
                  protocol::AppendReply r,
                  c.Append(routed_text[i], req.source_name));
              appended += r.appended;
              info = r.db;
              have_info = true;
            }
            if (!bcast_text.empty()) {
              SEQDL_ASSIGN_OR_RETURN(
                  protocol::AppendReply r,
                  c.Append(bcast_text, req.source_name));
              // Broadcast copies land on every shard; only the primary's
              // count enters the aggregate.
              if (i == 0) appended += r.appended;
              info = r.db;
              have_info = true;
            }
            // Nothing to send still costs an epoch probe so the reply
            // carries fresh shard info.
            if (!have_info) {
              SEQDL_ASSIGN_OR_RETURN(info, c.Epoch());
            }
            protocol::AppendReply r;
            r.appended = appended;
            r.db = info;
            return r;
          });
  SEQDL_RETURN_IF_ERROR(FirstError(results));

  for (size_t i = 0; i < results.size(); ++i) {
    const protocol::AppendReply& r = *results[i];
    UpdateEpoch(i, r.db.epoch);
    out.appended += r.appended;
    out.db.epoch += r.db.epoch;
    out.db.segments += r.db.segments;
    out.db.facts += r.db.facts;
    out.db.on_disk_bytes += r.db.on_disk_bytes;
    out.db.wal_bytes += r.db.wal_bytes;
    out.db.manifest_generation += r.db.manifest_generation;
  }
  return out;
}

Result<protocol::RetractReply> Coordinator::Retract(
    const protocol::RetractRequest& req) {
  Result<Instance> parsed = ParseInstance(*u_, req.facts);
  if (!parsed.ok()) {
    return protocol::AnnotateParseError(req.source_name, parsed.status());
  }

  std::vector<Instance> routed(shards_.size());
  Instance bcast;
  for (RelId rel : parsed->Relations()) {
    bool is_bcast = partitioner_.IsBroadcast(*u_, rel);
    for (TupleRef t : parsed->Tuples(rel)) {
      if (is_bcast) {
        bcast.Add(rel, t);
      } else {
        routed[partitioner_.ShardOf(*u_, rel, t)].Add(rel, t);
      }
    }
  }

  protocol::RetractReply out;
  std::vector<std::string> routed_text(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!routed[i].Empty()) routed_text[i] = routed[i].ToString(*u_);
  }
  std::string bcast_text = bcast.Empty() ? std::string() : bcast.ToString(*u_);

  std::vector<Result<protocol::RetractReply>> results =
      Scatter<protocol::RetractReply>(
          [&](Client& c, size_t i) -> Result<protocol::RetractReply> {
            uint64_t retracted = 0;
            protocol::DbInfo info;
            bool have_info = false;
            if (!routed_text[i].empty()) {
              SEQDL_ASSIGN_OR_RETURN(
                  protocol::RetractReply r,
                  c.Retract(routed_text[i], req.source_name));
              retracted += r.retracted;
              info = r.db;
              have_info = true;
            }
            if (!bcast_text.empty()) {
              SEQDL_ASSIGN_OR_RETURN(
                  protocol::RetractReply r,
                  c.Retract(bcast_text, req.source_name));
              if (i == 0) retracted += r.retracted;
              info = r.db;
              have_info = true;
            }
            if (!have_info) {
              SEQDL_ASSIGN_OR_RETURN(info, c.Epoch());
            }
            protocol::RetractReply r;
            r.retracted = retracted;
            r.db = info;
            return r;
          });
  SEQDL_RETURN_IF_ERROR(FirstError(results));

  for (size_t i = 0; i < results.size(); ++i) {
    const protocol::RetractReply& r = *results[i];
    UpdateEpoch(i, r.db.epoch);
    out.retracted += r.retracted;
    out.db.epoch += r.db.epoch;
    out.db.segments += r.db.segments;
    out.db.facts += r.db.facts;
    out.db.on_disk_bytes += r.db.on_disk_bytes;
    out.db.wal_bytes += r.db.wal_bytes;
    out.db.manifest_generation += r.db.manifest_generation;
  }
  return out;
}

Result<protocol::DbInfo> Coordinator::Info() {
  std::vector<Result<protocol::DbInfo>> results =
      Scatter<protocol::DbInfo>(
          [](Client& c, size_t) { return c.Epoch(); });
  SEQDL_RETURN_IF_ERROR(FirstError(results));
  protocol::DbInfo out;
  for (size_t i = 0; i < results.size(); ++i) {
    const protocol::DbInfo& r = *results[i];
    UpdateEpoch(i, r.epoch);
    out.epoch += r.epoch;
    out.segments += r.segments;
    out.facts += r.facts;
    out.on_disk_bytes += r.on_disk_bytes;
    out.wal_bytes += r.wal_bytes;
    out.manifest_generation += r.manifest_generation;
  }
  return out;
}

Result<protocol::CompactReply> Coordinator::Compact() {
  std::vector<Result<protocol::CompactReply>> results =
      Scatter<protocol::CompactReply>(
          [](Client& c, size_t) { return c.Compact(); });
  SEQDL_RETURN_IF_ERROR(FirstError(results));
  protocol::CompactReply out;
  for (size_t i = 0; i < results.size(); ++i) {
    const protocol::CompactReply& r = *results[i];
    UpdateEpoch(i, r.db.epoch);
    out.folded = out.folded || r.folded;
    out.db.epoch += r.db.epoch;
    out.db.segments += r.db.segments;
    out.db.facts += r.db.facts;
    out.db.on_disk_bytes += r.db.on_disk_bytes;
    out.db.wal_bytes += r.db.wal_bytes;
    out.db.manifest_generation += r.db.manifest_generation;
  }
  return out;
}

Result<protocol::StatsReply> Coordinator::Stats() {
  std::vector<Result<protocol::StatsReply>> results =
      Scatter<protocol::StatsReply>(
          [](Client& c, size_t) { return c.Stats(); });
  SEQDL_RETURN_IF_ERROR(FirstError(results));
  protocol::StatsReply out;
  for (size_t i = 0; i < results.size(); ++i) {
    const protocol::StatsReply& r = *results[i];
    out.rendered += "-- shard " + shards_[i]->addr.ToString() + " --\n";
    out.rendered += r.rendered;
    out.cache_hits += r.cache_hits;
    out.cache_misses += r.cache_misses;
    out.cache_evictions += r.cache_evictions;
    out.cache_entries += r.cache_entries;
    out.cache_bytes += r.cache_bytes;
    out.view_hits += r.view_hits;
    out.view_cold_runs += r.view_cold_runs;
    out.view_delta_refreshes += r.view_delta_refreshes;
    out.view_dred_refreshes += r.view_dred_refreshes;
    out.view_strata_recomputed += r.view_strata_recomputed;
  }
  return out;
}

Status Coordinator::ShutdownShards() {
  std::vector<Result<bool>> results = Scatter<bool>(
      [](Client& c, size_t) -> Result<bool> {
        Status st = c.Shutdown();
        if (!st.ok()) return st;
        return true;
      });
  return FirstError(results);
}

void Coordinator::CacheStore(const std::string& key,
                             std::vector<uint64_t> epochs,
                             const protocol::RunReply& reply) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.epochs = std::move(epochs);
    it->second.reply = reply;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  while (cache_.size() >= opts_.result_cache_entries && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  CachedResult entry;
  entry.epochs = std::move(epochs);
  entry.reply = reply;
  entry.lru = lru_.begin();
  cache_.emplace(key, std::move(entry));
}

std::optional<protocol::RunReply> Coordinator::CacheLookup(
    const std::string& key) {
  std::vector<TrackedEpoch> current = SnapshotEpochs();
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  if (it->second.epochs.size() != current.size()) return std::nullopt;
  for (size_t i = 0; i < current.size(); ++i) {
    // An unknown shard epoch means the shard was never reached this
    // session — never answer from cache without knowing its state.
    if (!current[i].known || current[i].epoch != it->second.epochs[i]) {
      return std::nullopt;
    }
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  protocol::RunReply reply = it->second.reply;
  reply.result_cached = true;
  return reply;
}

}  // namespace seqdl
