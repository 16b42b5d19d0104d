#include "src/server/service.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/lint.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"

namespace seqdl {

namespace {

/// `all` restricted to the relations `p`'s rule bodies read: the
/// statistics a plan of `p` is ranked by, so the only ones whose drift
/// can make it stale.
StoreStats ReadStats(const Program& p, const StoreStats& all) {
  StoreStats out;
  for (const Rule* r : p.AllRules()) {
    for (const Literal& l : r->body) {
      if (!l.is_predicate()) continue;
      auto it = all.relations.find(l.pred.rel);
      if (it != all.relations.end()) out.relations.insert(*it);
    }
  }
  return out;
}

}  // namespace

DatabaseService::DatabaseService(Universe& u, Database db, ServiceOptions opts)
    : u_(&u), db_(std::move(db)), opts_(std::move(opts)) {}

Result<protocol::CompileReply> DatabaseService::Compile(
    const protocol::CompileRequest& req) {
  SEQDL_ASSIGN_OR_RETURN(Prepared prepared,
                         Prepare(req.program, req.source_name));
  const CompiledProgram& c = *prepared.compiled;
  protocol::CompileReply reply;
  reply.cache_hit = prepared.cache_hit;
  reply.rules = c.prog.program().NumRules();
  reply.strata = c.prog.program().strata.size();
  reply.compile_seconds = c.prog.compile_seconds();
  reply.features = c.admission.features.ToString();
  reply.fragment_class = c.admission.fragment_class;
  reply.admission = static_cast<uint8_t>(c.admission.Verdict(opts_.admission));
  DiagnosticList policy = PolicyDiagnostics(c.admission, opts_.admission);
  for (const Diagnostic& d : policy.all()) {
    reply.diagnostics.push_back(protocol::ToWire(d));
  }
  for (const Diagnostic& d : c.lints.all()) {
    reply.diagnostics.push_back(protocol::ToWire(d));
  }
  return reply;
}

Status DatabaseService::ApplyAdmission(const AdmissionReport& admission,
                                       RunOptions* ropts) const {
  if (opts_.admission == AdmissionPolicy::kOff || !admission.generative) {
    return Status::OK();
  }
  if (opts_.admission == AdmissionPolicy::kStrict) {
    const Diagnostic& d = admission.diagnostics[0];
    return Status::FailedPrecondition(
        "admission denied (policy strict): potentially non-terminating "
        "program: " +
        d.message + " [" + d.code + "]");
  }
  // kBudget: a budget can only tighten the configured limits.
  const RunOptions& cap = opts_.generative_budget;
  ropts->max_facts = std::min(ropts->max_facts, cap.max_facts);
  ropts->max_iterations = std::min(ropts->max_iterations, cap.max_iterations);
  ropts->max_path_length =
      std::min(ropts->max_path_length, cap.max_path_length);
  return Status::OK();
}

Result<protocol::RunReply> DatabaseService::Run(
    const protocol::RunRequest& req, const std::function<bool()>& cancel) {
  // Cache first: a hit answers without compiling, refreshing, or
  // rendering. Valid iff the entry is at the current epoch — a write
  // refreshes entries and patches their renderings (eagerly, or the next
  // miss renders), Compact keeps the epoch (same facts, hits stay
  // correct).
  const bool caching = opts_.result_cache_entries > 0;
  if (caching) {
    protocol::RunReply reply;
    std::shared_ptr<const std::string> hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(req.program);
      if (it != entries_.end() && it->second.epoch == db_.epoch()) {
        auto r = it->second.rendered.find(req.output_rel);
        if (r != it->second.rendered.end()) {
          ++counters_.hits;
          TouchLocked(it);
          hit = r->second;
          reply.epoch = *it->second.epoch;
          reply.segments = it->second.segments;
          reply.stats = it->second.stats;
        }
      }
      if (hit == nullptr) ++counters_.misses;
    }
    if (hit != nullptr) {
      reply.rendered = *hit;  // the copy, outside the lock
      reply.result_cached = true;
      return reply;
    }
  }

  SEQDL_ASSIGN_OR_RETURN(Prepared prepared,
                         Prepare(req.program, req.source_name));
  const CompiledProgram& c = *prepared.compiled;
  RunOptions ropts = opts_.run_options;
  SEQDL_RETURN_IF_ERROR(ApplyAdmission(c.admission, &ropts));
  AddCancel(&ropts, cancel);

  protocol::RunReply reply;
  std::shared_ptr<const ViewSnapshot> view;
  EvalStats stats;
  if (caching && opts_.maintain_views) {
    // The maintained-view path: Refresh returns the stored snapshot when
    // it is already current (a write's eager refresh usually got here
    // first), cold-materializes on the first request, and otherwise
    // advances the view by delta evaluation of the new segments.
    SEQDL_ASSIGN_OR_RETURN(
        view, db_.views().Refresh(req.program, c.prog, ropts, &stats));
    reply.epoch = view->epoch();
    reply.segments = view->segments();
    SEQDL_ASSIGN_OR_RETURN(reply.rendered,
                           RenderOutput(*u_, view->idb(), req.output_rel));
  } else {
    // No view kept: evaluate on a session pinned at the current epoch;
    // appends committed while the run executes do not affect it.
    Session session = db_.Snapshot();
    SEQDL_ASSIGN_OR_RETURN(Instance derived,
                           session.Run(c.prog, ropts, &stats));
    reply.epoch = session.epoch();
    reply.segments = session.NumSegments();
    SEQDL_ASSIGN_OR_RETURN(reply.rendered,
                           RenderOutput(*u_, derived, req.output_rel));
  }
  reply.stats = protocol::ToWire(stats);
  if (!caching) return reply;

  auto text = std::make_shared<const std::string>(reply.rendered);
  Replaced replaced;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  // Re-inserts the entry if it was evicted while this run evaluated.
  Entry& e = TouchOrInsertLocked(req.program, prepared.compiled);
  // A write may have installed a newer epoch meanwhile: never move an
  // entry back.
  if (e.epoch > reply.epoch) return reply;
  if (e.epoch != reply.epoch || e.view != view) {
    replaced = SetViewLocked(req.program, e, view, reply.epoch,
                             reply.segments, reply.stats, {});
  }
  if (e.rendered.try_emplace(req.output_rel, std::move(text)).second) {
    size_t bytes = reply.rendered.size() + req.output_rel.size();
    e.bytes += bytes;
    cache_bytes_used_ += bytes;
  }
  // A Refresh hit carries no run counters (nothing ran); answer with the
  // stats of the run that actually produced this epoch's view.
  reply.stats = e.stats;
  EvictLocked(req.program);
  return reply;
}

void DatabaseService::TouchLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru);
}

DatabaseService::Entry& DatabaseService::TouchOrInsertLocked(
    const std::string& key,
    const std::shared_ptr<const CompiledProgram>& compiled) {
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    TouchLocked(it);
    return it->second;
  }
  Entry& e = it->second;
  e.compiled = compiled;
  lru_.push_front(key);
  e.lru = lru_.begin();
  e.bytes = key.size();
  cache_bytes_used_ += e.bytes;
  return e;
}

DatabaseService::Replaced DatabaseService::SetViewLocked(
    const std::string& key, Entry& e, std::shared_ptr<const ViewSnapshot> view,
    uint64_t epoch, uint64_t segments, const protocol::WireEvalStats& stats,
    Renderings rendered) {
  Replaced old{std::exchange(e.view, std::move(view)),
               std::exchange(e.rendered, std::move(rendered))};
  cache_bytes_used_ -= e.bytes;
  e.epoch = epoch;
  e.segments = segments;
  e.stats = stats;
  e.bytes = key.size() + (e.view != nullptr ? e.view->ApproxBytes() : 0);
  for (const auto& [rel, text] : e.rendered) {
    e.bytes += rel.size() + text->size();
  }
  cache_bytes_used_ += e.bytes;
  return old;
}

void DatabaseService::EvictLocked(const std::string& keep) {
  while (!lru_.empty() &&
         (entries_.size() > opts_.result_cache_entries ||
          (opts_.cache_bytes > 0 && cache_bytes_used_ > opts_.cache_bytes))) {
    const std::string& victim = lru_.back();
    if (victim == keep) break;  // the hottest entry always survives
    auto it = entries_.find(victim);
    cache_bytes_used_ -= it->second.bytes;
    // Drop the manager's snapshot too, or the evicted bytes would live
    // on there (the next request for this program runs cold).
    db_.views().Invalidate(victim);
    entries_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

size_t DatabaseService::NumCachedResults() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, e] : entries_) n += e.rendered.size();
  return n;
}

CacheCounters DatabaseService::CacheStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheCounters c = counters_;
  c.entries = entries_.size();
  c.bytes = cache_bytes_used_;
  return c;
}

Result<protocol::AppendReply> DatabaseService::Append(
    const protocol::AppendRequest& req) {
  Result<Instance> delta = ParseInstance(*u_, req.facts);
  if (!delta.ok()) {
    // Structured "<name>:line:col: ..." instead of a bare parse error —
    // the client sees where in *its* file the malformed fact sits.
    return protocol::AnnotateParseError(req.source_name, delta.status());
  }
  protocol::AppendReply reply;
  SEQDL_ASSIGN_OR_RETURN(reply.db, Write(SegmentKind::kFacts,
                                         std::move(*delta), &reply.appended));
  return reply;
}

Result<protocol::RetractReply> DatabaseService::Retract(
    const protocol::RetractRequest& req) {
  Result<Instance> victims = ParseInstance(*u_, req.facts);
  if (!victims.ok()) {
    return protocol::AnnotateParseError(req.source_name, victims.status());
  }
  protocol::RetractReply reply;
  SEQDL_ASSIGN_OR_RETURN(
      reply.db,
      Write(SegmentKind::kTombstones, std::move(*victims), &reply.retracted));
  return reply;
}

Result<protocol::DbInfo> DatabaseService::Write(SegmentKind kind,
                                                Instance batch,
                                                uint64_t* written) {
  // The eager refresh evaluates every cached view at the commit's stack
  // as the commit's work (beside its WAL sync when one is owed and no
  // other write queues, else after publishing); only once the stack has
  // published are the renderings patched and views, plans and renderings
  // installed, so nothing is visible before it is durable. A retraction
  // puts a tombstone in the refresh window, and the ViewManager runs
  // DRed — a shrink epoch is never maintained by the insertion pass
  // alone. An entry the refresh leaves out (kBudget-clamped programs
  // included) misses on its next Run, which recovers it.
  std::vector<Refreshed> refreshed;
  Database::CommitWork work;
  if (opts_.result_cache_entries > 0 && opts_.maintain_views &&
      opts_.refresh_on_append) {
    work = [this, &refreshed](const Session& staged) {
      refreshed = EvaluateCachedViews(staged);
    };
  }
  size_t n = 0;  // exact: counted under the writer lock
  Result<uint64_t> epoch =
      kind == SegmentKind::kFacts
          ? db_.Append(std::move(batch), &n, work)
          : db_.Retract(std::move(batch), &n, work);
  if (!epoch.ok()) return epoch.status();
  InstallCachedViews(std::move(refreshed));
  *written = n;
  protocol::DbInfo info = Info();
  info.epoch = *epoch;
  return info;
}

std::vector<DatabaseService::Refreshed> DatabaseService::EvaluateCachedViews(
    const Session& staged) {
  std::vector<Refreshed> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [key, e] : entries_) {
      // An entry made only by Compile has no view to keep current, and
      // one a run or a later write took to this epoch needs nothing.
      if (e.view != nullptr && e.epoch < staged.epoch()) {
        out.push_back({key, e.compiled, {e.view, e.rendered}, nullptr, {}});
      }
    }
  }
  if (out.empty()) return out;
  // One measurement of the staged stack serves every entry's drift check.
  const Measured now{staged.epoch(), staged.Stats()};
  for (Refreshed& r : out) {
    // Work that runs after publishing races later writes: a view they
    // stored past this epoch would make Evaluate run cold for a view
    // that InstallCachedViews then drops.
    std::shared_ptr<const ViewSnapshot> stored = db_.views().Lookup(r.key);
    if (stored != nullptr && stored->epoch() > staged.epoch()) continue;
    // Revalidate the plan here rather than at the next query, so that
    // query is a plain hit. A recompile logs the name the program was
    // last compiled under.
    Result<Prepared> prepared =
        Revalidate(r.key, r.compiled->source_name, r.compiled, &now);
    if (!prepared.ok()) continue;
    r.compiled = prepared->compiled;
    const CompiledProgram& c = *r.compiled;
    RunOptions ropts = opts_.run_options;
    if (!ApplyAdmission(c.admission, &ropts).ok()) continue;
    EvalStats stats;
    Result<std::shared_ptr<const ViewSnapshot>> view =
        db_.views().Evaluate(r.key, c.prog, staged, ropts, &stats);
    if (!view.ok()) continue;
    r.view = *std::move(view);
    r.stats = protocol::ToWire(stats);
  }
  std::erase_if(out, [](const Refreshed& r) { return r.view == nullptr; });
  return out;
}

void DatabaseService::InstallCachedViews(std::vector<Refreshed> refreshed) {
  for (Refreshed& r : refreshed) {
    // Freed with this iteration, after the lock below is released.
    Replaced before = std::move(r.before);
    std::shared_ptr<const ViewSnapshot> view = std::move(r.view);
    // Carry each rendering over to the refreshed view. A patch that fails
    // drops its rendering; the next Run of that output renders it.
    Renderings patched;
    for (const auto& [rel, text] : before.rendered) {
      Result<std::string> next =
          PatchOutput(*u_, *text, before.view->idb(), view->idb(), rel);
      if (next.ok()) {
        patched.emplace(rel, std::make_shared<const std::string>(
                                 *std::move(next)));
      }
    }
    Replaced replaced;  // destroyed after the lock is released
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(r.key);
    // Evicted meanwhile (the view was stored nowhere), or a run got
    // there first.
    if (it == entries_.end() || it->second.epoch >= view->epoch()) continue;
    db_.views().Install(r.key, view);
    // The replaced plan is freed with `refreshed`, after the lock.
    it->second.compiled.swap(r.compiled);
    replaced = SetViewLocked(r.key, it->second, view, view->epoch(),
                             view->segments(), r.stats, std::move(patched));
    EvictLocked(r.key);
  }
}

protocol::DbInfo DatabaseService::Info() const {
  protocol::DbInfo info;
  info.epoch = db_.epoch();
  info.segments = db_.NumSegments();
  info.facts = db_.NumFacts();
  storage::StorageInfo durability = db_.storage_info();
  info.on_disk_bytes = durability.on_disk_bytes;
  info.wal_bytes = durability.wal_bytes;
  info.manifest_generation = durability.manifest_generation;
  return info;
}

Result<protocol::CompactReply> DatabaseService::Compact() {
  SEQDL_ASSIGN_OR_RETURN(bool folded, db_.Compact());
  protocol::CompactReply reply;
  reply.folded = folded;
  reply.db = Info();
  return reply;
}

protocol::StatsReply DatabaseService::Stats() const {
  protocol::StatsReply reply;
  reply.rendered = db_.Stats().ToString(*u_);
  // The Universe's path store never shrinks: its size is how a long-lived
  // server shows that serving programs does not grow it.
  reply.rendered += "universe  paths=" + std::to_string(u_->num_paths()) +
                    " atoms=" + std::to_string(u_->num_atoms()) + "\n";
  CacheCounters cache = CacheStats();
  reply.cache_hits = cache.hits;
  reply.cache_misses = cache.misses;
  reply.cache_evictions = cache.evictions;
  reply.cache_entries = cache.entries;
  reply.cache_bytes = cache.bytes;
  ViewManager::Counters views = db_.views().counters();
  reply.view_hits = views.hits;
  reply.view_cold_runs = views.cold_runs;
  reply.view_delta_refreshes = views.delta_refreshes;
  reply.view_dred_refreshes = views.dred_refreshes;
  reply.view_strata_recomputed = views.strata_recomputed;
  return reply;
}

size_t DatabaseService::NumCachedPrograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Result<DatabaseService::Prepared> DatabaseService::Prepare(
    const std::string& program_text, const std::string& source_name) {
  std::shared_ptr<const CompiledProgram> cached;
  if (opts_.result_cache_entries > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(program_text);
    if (it != entries_.end()) {
      TouchLocked(it);
      cached = it->second.compiled;
    }
  }
  return Revalidate(program_text, source_name, std::move(cached), nullptr);
}

Result<DatabaseService::Prepared> DatabaseService::Revalidate(
    const std::string& program_text, const std::string& source_name,
    std::shared_ptr<const CompiledProgram> cached, const Measured* now) {
  double drift = 0.0;
  if (cached != nullptr) {
    if (cached->epoch == (now != nullptr ? now->epoch : db_.epoch())) {
      return Prepared{cached, true};
    }
    // Outside the lock: Stats() measures every segment.
    drift = StatsDrift(cached->stats,
                       ReadStats(cached->prog.program(),
                                 now != nullptr ? now->stats : db_.Stats()));
    if (drift < opts_.recompile_drift) return Prepared{cached, true};
  }
  Result<std::shared_ptr<const CompiledProgram>> fresh =
      CompileFresh(program_text, source_name, now);
  if (!fresh.ok()) {
    // A program that compiled before the statistics drifted is still
    // valid — keep serving the stale plan rather than failing the
    // request. (Compile errors on a never-cached text do fail.)
    if (cached != nullptr) return Prepared{cached, false};
    return fresh.status();
  }
  if (cached != nullptr && opts_.log) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "recompiled %s (stats drift %.2f >= %.2f since epoch %llu)",
                  source_name.empty() ? "<program>" : source_name.c_str(),
                  drift, opts_.recompile_drift,
                  static_cast<unsigned long long>(cached->epoch));
    opts_.log(buf);
  }
  // A write's stack may not be published yet: its plan is installed
  // with the view (InstallCachedViews).
  if (opts_.result_cache_entries > 0 && now == nullptr) {
    // Last writer wins when two threads race on one text.
    std::lock_guard<std::mutex> lock(mu_);
    TouchOrInsertLocked(program_text, *fresh).compiled = *fresh;
    EvictLocked(program_text);
  }
  return Prepared{*std::move(fresh), false};
}

Result<std::shared_ptr<const DatabaseService::CompiledProgram>>
DatabaseService::CompileFresh(const std::string& program_text,
                              const std::string& source_name,
                              const Measured* at) const {
  Result<Program> program = ParseProgram(*u_, program_text);
  if (!program.ok()) {
    return protocol::AnnotateParseError(source_name, program.status());
  }
  // Read the epoch before the stats snapshot: if an append lands between
  // the two reads, the entry is stamped older than its statistics and the
  // next Prepare re-runs the drift check (the safe direction).
  const uint64_t epoch = at != nullptr ? at->epoch : db_.epoch();
  StoreStats stats = at != nullptr ? at->stats : db_.Stats();
  // Classify and lint before the program is consumed by the compiler:
  // the admission report drives Run's policy enforcement, the lints ride
  // along in compile replies.
  AdmissionReport admission = AnalyzeAdmission(*u_, *program);
  DiagnosticList lints;
  LintOptions lopts;
  lopts.stats = &stats;
  LintProgram(*u_, *program, lopts, &lints);
  CompileOptions copts;
  copts.stats = &stats;
  Result<PreparedProgram> prepared =
      Engine::Compile(*u_, std::move(*program), copts);
  if (!prepared.ok()) {
    return protocol::AnnotateParseError(source_name, prepared.status());
  }
  StoreStats read = ReadStats(prepared->program(), stats);
  return std::make_shared<const CompiledProgram>(
      CompiledProgram{std::move(*prepared), epoch, std::move(read),
                      std::move(admission), std::move(lints), source_name});
}

}  // namespace seqdl
