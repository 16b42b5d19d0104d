#include "perfbench/src/node.h"

#include "src/analysis/admission.h"
#include "src/analysis/lint.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"
#include "src/view/view.h"

namespace perfbench {

seqdl::ServiceOptions ServeDefaults() {
  seqdl::ServiceOptions s;
  s.result_cache_entries = 4096;
  s.cache_bytes = 64u << 20;
  s.maintain_views = true;
  s.refresh_on_append = true;
  s.recompile_drift = 0.25;
  s.admission = seqdl::AdmissionPolicy::kOff;
  return s;
}

seqdl::Database::OpenOptions OpenDefaults(const std::string& data_dir) {
  seqdl::Database::OpenOptions o;
  o.auto_compact_segments = 8;
  o.data_dir = data_dir;
  o.sync_mode = seqdl::storage::SyncMode::kAlways;
  return o;
}

void Node::Serve(seqdl::Database db) {
  service = std::make_unique<seqdl::DatabaseService>(u, std::move(db), ServeDefaults());
  handler = std::make_unique<seqdl::ServiceRequestHandler>(*service);
}

std::string Node::Handle(const std::string& payload) {
  bool shutdown = false;
  return handler->Handle(payload, {}, &shutdown);
}

seqdl::Result<seqdl::Database> OpenInMemory(Node& n, const std::string& edb_text,
                                            OpenTimes* times) {
  int64_t t0 = NowNs();
  SEQDL_ASSIGN_OR_RETURN(seqdl::Instance edb, seqdl::ParseInstance(n.u, edb_text));
  int64_t t1 = NowNs();
  SEQDL_ASSIGN_OR_RETURN(seqdl::Database db,
                         seqdl::Database::Open(n.u, std::move(edb), OpenDefaults("")));
  db.Stats();
  int64_t t2 = NowNs();
  times->parse_s = static_cast<double>(t1 - t0) / 1e9;
  times->open_s = static_cast<double>(t2 - t1) / 1e9;
  return db;
}

RoundState StateOf(const Node& n) {
  const seqdl::Database& db = n.service->db();
  return {db.NumFacts(), db.NumSegments(), db.views().NumViews()};
}

seqdl::Result<seqdl::PreparedProgram> TracedCompile(Node& n, Tracer& t, const std::string& text,
                                                   seqdl::StoreStats* stats) {
  seqdl::Result<seqdl::Program> program = seqdl::Status::Internal("unset");
  {
    Scope s(t, "syntax.parse_program");
    program = seqdl::ParseProgram(n.u, text);
  }
  if (!program.ok()) return program.status();
  {
    Scope s(t, "engine.stats");
    *stats = n.service->db().Stats();
  }
  {
    Scope s(t, "analysis.admission");
    seqdl::AnalyzeAdmission(n.u, *program);
  }
  {
    Scope s(t, "analysis.lint");
    seqdl::DiagnosticList lints;
    seqdl::LintOptions lopts;
    lopts.stats = stats;
    seqdl::LintProgram(n.u, *program, lopts, &lints);
  }
  Scope s(t, "engine.compile");
  seqdl::CompileOptions copts;
  copts.stats = stats;
  return seqdl::Engine::Compile(n.u, std::move(*program), copts);
}

seqdl::Result<std::string> TracedColdRun(Node& n, Tracer& t, const std::string& payload,
                                         seqdl::EvalStats* stats) {
  seqdl::Result<seqdl::protocol::Request> req = seqdl::Status::Internal("unset");
  {
    Scope s(t, "server.decode");
    req = seqdl::protocol::DecodeRequest(payload);
  }
  if (!req.ok()) return req.status();
  const std::string& text = req->run.program;
  seqdl::StoreStats store_stats;
  SEQDL_ASSIGN_OR_RETURN(seqdl::PreparedProgram prog, TracedCompile(n, t, text, &store_stats));
  seqdl::Database& db = n.service->db();
  seqdl::Result<std::shared_ptr<const seqdl::ViewSnapshot>> view =
      seqdl::Status::Internal("unset");
  {
    Scope s(t, "engine.eval");
    seqdl::RunOptions ropts;
    ropts.collect_derived_stats = req->run.collect_derived_stats;
    view = db.views().Refresh(text, prog, ropts, stats);
  }
  if (!view.ok()) return view.status();
  seqdl::protocol::RunReply reply;
  {
    Scope s(t, "term.render");
    if (req->run.output_rel.empty()) {
      reply.rendered = (*view)->idb().ToString(n.u);
    } else {
      SEQDL_ASSIGN_OR_RETURN(seqdl::RelId rel, n.u.FindRel(req->run.output_rel));
      reply.rendered = (*view)->idb().Project({rel}).ToString(n.u);
    }
  }
  {
    Scope s(t, "server.encode");
    std::string frame = seqdl::protocol::EncodeRunReply(reply);
    if (frame.size() < reply.rendered.size()) return seqdl::Status::Internal("encode");
  }
  return std::move(reply.rendered);
}

}  // namespace perfbench
