// Admission control (src/analysis/admission.h) and its enforcement in
// DatabaseService: classification of tame vs generative programs per the
// paper's fragment lattice, verdicts under each policy, and the budget /
// strict behavior of the serving layer (kResourceExhausted at the caps,
// kFailedPrecondition under strict).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/admission.h"
#include "src/analysis/diagnostics.h"
#include "src/engine/database.h"
#include "src/server/service.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "tests/test_support.h"

namespace seqdl {
namespace {

AdmissionReport Analyze(Universe& u, const std::string& text) {
  Program p = MustParse(u, text);
  return AnalyzeAdmission(u, p);
}

// --- Policy parsing / rendering ----------------------------------------------

TEST(AdmissionPolicyTest, ParseRoundTrip) {
  for (AdmissionPolicy p : {AdmissionPolicy::kOff, AdmissionPolicy::kBudget,
                            AdmissionPolicy::kStrict}) {
    Result<AdmissionPolicy> back = ParseAdmissionPolicy(AdmissionPolicyToString(p));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, p);
  }
  Result<AdmissionPolicy> bad = ParseAdmissionPolicy("lenient");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown admission policy"),
            std::string::npos);
}

TEST(AdmissionPolicyTest, VerdictStrings) {
  EXPECT_STREQ(AdmissionVerdictToString(AdmissionVerdict::kTame), "tame");
  EXPECT_STREQ(AdmissionVerdictToString(AdmissionVerdict::kGenerativeBudgeted),
               "generative-budgeted");
  EXPECT_STREQ(AdmissionVerdictToString(AdmissionVerdict::kRejected),
               "rejected");
}

// --- Classification -----------------------------------------------------------

TEST(AdmissionTest, TransitiveClosureIsTame) {
  Universe u;
  AdmissionReport r = Analyze(
      u, "R($x, $y) <- E($x, $y).\nR($x, $z) <- R($x, $y), E($y, $z).\n");
  EXPECT_FALSE(r.generative);
  EXPECT_TRUE(r.diagnostics.empty()) << r.diagnostics.RenderText();
  // Tame programs are tame under every policy.
  EXPECT_EQ(r.Verdict(AdmissionPolicy::kOff), AdmissionVerdict::kTame);
  EXPECT_EQ(r.Verdict(AdmissionPolicy::kBudget), AdmissionVerdict::kTame);
  EXPECT_EQ(r.Verdict(AdmissionPolicy::kStrict), AdmissionVerdict::kTame);
}

TEST(AdmissionTest, SplittingRecursionIsTame) {
  Universe u;
  // The equation only decomposes a path already bound by the recursive
  // predicate — every derived path is a subpath of the input.
  AdmissionReport r = Analyze(
      u, "sub($z) <- W($z).\nsub($a) <- sub($z), $a ++ @b = $z.\n");
  EXPECT_FALSE(r.generative) << r.diagnostics.RenderText();
}

TEST(AdmissionTest, NonrecursivePackingIsTame) {
  Universe u;
  // Packing outside any SCC runs once per input fact; no growth loop.
  AdmissionReport r = Analyze(u, "S(<$x>) <- R($x).\n");
  EXPECT_FALSE(r.generative) << r.diagnostics.RenderText();
}

TEST(AdmissionTest, HeadGrowthIsGenerativeSD301) {
  Universe u;
  AdmissionReport r = Analyze(
      u, "double($x) <- seed($x).\ndouble($x ++ $x) <- double($x).\n");
  EXPECT_TRUE(r.generative);
  EXPECT_TRUE(r.diagnostics.HasCode("SD301")) << r.diagnostics.RenderText();
  EXPECT_EQ(r.diagnostics[0].span.line, 2u);
  EXPECT_EQ(r.Verdict(AdmissionPolicy::kOff), AdmissionVerdict::kTame);
  EXPECT_EQ(r.Verdict(AdmissionPolicy::kBudget),
            AdmissionVerdict::kGenerativeBudgeted);
  EXPECT_EQ(r.Verdict(AdmissionPolicy::kStrict), AdmissionVerdict::kRejected);
}

TEST(AdmissionTest, HeadPackingIsGenerativeSD302) {
  Universe u;
  AdmissionReport r =
      Analyze(u, "nest($x) <- seed($x).\nnest(<$x>) <- nest($x).\n");
  EXPECT_TRUE(r.generative);
  EXPECT_TRUE(r.diagnostics.HasCode("SD302")) << r.diagnostics.RenderText();
}

TEST(AdmissionTest, ExpandingEquationIsGenerativeSD303) {
  Universe u;
  AdmissionReport r = Analyze(
      u, "grow($x) <- seed($x).\ngrow($y) <- grow($x), $x ++ a = $y.\n");
  EXPECT_TRUE(r.generative);
  EXPECT_TRUE(r.diagnostics.HasCode("SD303")) << r.diagnostics.RenderText();
  EXPECT_FALSE(r.diagnostics.HasCode("SD301"));
}

TEST(AdmissionTest, MutualRecursionGrowthIsCaught) {
  Universe u;
  // The growing rule's head relation differs from its body relation, but
  // both live in one SCC — still a recursive step.
  AdmissionReport r = Analyze(u,
                              "P0($x) <- R($x).\n"
                              "Q0(a ++ $x) <- P0($x).\n"
                              "P0($x) <- Q0($x).\n");
  EXPECT_TRUE(r.generative);
  EXPECT_TRUE(r.diagnostics.HasCode("SD301")) << r.diagnostics.RenderText();
}

TEST(AdmissionTest, BaseCaseRulesDoNotTriggerFindings) {
  Universe u;
  // The base case of a recursive relation concatenates in its head, but
  // reads nothing from its own SCC: it fires once per R fact and cannot
  // drive unbounded growth.
  AdmissionReport r = Analyze(
      u, "T(a ++ $x) <- R($x).\nT($x) <- T(a ++ $x).\n");
  EXPECT_FALSE(r.generative) << r.diagnostics.RenderText();
}

// --- PolicyDiagnostics --------------------------------------------------------

TEST(AdmissionTest, PolicyDiagnosticsStrictUpgradesToErrors) {
  Universe u;
  AdmissionReport r = Analyze(
      u, "double($x) <- seed($x).\ndouble($x ++ $x) <- double($x).\n");
  DiagnosticList strict = PolicyDiagnostics(r, AdmissionPolicy::kStrict);
  ASSERT_FALSE(strict.empty());
  EXPECT_TRUE(strict.HasErrors());
  EXPECT_FALSE(strict.HasCode("SD300"));
  // The report itself keeps warnings (compile never fails on admission).
  EXPECT_FALSE(r.diagnostics.HasErrors());
}

TEST(AdmissionTest, PolicyDiagnosticsBudgetAddsSD300Note) {
  Universe u;
  AdmissionReport r = Analyze(
      u, "double($x) <- seed($x).\ndouble($x ++ $x) <- double($x).\n");
  DiagnosticList budget = PolicyDiagnostics(r, AdmissionPolicy::kBudget);
  EXPECT_FALSE(budget.HasErrors());
  EXPECT_TRUE(budget.HasCode("SD300"));
  DiagnosticList off = PolicyDiagnostics(r, AdmissionPolicy::kOff);
  EXPECT_FALSE(off.HasCode("SD300"));

  AdmissionReport tame = Analyze(u, "S($x) <- R($x).\n");
  EXPECT_TRUE(
      PolicyDiagnostics(tame, AdmissionPolicy::kBudget).empty());
}

// --- Service enforcement ------------------------------------------------------

constexpr const char* kDoubling =
    "double($x) <- seed($x).\ndouble($x ++ $x) <- double($x).\n";
constexpr const char* kReach =
    "R($x, $y) <- E($x, $y).\nR($x, $z) <- R($x, $y), E($y, $z).\n";

std::unique_ptr<DatabaseService> MakeService(Universe& u,
                                             const std::string& edb_text,
                                             ServiceOptions sopts) {
  Result<Instance> edb = ParseInstance(u, edb_text);
  EXPECT_TRUE(edb.ok()) << edb.status().ToString();
  Result<Database> db = Database::Open(u, std::move(*edb));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::make_unique<DatabaseService>(u, std::move(*db),
                                           std::move(sopts));
}

protocol::RunRequest MakeRun(const std::string& program) {
  protocol::RunRequest req;
  req.program = program;
  req.source_name = "test.sdl";
  return req;
}

TEST(AdmissionServiceTest, CompileReportsVerdictAndDiagnostics) {
  Universe u;
  ServiceOptions sopts;
  sopts.admission = AdmissionPolicy::kBudget;
  std::unique_ptr<DatabaseService> service = MakeService(u, "seed(a).", sopts);
  Result<protocol::CompileReply> reply = service->Compile({kDoubling, "d.sdl"});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->admission,
            static_cast<uint8_t>(AdmissionVerdict::kGenerativeBudgeted));
  EXPECT_FALSE(reply->features.empty());
  EXPECT_FALSE(reply->fragment_class.empty());
  bool has_sd301 = false, has_sd300 = false;
  for (const protocol::WireDiagnostic& d : reply->diagnostics) {
    if (d.code == "SD301") has_sd301 = true;
    if (d.code == "SD300") has_sd300 = true;
  }
  EXPECT_TRUE(has_sd301);
  EXPECT_TRUE(has_sd300);
}

TEST(AdmissionServiceTest, CompileOfTameProgramIsClean) {
  Universe u;
  ServiceOptions sopts;
  sopts.admission = AdmissionPolicy::kStrict;
  std::unique_ptr<DatabaseService> service = MakeService(u, "E(a, b). E(b, c).", sopts);
  Result<protocol::CompileReply> reply = service->Compile({kReach, "r.sdl"});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->admission, static_cast<uint8_t>(AdmissionVerdict::kTame));
  EXPECT_TRUE(reply->diagnostics.empty());
}

TEST(AdmissionServiceTest, BudgetCapsGenerativeRun) {
  Universe u;
  ServiceOptions sopts;
  sopts.admission = AdmissionPolicy::kBudget;
  sopts.generative_budget.max_facts = 64;
  sopts.generative_budget.max_iterations = 100;
  sopts.generative_budget.max_path_length = 64;
  std::unique_ptr<DatabaseService> service = MakeService(u, "seed(a).", sopts);
  // The doubling fixpoint would run forever; the budget stops it fast.
  Result<protocol::RunReply> run = service->Run(MakeRun(kDoubling));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
}

TEST(AdmissionServiceTest, StrictRefusesGenerativeRunButCompiles) {
  Universe u;
  ServiceOptions sopts;
  sopts.admission = AdmissionPolicy::kStrict;
  std::unique_ptr<DatabaseService> service = MakeService(u, "seed(a).", sopts);
  // Compile succeeds and carries the full explanation...
  Result<protocol::CompileReply> reply = service->Compile({kDoubling, "d.sdl"});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->admission,
            static_cast<uint8_t>(AdmissionVerdict::kRejected));
  // ...but Run refuses before any evaluation happens.
  Result<protocol::RunReply> run = service->Run(MakeRun(kDoubling));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition)
      << run.status().ToString();
  EXPECT_NE(run.status().message().find("admission denied"),
            std::string::npos);
  EXPECT_NE(run.status().message().find("SD301"), std::string::npos);
}

TEST(AdmissionServiceTest, StrictRunsTameProgramsUntouched) {
  Universe u;
  ServiceOptions sopts;
  sopts.admission = AdmissionPolicy::kStrict;
  std::unique_ptr<DatabaseService> service = MakeService(u, "E(a, b). E(b, c).", sopts);
  Result<protocol::RunReply> run = service->Run(MakeRun(kReach));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->rendered, "R(a, b).\nR(a, c).\nR(b, c).\n");
}

TEST(AdmissionServiceTest, BudgetDoesNotClampTamePrograms) {
  Universe u;
  ServiceOptions sopts;
  sopts.admission = AdmissionPolicy::kBudget;
  // A cap this small would fail any real run — it must not apply to a
  // tame program.
  sopts.generative_budget.max_facts = 1;
  std::unique_ptr<DatabaseService> service = MakeService(u, "E(a, b). E(b, c). E(c, d).",
                                        sopts);
  Result<protocol::RunReply> run = service->Run(MakeRun(kReach));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->stats.derived_facts, 1u);
}

TEST(AdmissionServiceTest, OffRunsEverythingUnderPlainOptions) {
  Universe u;
  ServiceOptions sopts;
  sopts.admission = AdmissionPolicy::kOff;
  // Under kOff the generative budget is ignored; only run_options caps
  // apply — set them small so the doubling program still halts.
  sopts.run_options.max_facts = 32;
  sopts.run_options.max_path_length = 64;
  sopts.generative_budget.max_facts = 1'000'000;
  std::unique_ptr<DatabaseService> service = MakeService(u, "seed(a).", sopts);
  Result<protocol::RunReply> run = service->Run(MakeRun(kDoubling));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status().ToString();
}

}  // namespace
}  // namespace seqdl
