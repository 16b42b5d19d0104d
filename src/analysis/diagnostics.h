// Structured diagnostics: every error or warning the analyzer stack
// (lexer, parser, validation, lint, admission control) reports carries a
// stable machine-readable code, a severity, a source span, and optional
// notes — instead of a flat string. One diagnostic renders as the
// familiar compiler line
//
//   prog.sdl:3:7: error: expected ')' [SD002]
//
// and a DiagnosticList renders as text (one line per diagnostic, notes
// indented) or as a JSON document (`seqdl check --json`, machine
// consumers). The wire protocol ships diagnostics in compile replies
// (protocol.h WireDiagnostic mirrors the struct here).
//
// Code catalog (stable; never renumber — docs/analysis.md is the
// reference table):
//
//   SD001  lex error                              error
//   SD002  parse error                            error
//   SD010  unsafe rule (unlimited variables)      error
//   SD011  negation not stratified                error
//   SD012  relation redefined in a later stratum  error
//   SD013  relation used before its definition    error
//   SD101  duplicate rule                         warning
//   SD102  duplicate body literal                 warning
//   SD103  singleton variable                     warning
//   SD104  rule can never fire                    warning
//   SD105  cross-product join (no shared vars)    warning
//   SD106  dead rule w.r.t. the requested output  warning
//   SD107  unused IDB relation                    warning
//   SD200  program is distribution-transparent    note
//   SD201  unkeyed join over partitioned          warning
//          relations
//   SD202  negation over a partitioned relation   warning
//   SD203  derived relation not co-partitioned    warning
//   SD300  admitted under resource budgets        note
//   SD301  recursive rule grows paths in its head warning/error*
//   SD302  packing in a recursive rule            warning/error*
//   SD303  expanding equation in a recursive rule warning/error*
//   SD401  storage I/O failure                    error
//   SD402  WAL corruption                         error
//   SD403  manifest corruption                    error
//   SD404  segment file corruption                error
//   SD405  data-directory state conflict          error
//
//   SD200-203 come from the shard-locality pass (analysis/locality.h):
//   they report where a clustered evaluation happens (shard-local vs
//   gathered at the coordinator), never whether the answer is correct.
//
//   * SD301-303 mark the program *potentially generative* (its fixpoint
//     may not terminate; paper Example 2.3). Under --admission=strict
//     they are errors and the program is rejected; under
//     --admission=budget they stay warnings and the run is capped.
//
//   SD401-405 come from the storage engine (src/storage/): their Status
//   messages end in " [SDxxx]" and DiagnosticFromStatus below recovers
//   the code so disk failures render like analyzer findings.
#ifndef SEQDL_ANALYSIS_DIAGNOSTICS_H_
#define SEQDL_ANALYSIS_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "src/base/source_span.h"
#include "src/base/status.h"

namespace seqdl {

enum class Severity : uint8_t {
  kError = 0,
  kWarning = 1,
  kNote = 2,
};

/// "error" / "warning" / "note".
const char* SeverityToString(Severity s);

/// One structured finding.
struct Diagnostic {
  Severity severity = Severity::kError;
  /// Stable code, e.g. "SD002" (see the catalog above).
  std::string code;
  SourceSpan span;
  std::string message;
  /// Secondary locations / explanations, rendered indented under the
  /// main line (no spans of their own — keep them self-contained).
  std::vector<std::string> notes;

  static Diagnostic Error(std::string code, SourceSpan span,
                          std::string message);
  static Diagnostic Warning(std::string code, SourceSpan span,
                            std::string message);
  static Diagnostic Note(std::string code, SourceSpan span,
                         std::string message);

  /// "name:3:7: error: message [SD002]" (the span prefix is dropped when
  /// the span is invalid, the name when empty).
  std::string ToString(const std::string& source_name = "") const;
};

/// An ordered collection of diagnostics plus the usual aggregates.
class DiagnosticList {
 public:
  void Add(Diagnostic d) { diags_.push_back(std::move(d)); }

  const std::vector<Diagnostic>& all() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  size_t size() const { return diags_.size(); }
  const Diagnostic& operator[](size_t i) const { return diags_[i]; }

  size_t NumErrors() const;
  size_t NumWarnings() const;
  bool HasErrors() const { return NumErrors() > 0; }

  /// True iff some diagnostic carries `code`.
  bool HasCode(const std::string& code) const;

  /// One line per diagnostic (notes indented by two spaces), each
  /// prefixed with `source_name` when nonempty. Ends with '\n' unless
  /// empty.
  std::string RenderText(const std::string& source_name = "") const;

  /// The diagnostics as a JSON array (stable field order:
  /// severity, code, line, col, endLine, endCol, message, notes).
  std::string RenderJson() const;

 private:
  std::vector<Diagnostic> diags_;
};

/// Appends a JSON string literal (quotes + escaping) to `out`. Shared by
/// RenderJson and `seqdl check --json`'s top-level document.
void AppendJsonString(std::string* out, const std::string& s);

/// Recovers a span from a legacy parser/lexer Status whose message has
/// the shape "... at L:C: ..." or "name:L:C: ..." (AnnotateParseError's
/// output). Returns an invalid span when the message has no location.
SourceSpan SpanFromStatusMessage(const std::string& message);

/// Lifts an error Status into a Diagnostic, recovering a trailing
/// " [SDxxx]" code from the message when present (the storage engine's
/// SD4xx statuses carry one; see the catalog above). The code is
/// stripped from the rendered message — ToString re-appends it. Spanless
/// (storage failures have no source location). `status` must not be OK.
Diagnostic DiagnosticFromStatus(const Status& status);

}  // namespace seqdl

#endif  // SEQDL_ANALYSIS_DIAGNOSTICS_H_
