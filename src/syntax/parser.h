// Recursive-descent parser for the seqdl surface syntax (see lexer.h for the
// grammar). Interns all symbols into the given Universe.
//
// Every entry point streams one pull Lexer through a two-token lookahead,
// and programs and facts share one item grammar. Errors are reported in
// text order: the first lex or parse error in the source is the one
// returned, as "lex error at L:C: ..." or "parse error at L:C: ...".
#ifndef SEQDL_SYNTAX_PARSER_H_
#define SEQDL_SYNTAX_PARSER_H_

#include <functional>
#include <span>
#include <string_view>

#include "src/analysis/diagnostics.h"
#include "src/base/status.h"
#include "src/syntax/ast.h"
#include "src/term/universe.h"

namespace seqdl {

/// The deepest pack nesting the parser accepts: `<<a>>` nests 2 deep.
/// Deeper input is a parse error naming this limit, so hostile text cannot
/// exhaust the stack of the recursive item grammar (or of the code that
/// later walks the nested values).
inline constexpr int kMaxPackNesting = 1000;

/// Parses a full program (one or more strata separated by '---').
Result<Program> ParseProgram(Universe& u, std::string_view source);

/// As above, but additionally records lex/parse errors as structured
/// SD001/SD002 diagnostics with precise source spans, and stamps each
/// parsed rule's Rule::span. The returned Status is unchanged.
Result<Program> ParseProgram(Universe& u, std::string_view source,
                             DiagnosticList* diags);

/// Parses a single rule (must consume the entire input).
Result<Rule> ParseRule(Universe& u, std::string_view source);

/// Parses a path expression (must consume the entire input).
Result<PathExpr> ParsePathExpr(Universe& u, std::string_view source);

/// Receives one fact: its relation and its argument paths. The span is
/// valid only during the call.
using FactFn = std::function<void(RelId, std::span<const PathId>)>;

/// Parses a list of ground facts, e.g. "R(a·b·c). R(eps). S(<a·b>·c).",
/// calling `fact` for each in text order ('---' separators and arity-0
/// facts allowed, and so is an empty body: "R(a) <- ."). A ground fact
/// interns its values straight from its tokens and builds no Rule or
/// PathExpr. Any other rule takes the rule path instead: it is parsed
/// with the program grammar, then rejected, first if it has a body
/// ("instance contains a non-fact rule: ..."), then if an argument holds
/// a variable (EvalGroundExpr). So a lex, parse or arity error, or a
/// rule, is reported at the first one in text order; facts before it
/// have already reached `fact`.
Status ParseFacts(Universe& u, std::string_view source, const FactFn& fact);

}  // namespace seqdl

#endif  // SEQDL_SYNTAX_PARSER_H_
