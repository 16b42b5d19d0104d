#include "src/syntax/parser.h"

#include <string>
#include <vector>

#include "src/syntax/lexer.h"
#include "src/syntax/printer.h"

namespace seqdl {

namespace {

// Where the item grammar puts what it parses; both builders get the same
// calls in the same order. ExprBuilder makes a rule's PathExpr.
struct ExprBuilder {
  PathExpr expr;

  void Atom(AtomId a) {
    expr.items.push_back(ExprItem::Const(Value::Atom(a)));
  }
  Status Var(Universe& u, VarKind kind, std::string_view name) {
    VarId v = u.InternVar(kind, name);
    expr.items.push_back(kind == VarKind::kAtomic ? ExprItem::AtomVar(v)
                                                  : ExprItem::PathVar(v));
    return Status::OK();
  }
  ExprBuilder Inner() const { return {}; }
  void Pack(ExprBuilder&& inner) {
    expr.items.push_back(ExprItem::Pack(std::move(inner.expr)));
  }
};

// GroundBuilder interns a fact's path as it is parsed: the values of pack
// depth d collect in (*levels)[d], vectors reused from fact to fact, and a
// closing '>' interns its pack, so paths are interned innermost first, in
// EvalGroundExpr's order.
struct GroundBuilder {
  Universe* u;
  std::vector<std::vector<Value>>* levels;
  size_t depth;

  void Atom(AtomId a) { (*levels)[depth].push_back(Value::Atom(a)); }
  Status Var(Universe&, VarKind, std::string_view) {
    return Status::InvalidArgument("a variable is not ground");
  }
  GroundBuilder Inner() const {
    if (levels->size() == depth + 1) levels->emplace_back();
    (*levels)[depth + 1].clear();
    return {u, levels, depth + 1};
  }
  void Pack(GroundBuilder&& inner) {
    PathId p = u->InternPath((*levels)[inner.depth]);
    (*levels)[depth].push_back(Value::Packed(p));
  }
};

class Parser {
 public:
  Parser(Universe& u, std::string_view source,
         DiagnosticList* diags = nullptr)
      : u_(u), lex_(source), diags_(diags) {
    tok_[0] = lex_.Next();
    tok_[1] = lex_.Next();
  }

  Result<Program> ParseProgram() {
    Program p;
    p.strata.emplace_back();
    while (!Check(TokenKind::kEnd)) {
      if (Match(TokenKind::kStratumSep)) {
        p.strata.emplace_back();
        continue;
      }
      SEQDL_ASSIGN_OR_RETURN(Rule r, ParseRule());
      p.strata.back().rules.push_back(std::move(r));
    }
    // Drop empty strata (e.g. a trailing '---').
    std::vector<Stratum> kept;
    for (Stratum& s : p.strata) {
      if (!s.rules.empty()) kept.push_back(std::move(s));
    }
    if (kept.empty()) kept.emplace_back();
    p.strata = std::move(kept);
    return p;
  }

  Result<Rule> ParseRule() {
    Rule r;
    r.span.line = Peek().line;
    r.span.col = Peek().col;
    SEQDL_ASSIGN_OR_RETURN(r.head, ParsePredicate());
    if (Match(TokenKind::kArrow)) {
      // An empty body before '.' is allowed (e.g. "A <- ." from Lemma 7.2
      // form 6); otherwise literals separated by commas.
      if (!Check(TokenKind::kPeriod)) {
        while (true) {
          SEQDL_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
          r.body.push_back(std::move(lit));
          if (!Match(TokenKind::kComma)) break;
        }
      }
    }
    r.span.end_line = Peek().line;
    r.span.end_col = Peek().col + 1;
    SEQDL_RETURN_IF_ERROR(Expect(TokenKind::kPeriod));
    return r;
  }

  Result<PathExpr> ParsePathExprTop() {
    ExprBuilder b;
    SEQDL_RETURN_IF_ERROR(ParsePathExprInto(b, 0));
    SEQDL_RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return std::move(b.expr);
  }

  Status ExpectEnd() { return Expect(TokenKind::kEnd); }

  Status ParseFacts(const FactFn& fact) {
    while (!Check(TokenKind::kEnd)) {
      if (Match(TokenKind::kStratumSep)) continue;
      if (Check(TokenKind::kIdent)) {
        Token start = Peek();
        if (ParseGroundFact(fact).ok()) continue;
        Rewind(start);
      }
      // Not a ground fact: the rule path, whose errors are the ones a
      // whole-program parse followed by these two checks reports.
      SEQDL_ASSIGN_OR_RETURN(Rule r, ParseRule());
      if (!r.body.empty()) {
        return Status::InvalidArgument("instance contains a non-fact rule: " +
                                       FormatRule(u_, r));
      }
      args_.clear();
      for (const PathExpr& e : r.head.args) {
        SEQDL_ASSIGN_OR_RETURN(PathId path, EvalGroundExpr(u_, e));
        args_.push_back(path);
      }
      fact(r.head.rel, args_);
    }
    return Status::OK();
  }

 private:
  const Token& Peek(size_t ahead = 0) const { return tok_[ahead]; }
  bool Check(TokenKind k) const { return tok_[0].kind == k; }
  void Advance() {
    tok_[0] = tok_[1];
    tok_[1] = lex_.Next();
  }
  bool Match(TokenKind k) {
    if (!Check(k)) return false;
    Advance();
    return true;
  }
  void Rewind(const Token& t) {
    lex_.Rewind(t);
    tok_[0] = lex_.Next();
    tok_[1] = lex_.Next();
  }

  Status Expect(TokenKind k) {
    if (Match(k)) return Status::OK();
    return ErrorHere(std::string("expected ") + TokenKindToString(k) +
                     ", found " + TokenKindToString(Peek().kind));
  }

  // A parse error at the current token, or the lex error that stopped the
  // lexer when the current token is where it stopped.
  Status ErrorHere(const std::string& msg) const {
    const Token& t = Peek();
    std::string where = std::to_string(t.line) + ":" + std::to_string(t.col);
    if (t.kind == TokenKind::kError) {
      if (diags_ != nullptr) {
        diags_->Add(Diagnostic::Error("SD001", SourceSpan::At(t.line, t.col),
                                      lex_.error()));
      }
      return Status::InvalidArgument("lex error at " + where + ": " +
                                     lex_.error());
    }
    if (diags_ != nullptr) {
      int length = t.text.empty() ? 1 : static_cast<int>(t.text.size());
      diags_->Add(Diagnostic::Error(
          "SD002", SourceSpan::At(t.line, t.col, length), msg));
    }
    return Status::InvalidArgument("parse error at " + where + ": " + msg);
  }

  Result<Predicate> ParsePredicate() {
    if (!Check(TokenKind::kIdent)) {
      return ErrorHere("expected relation name");
    }
    std::string_view name = Peek().text;
    Advance();
    Predicate pred;
    if (Match(TokenKind::kLParen)) {
      if (!Match(TokenKind::kRParen)) {
        while (true) {
          ExprBuilder b;
          SEQDL_RETURN_IF_ERROR(ParsePathExprInto(b, 0));
          pred.args.push_back(std::move(b.expr));
          if (!Match(TokenKind::kComma)) break;
        }
        SEQDL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      }
    }
    SEQDL_ASSIGN_OR_RETURN(
        pred.rel, u_.InternRel(name, static_cast<uint32_t>(pred.args.size())));
    return pred;
  }

  Result<Literal> ParseLiteral() {
    bool negated = false;
    if (Match(TokenKind::kBang) || Match(TokenKind::kNot)) negated = true;

    // Disambiguate predicate vs equation. "Ident(" is always a predicate
    // application; a bare identifier followed by '=' / '!=' / concatenation
    // starts an equation; otherwise a bare identifier is an arity-0
    // predicate.
    bool is_predicate = false;
    if (Check(TokenKind::kIdent)) {
      TokenKind next = Peek(1).kind;
      is_predicate = next == TokenKind::kLParen ||
                     (next != TokenKind::kEq && next != TokenKind::kNeq &&
                      next != TokenKind::kConcat);
    }
    if (is_predicate) {
      SEQDL_ASSIGN_OR_RETURN(Predicate p, ParsePredicate());
      return Literal::Pred(std::move(p), negated);
    }

    ExprBuilder lhs;
    SEQDL_RETURN_IF_ERROR(ParsePathExprInto(lhs, 0));
    bool neq;
    if (Match(TokenKind::kEq)) {
      neq = false;
    } else if (Match(TokenKind::kNeq)) {
      neq = true;
    } else {
      return ErrorHere("expected '=' or '!=' in equation");
    }
    if (neq && negated) {
      return ErrorHere("cannot negate a nonequality ('!' with '!=')");
    }
    ExprBuilder rhs;
    SEQDL_RETURN_IF_ERROR(ParsePathExprInto(rhs, 0));
    return Literal::Eq(std::move(lhs.expr), std::move(rhs.expr),
                       negated || neq);
  }

  // The one item grammar of programs and facts:
  //   pathexpr := item (concat item)*
  // `depth` counts the packs open around it.
  template <typename Builder>
  Status ParsePathExprInto(Builder& b, int depth) {
    SEQDL_RETURN_IF_ERROR(ParseItemInto(b, depth));
    while (Match(TokenKind::kConcat)) {
      SEQDL_RETURN_IF_ERROR(ParseItemInto(b, depth));
    }
    return Status::OK();
  }

  // One item ('eps' and '()' contribute no values — the empty path is the
  // empty item sequence).
  template <typename Builder>
  Status ParseItemInto(Builder& b, int depth) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kEps:
        Advance();
        return Status::OK();
      case TokenKind::kLParen:
        if (Peek(1).kind != TokenKind::kRParen) break;
        Advance();
        Advance();
        return Status::OK();
      case TokenKind::kIdent:
        b.Atom(u_.InternAtom(t.text));
        Advance();
        return Status::OK();
      case TokenKind::kAtomVar:
      case TokenKind::kPathVar:
        SEQDL_RETURN_IF_ERROR(b.Var(u_,
                                    t.kind == TokenKind::kAtomVar
                                        ? VarKind::kAtomic
                                        : VarKind::kPath,
                                    t.text));
        Advance();
        return Status::OK();
      case TokenKind::kLAngle: {
        if (depth == kMaxPackNesting) {
          return ErrorHere("packs nested deeper than the limit of " +
                           std::to_string(kMaxPackNesting));
        }
        Advance();
        Builder inner = b.Inner();
        if (!Check(TokenKind::kRAngle)) {
          SEQDL_RETURN_IF_ERROR(ParsePathExprInto(inner, depth + 1));
        }
        SEQDL_RETURN_IF_ERROR(Expect(TokenKind::kRAngle));
        b.Pack(std::move(inner));
        return Status::OK();
      }
      default:
        break;
    }
    return ErrorHere("expected path expression item, found " +
                     std::string(TokenKindToString(t.kind)));
  }

  // fact := IDENT [ '(' [pathexpr (',' pathexpr)*] ')' ] [ '<-' ] '.'
  // with ground paths only. Non-OK on anything else; the caller then
  // rewinds and takes the rule path.
  Status ParseGroundFact(const FactFn& fact) {
    std::string_view name = Peek().text;
    Advance();
    args_.clear();
    if (Match(TokenKind::kLParen) && !Match(TokenKind::kRParen)) {
      if (levels_.empty()) levels_.emplace_back();
      do {
        levels_[0].clear();
        GroundBuilder b{&u_, &levels_, 0};
        SEQDL_RETURN_IF_ERROR(ParsePathExprInto(b, 0));
        args_.push_back(u_.InternPath(levels_[0]));
      } while (Match(TokenKind::kComma));
      SEQDL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    }
    Match(TokenKind::kArrow);  // "R(a) <- ." is a fact too
    SEQDL_RETURN_IF_ERROR(Expect(TokenKind::kPeriod));
    SEQDL_ASSIGN_OR_RETURN(
        RelId rel, u_.InternRel(name, static_cast<uint32_t>(args_.size())));
    fact(rel, args_);
    return Status::OK();
  }

  Universe& u_;
  Lexer lex_;
  DiagnosticList* diags_;
  Token tok_[2];
  // ParseFacts' per-fact buffers, reused.
  std::vector<PathId> args_;
  std::vector<std::vector<Value>> levels_;
};

}  // namespace

Result<Program> ParseProgram(Universe& u, std::string_view source) {
  return Parser(u, source).ParseProgram();
}

Result<Program> ParseProgram(Universe& u, std::string_view source,
                             DiagnosticList* diags) {
  return Parser(u, source, diags).ParseProgram();
}

Result<Rule> ParseRule(Universe& u, std::string_view source) {
  Parser p(u, source);
  SEQDL_ASSIGN_OR_RETURN(Rule r, p.ParseRule());
  SEQDL_RETURN_IF_ERROR(p.ExpectEnd());
  return r;
}

Result<PathExpr> ParsePathExpr(Universe& u, std::string_view source) {
  return Parser(u, source).ParsePathExprTop();
}

Status ParseFacts(Universe& u, std::string_view source, const FactFn& fact) {
  return Parser(u, source).ParseFacts(fact);
}

}  // namespace seqdl
