// Pull lexer for the seqdl surface syntax.
//
//   program   := stratum ('---' stratum)*
//   rule      := predicate [ ('<-' | ':-') body ] '.'
//   body      := literal (',' literal)*
//   literal   := [ '!' | 'not' ] (predicate | equation)
//   equation  := pathexpr ('=' | '!=') pathexpr
//   predicate := IDENT [ '(' pathexpr (',' pathexpr)* ')' ]
//   pathexpr  := item (('·' | '++') item)*
//   item      := IDENT | '@'IDENT | '$'IDENT
//              | '<' [pathexpr] '>' | 'eps' | '(' ')'
//
// An IDENT is a run of identifier bytes (IsIdentByte in
// src/term/universe.h: ASCII letters, digits and '_', and every byte
// >= 0x80 except the interpunct 0xC2 0xB7, so numbers and UTF-8 names
// such as é, ω or 日本 need no quotes) or a double-quoted string of any
// bytes but '"'. An atom renders in quotes exactly when its name would
// not lex back as one IDENT: an empty name, a byte outside the identifier
// bytes, an interpunct, or the keywords 'not' and 'eps'
// (Universe::AppendAtom).
//
// Comments run from '%', '#', or '//' to end of line.
//
// The lexer is pulled: each Next() scans one token on demand, so no token
// list is ever built, and a token's text is a view into the source.
#ifndef SEQDL_SYNTAX_LEXER_H_
#define SEQDL_SYNTAX_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace seqdl {

enum class TokenKind {
  kIdent,       // atom / relation name (also numbers and quoted strings)
  kAtomVar,     // @x
  kPathVar,     // $x
  kLParen,
  kRParen,
  kLAngle,      // <
  kRAngle,      // >
  kComma,
  kPeriod,      // rule terminator
  kConcat,      // '·' or '++'
  kEq,          // =
  kNeq,         // !=
  kBang,        // !
  kNot,         // keyword 'not'
  kEps,         // keyword 'eps'
  kArrow,       // '<-' or ':-'
  kStratumSep,  // ---
  kEnd,
  kError,       // lex error; Lexer::error() holds the message
};

const char* TokenKindToString(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEnd;
  /// A view into the source: an identifier, a quoted string's contents, a
  /// variable's name without its sigil, or the punctuation itself. Empty
  /// for kEnd and kError.
  std::string_view text;
  /// Where the token starts (1-based, in bytes); for kError, where lexing
  /// failed.
  int line = 1;
  int col = 1;
  /// Byte offset of the token's first byte in the source.
  size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// Scans the next token. At the end of input every call returns kEnd;
  /// after a lex error every call returns the same kError token.
  Token Next();

  /// Restarts scanning at `t`, a token other than kError that this lexer
  /// returned: the next Next() returns `t` again.
  void Rewind(const Token& t);

  /// The message of the kError token ("unterminated string", ...).
  const std::string& error() const { return error_; }

 private:
  int Col() const { return static_cast<int>(pos_ - line_start_) + 1; }
  unsigned char ByteAt(size_t i) const {
    return i < src_.size() ? static_cast<unsigned char>(src_[i]) : 0;
  }
  void SkipSpaceAndComments();
  size_t IdentEnd(size_t from) const;
  Token Fail(std::string msg);

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  // offset of the current line's first byte
  std::string error_;
  Token failed_;
};

}  // namespace seqdl

#endif  // SEQDL_SYNTAX_LEXER_H_
