#include "src/syntax/lexer.h"

#include <cstring>

#include "src/term/universe.h"

namespace seqdl {

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kAtomVar: return "atomic variable";
    case TokenKind::kPathVar: return "path variable";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLAngle: return "'<'";
    case TokenKind::kRAngle: return "'>'";
    case TokenKind::kComma: return "','";
    case TokenKind::kPeriod: return "'.'";
    case TokenKind::kConcat: return "concatenation";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNeq: return "'!='";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kNot: return "'not'";
    case TokenKind::kEps: return "'eps'";
    case TokenKind::kArrow: return "'<-'";
    case TokenKind::kStratumSep: return "'---'";
    case TokenKind::kEnd: return "end of input";
    case TokenKind::kError: return "invalid token";
  }
  return "?";
}

void Lexer::SkipSpaceAndComments() {
  while (pos_ < src_.size()) {
    char c = src_[pos_];
    if (c == '\n') {
      line_start_ = ++pos_;
      ++line_;
    } else if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++pos_;
    } else if (c == '%' || c == '#' || (c == '/' && ByteAt(pos_ + 1) == '/')) {
      const void* nl =
          std::memchr(src_.data() + pos_, '\n', src_.size() - pos_);
      pos_ = nl == nullptr ? src_.size()
                           : static_cast<const char*>(nl) - src_.data();
    } else {
      break;
    }
  }
}

size_t Lexer::IdentEnd(size_t from) const {
  while (from < src_.size() &&
         IsIdentByte(static_cast<unsigned char>(src_[from]),
                     ByteAt(from + 1))) {
    ++from;
  }
  return from;
}

Token Lexer::Fail(std::string msg) {
  error_ = std::move(msg);
  failed_ = Token{TokenKind::kError, {}, line_, Col(), pos_};
  return failed_;
}

Token Lexer::Next() {
  if (!error_.empty()) return failed_;
  SkipSpaceAndComments();
  Token t{TokenKind::kEnd, {}, line_, Col(), pos_};
  if (pos_ == src_.size()) return t;
  auto take = [&](TokenKind kind, size_t len) {
    t.kind = kind;
    t.text = src_.substr(pos_, len);
    pos_ += len;
    return t;
  };
  unsigned char c = static_cast<unsigned char>(src_[pos_]);
  unsigned char next = ByteAt(pos_ + 1);
  if (c == 0xC2 && next == 0xB7) return take(TokenKind::kConcat, 2);
  if (IsIdentByte(c, next)) {
    take(TokenKind::kIdent, IdentEnd(pos_) - pos_);
    if (t.text == "not") t.kind = TokenKind::kNot;
    if (t.text == "eps") t.kind = TokenKind::kEps;
    return t;
  }
  switch (c) {
    case '"': {
      size_t end = pos_ + 1;
      while (end < src_.size() && src_[end] != '"') {
        if (src_[end] == '\n') {
          ++line_;
          line_start_ = end + 1;
        }
        ++end;
      }
      if (end == src_.size()) {
        pos_ = end;
        return Fail("unterminated string");
      }
      t.kind = TokenKind::kIdent;
      t.text = src_.substr(pos_ + 1, end - pos_ - 1);
      pos_ = end + 1;
      return t;
    }
    case '@':
    case '$': {
      ++pos_;
      if (!IsIdentByte(ByteAt(pos_), ByteAt(pos_ + 1))) {
        return Fail(std::string("expected variable name after '") +
                    static_cast<char>(c) + "'");
      }
      t.kind = c == '@' ? TokenKind::kAtomVar : TokenKind::kPathVar;
      size_t end = IdentEnd(pos_);
      t.text = src_.substr(pos_, end - pos_);
      pos_ = end;
      return t;
    }
    case '(': return take(TokenKind::kLParen, 1);
    case ')': return take(TokenKind::kRParen, 1);
    case '<':
      if (next == '-') return take(TokenKind::kArrow, 2);
      return take(TokenKind::kLAngle, 1);
    case '>': return take(TokenKind::kRAngle, 1);
    case ',': return take(TokenKind::kComma, 1);
    case '.': return take(TokenKind::kPeriod, 1);
    case '=': return take(TokenKind::kEq, 1);
    case '!':
      if (next == '=') return take(TokenKind::kNeq, 2);
      return take(TokenKind::kBang, 1);
    case ':':
      if (next == '-') return take(TokenKind::kArrow, 2);
      ++pos_;
      return Fail("expected '-' after ':'");
    case '+':
      if (next == '+') return take(TokenKind::kConcat, 2);
      ++pos_;
      return Fail("expected '+' after '+'");
    case '-':
      if (next == '-' && ByteAt(pos_ + 2) == '-') {
        return take(TokenKind::kStratumSep, 3);
      }
      return Fail("unexpected '-'");
    default:
      return Fail(std::string("unexpected character '") +
                  static_cast<char>(c) + "'");
  }
}

void Lexer::Rewind(const Token& t) {
  pos_ = t.offset;
  line_ = t.line;
  line_start_ = t.offset - static_cast<size_t>(t.col - 1);
  error_.clear();
}

}  // namespace seqdl
