#include "src/analysis/diagnostics.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace seqdl {

const char* SeverityToString(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

Diagnostic Diagnostic::Error(std::string code, SourceSpan span,
                             std::string message) {
  return Diagnostic{Severity::kError, std::move(code), span,
                    std::move(message), {}};
}

Diagnostic Diagnostic::Warning(std::string code, SourceSpan span,
                               std::string message) {
  return Diagnostic{Severity::kWarning, std::move(code), span,
                    std::move(message), {}};
}

Diagnostic Diagnostic::Note(std::string code, SourceSpan span,
                            std::string message) {
  return Diagnostic{Severity::kNote, std::move(code), span,
                    std::move(message), {}};
}

std::string Diagnostic::ToString(const std::string& source_name) const {
  std::string out;
  if (!source_name.empty()) out += source_name + ":";
  if (span.valid()) {
    out += std::to_string(span.line) + ":" + std::to_string(span.col) + ":";
  }
  if (!out.empty()) out += " ";
  out += SeverityToString(severity);
  out += ": ";
  out += message;
  if (!code.empty()) {
    out += " [";
    out += code;
    out += "]";
  }
  return out;
}

size_t DiagnosticList::NumErrors() const {
  size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

size_t DiagnosticList::NumWarnings() const {
  size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kWarning) ++n;
  }
  return n;
}

bool DiagnosticList::HasCode(const std::string& code) const {
  for (const Diagnostic& d : diags_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string DiagnosticList::RenderText(const std::string& source_name) const {
  std::string out;
  for (const Diagnostic& d : diags_) {
    out += d.ToString(source_name);
    out += "\n";
    for (const std::string& note : d.notes) {
      out += "  note: " + note + "\n";
    }
  }
  return out;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string DiagnosticList::RenderJson() const {
  std::string out = "[";
  for (size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    if (i > 0) out += ",";
    out += "\n  {\"severity\": ";
    AppendJsonString(&out, SeverityToString(d.severity));
    out += ", \"code\": ";
    AppendJsonString(&out, d.code);
    out += ", \"line\": " + std::to_string(d.span.line);
    out += ", \"col\": " + std::to_string(d.span.col);
    out += ", \"endLine\": " + std::to_string(d.span.end_line);
    out += ", \"endCol\": " + std::to_string(d.span.end_col);
    out += ", \"message\": ";
    AppendJsonString(&out, d.message);
    out += ", \"notes\": [";
    for (size_t j = 0; j < d.notes.size(); ++j) {
      if (j > 0) out += ", ";
      AppendJsonString(&out, d.notes[j]);
    }
    out += "]}";
  }
  out += diags_.empty() ? "]" : "\n]";
  return out;
}

Diagnostic DiagnosticFromStatus(const Status& status) {
  std::string message = status.message();
  std::string code;
  // A trailing " [SDxxx]" is a structured code; lift it out so the
  // rendered line carries it exactly once (ToString re-appends).
  if (message.size() >= 8 && message.back() == ']') {
    size_t open = message.rfind(" [SD");
    if (open != std::string::npos && open + 3 < message.size() - 1) {
      std::string candidate = message.substr(open + 2,
                                             message.size() - open - 3);
      bool digits = candidate.size() > 2;
      for (size_t i = 2; i < candidate.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(candidate[i]))) {
          digits = false;
          break;
        }
      }
      if (digits) {
        code = std::move(candidate);
        message.erase(open);
      }
    }
  }
  return Diagnostic::Error(std::move(code), SourceSpan{}, std::move(message));
}

SourceSpan SpanFromStatusMessage(const std::string& message) {
  // Find the first "L:C:" pair where both sides are digit runs — covers
  // "parse error at 3:7: ..." and "facts.sdl:3:7: ...".
  for (size_t i = 0; i < message.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(message[i]))) continue;
    if (i > 0 && (std::isalnum(static_cast<unsigned char>(message[i - 1])) ||
                  message[i - 1] == '_')) {
      // Mid-identifier digits (e.g. "v12:") are not a line number.
      while (i + 1 < message.size() &&
             std::isdigit(static_cast<unsigned char>(message[i + 1]))) {
        ++i;
      }
      continue;
    }
    size_t j = i;
    while (j < message.size() &&
           std::isdigit(static_cast<unsigned char>(message[j]))) {
      ++j;
    }
    if (j >= message.size() || message[j] != ':' || j + 1 >= message.size() ||
        !std::isdigit(static_cast<unsigned char>(message[j + 1]))) {
      i = j;
      continue;
    }
    size_t k = j + 1;
    while (k < message.size() &&
           std::isdigit(static_cast<unsigned char>(message[k]))) {
      ++k;
    }
    if (k >= message.size() || message[k] != ':') {
      i = k;
      continue;
    }
    int line = std::atoi(message.substr(i, j - i).c_str());
    int col = std::atoi(message.substr(j + 1, k - j - 1).c_str());
    if (line > 0 && col > 0) return SourceSpan::At(line, col);
    i = k;
  }
  return SourceSpan{};
}

}  // namespace seqdl
