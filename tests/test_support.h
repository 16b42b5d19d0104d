// Helpers shared by the test files.
#ifndef SEQDL_TESTS_TEST_SUPPORT_H_
#define SEQDL_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "src/engine/instance.h"
#include "src/syntax/ast.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"

namespace seqdl {

/// The program `text` parses to. A parse error fails the test, naming the
/// error and the text, and yields an empty program.
inline Program MustParse(Universe& u, const std::string& text) {
  Result<Program> p = ParseProgram(u, text);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << "\n" << text;
  return p.ok() ? std::move(*p) : Program{};
}

/// The instance the ground facts of `text` parse to. A parse error fails
/// the test, naming the error and the text, and yields an empty instance.
inline Instance MustInstance(Universe& u, const std::string& text) {
  Result<Instance> i = ParseInstance(u, text);
  EXPECT_TRUE(i.ok()) << i.status().ToString() << "\n" << text;
  return i.ok() ? std::move(*i) : Instance{};
}

/// `prefix` followed by the decimal digits of `n`: "a" and 7 give "a7".
/// Appended into a named string: GCC 12 at -O3 reports a false
/// -Wrestrict on `"literal" + std::to_string(n)`.
inline std::string Numbered(std::string_view prefix, size_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace seqdl

#endif  // SEQDL_TESTS_TEST_SUPPORT_H_
