// Helpers shared by the test files.
#ifndef SEQDL_TESTS_TEST_SUPPORT_H_
#define SEQDL_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/engine/instance.h"
#include "src/storage/format.h"
#include "src/syntax/ast.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/view/view.h"

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

/// Support counts must match a cold run's exactly — an overcount keeps a
/// dead tuple alive through a later retraction. With `only`, compares
/// the tables of those relations alone.
inline void ExpectSameSupport(const SharedSupport& got,
                              const SharedSupport& want,
                              const std::set<RelId>* only = nullptr) {
  std::set<RelId> rels;
  for (const SharedSupport* s : {&got, &want}) {
    for (const auto& [rel, counts] : *s) {
      if (only == nullptr || only->count(rel) > 0) rels.insert(rel);
    }
  }
  for (RelId rel : rels) {
    auto g = got.find(rel);
    auto w = want.find(rel);
    ASSERT_NE(g, got.end()) << "no support table for relation " << rel;
    ASSERT_NE(w, want.end()) << "extra support table for relation " << rel;
    EXPECT_EQ(*g->second, *w->second) << "relation " << rel;
  }
}

/// Root for scratch directories. CI points TEST_TMPDIR at a real
/// filesystem so rename/fsync semantics are exercised for real.
inline std::string TestTempRoot() {
  const char* env = std::getenv("TEST_TMPDIR");
  if (env == nullptr || *env == '\0') env = std::getenv("TMPDIR");
  if (env == nullptr || *env == '\0') env = "/tmp";
  return env;
}

inline std::string MakeTempDir(const std::string& tag) {
  std::string tmpl = TestTempRoot() + "/seqdl_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  EXPECT_NE(got, nullptr) << std::strerror(errno);
  return got == nullptr ? std::string() : std::string(got);
}

/// Removes every regular file in `dir`, then the directory itself.
/// The storage layer never creates subdirectories.
inline void RemoveTree(const std::string& dir) {
  if (dir.empty()) return;
  Result<std::vector<std::string>> names = storage::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)::unlink((dir + "/" + name).c_str());
    }
  }
  (void)::rmdir(dir.c_str());
}

/// RAII scratch directory so failures don't leak tmp dirs across runs.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag) : path(MakeTempDir(tag)) {}
  ~ScratchDir() { RemoveTree(path); }
  std::string path;
};

}  // namespace seqdl

#endif  // SEQDL_TESTS_TEST_SUPPORT_H_
