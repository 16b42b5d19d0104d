#!/usr/bin/env bash
# Prints every seqdl:: function that libseqdl.a defines and no linked
# binary keeps, one demangled name a line; prints nothing when every
# function has a caller.
#
#   tools/unused_functions.sh BUILD_DIR PERFBENCH_BUILD_DIR
#
# BUILD_DIR is a build of this repository (libseqdl.a and every binary:
# the CLI, tests, benches and examples) and PERFBENCH_BUILD_DIR a build of
# perfbench/. Both must be Debug builds made with
#   -DCMAKE_CXX_FLAGS=-ffunction-sections
#   -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
# so that the linker drops every function no binary reaches, and inlining
# does not hide a used function. Constructors, destructors and copy and
# move assignment operators are skipped: a type may keep them for its
# value semantics without anyone calling each one.
set -euo pipefail

BUILD=${1:?usage: unused_functions.sh BUILD_DIR PERFBENCH_BUILD_DIR}
PERF=${2:?usage: unused_functions.sh BUILD_DIR PERFBENCH_BUILD_DIR}
LIB=$BUILD/libseqdl.a
[ -f "$LIB" ] || { echo "no $LIB" >&2; exit 2; }

# The mangled names of the functions an object file or archive defines.
functions() {
  nm --defined-only -P "$@" 2> /dev/null | awk '$2 ~ /^[TtWw]$/ {print $1}'
}

binaries=()
for f in "$BUILD"/* "$PERF"/perfbench; do
  [ -f "$f" ] && [ -x "$f" ] || continue
  [ "$(od -An -N4 -tx1 "$f" | tr -d ' \n')" = 7f454c46 ] || continue
  binaries+=("$f")
done
[ "${#binaries[@]}" -gt 1 ] || { echo "no binaries in $BUILD" >&2; exit 2; }
[ -x "$PERF/perfbench" ] || { echo "no $PERF/perfbench" >&2; exit 2; }

comm -23 <(functions "$LIB" | sort -u) \
         <(for b in "${binaries[@]}"; do functions "$b"; done | sort -u) \
  | c++filt \
  | grep '^seqdl::' \
  | grep -Ev '(^|::)([A-Za-z_][A-Za-z0-9_]*)(<[^()]*>)?::~?\2\(' \
  | grep -Ev '::operator=\(' \
  | sort -u || true
