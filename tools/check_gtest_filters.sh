#!/usr/bin/env bash
# Fails when a --gtest_filter pattern in the CI workflows matches no test.
# Each filter is split on ':' and every pattern must list at least one
# test of the given binary, so a renamed or misspelled suite cannot drop
# silently out of a sanitizer or differential step.
#
#   tools/check_gtest_filters.sh <seqdl_tests binary> [workflow.yml ...]
#
# Without workflow files it reads .github/workflows/*.yml.
set -euo pipefail

TESTS=${1:?usage: check_gtest_filters.sh <seqdl_tests binary> [workflow.yml ...]}
shift
if [ "$#" -eq 0 ]; then
  set -- "$(dirname "$0")"/../.github/workflows/*.yml
fi

failed=0
checked=0
while IFS= read -r pattern; do
  [ -n "$pattern" ] || continue
  matched=$("$TESTS" --gtest_list_tests --gtest_filter="$pattern" \
    | grep -c '^  ' || true)
  checked=$((checked + 1))
  if [ "$matched" -eq 0 ]; then
    echo "FAIL: --gtest_filter pattern '$pattern' matches no test"
    failed=1
  fi
done < <(grep -ho -- "--gtest_filter='[^']*'" "$@" \
           | sed "s/^--gtest_filter='\(.*\)'$/\1/" | tr ':' '\n' | sort -u)

if [ "$failed" -ne 0 ]; then exit 1; fi
echo "every --gtest_filter pattern matches a test ($checked patterns)"
