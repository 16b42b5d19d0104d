#!/usr/bin/env bash
# Front-end agreement: one command script goes through `seqdl serve`'s
# stdin loop and, command by command, through `seqdl query` against
# `seqdl serve --listen=0`. Both front ends share one command table, one
# reply printer and one error renderer, so their stdout must be
# byte-identical and their `error:` lines identical. `compile` is left
# out: its line carries a timing. `seqdl run` must print what `seqdl
# query run` prints, in memory and over a seeded and a recovered data
# directory. Malformed numeric flags must be usage errors (exit 2), not
# silently wrapped or truncated values, and so must a flag the subcommand
# does not read: every subcommand gets one misspelled flag. Operands may
# come before or after flags; a repeated flag or one operand too many is
# a usage error; and every synopsis line `seqdl` prints is a line of
# README.md.
#
#   tests/cli_front_ends.sh <path to the seqdl binary>
set -euo pipefail

SEQDL=$(realpath "${1:?usage: cli_front_ends.sh <seqdl binary>}")
README=$(realpath "$(dirname "$0")/../README.md")
WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill "$SERVER_PID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

printf 'E(a, b). E(b, c). E(c, d).\n' > edb.sdl
printf 'E(d, e).\n' > more.sdl
printf 'R($x, $y) <- E($x, $y).\nR($x, $z) <- R($x, $y), E($y, $z).\n' \
  > reach.sdl
printf 'Bad($x) <- E($x, $y)\n' > bad.sdl     # no closing '.'
printf 'E(a, \n' > badfacts.sdl               # unterminated fact
COMMANDS=(
  "run reach.sdl R"
  "append more.sdl"
  "run reach.sdl R"
  "retract more.sdl"
  "run reach.sdl"
  "epoch"
  "compact"
  "stats"
  "run bad.sdl"
  "append badfacts.sdl"
)
failed=0

# Serves $1 on an ephemeral port; sets SERVER_PID and PORT.
start_server() {
  "$SEQDL" serve "$1" --listen=0 > server.out 2> server.err &
  SERVER_PID=$!
  PORT=
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^listening on 127.0.0.1:\([0-9]*\)$/\1/p' server.out)
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  if [ -z "$PORT" ]; then
    echo "FAIL: seqdl serve --listen=0 did not start"
    cat server.err
    exit 1
  fi
}
stop_server() {
  timeout 60 "$SEQDL" query --connect="127.0.0.1:$PORT" shutdown > /dev/null
  wait "$SERVER_PID"
  SERVER_PID=
}

printf '%s\n' "${COMMANDS[@]}" \
  | timeout 60 "$SEQDL" serve edb.sdl > stdin.out 2> stdin.err

start_server edb.sdl
: > query.out
: > query.err
for cmd in "${COMMANDS[@]}"; do
  # Word splitting makes the command's operands separate arguments.
  # shellcheck disable=SC2086
  timeout 60 "$SEQDL" query --connect="127.0.0.1:$PORT" $cmd \
    >> query.out 2>> query.err || true
done
stop_server

if ! cmp -s stdin.out query.out; then
  echo "FAIL: stdout differs (< stdin serve, > seqdl query)"
  diff stdin.out query.out || true
  failed=1
fi
grep 'error:' stdin.err > stdin.errors || true
grep 'error:' query.err > query.errors || true
if [ "$(wc -l < stdin.errors)" -ne 2 ] || ! cmp -s stdin.errors query.errors
then
  echo "FAIL: error lines differ or are not one per malformed file"
  echo "-- stdin serve:"; cat stdin.errors
  echo "-- seqdl query:"; cat query.errors
  failed=1
fi

# T has an input fact, T(z), that is no derived fact: no front end
# prints it, with or without --output=T.
printf 'T($x) <- E($x, $y).\n' > derive.sdl
{ cat edb.sdl; printf 'T(z).\n'; } > runedb.sdl
printf 'T(a).\nT(b).\nT(c).\n' > derived.want
start_server runedb.sdl
for rel in "" T; do
  flag=${rel:+--output=$rel}
  # shellcheck disable=SC2086
  {
    timeout 60 "$SEQDL" query --connect="127.0.0.1:$PORT" run derive.sdl \
      $rel > "run$rel.query" 2> /dev/null || true
    timeout 60 "$SEQDL" run derive.sdl runedb.sdl $flag \
      > "run$rel.memory" 2> /dev/null || true
    timeout 60 "$SEQDL" run derive.sdl runedb.sdl --data-dir="data$rel" $flag \
      > "run$rel.seeded" 2> /dev/null || true
    timeout 60 "$SEQDL" run derive.sdl --data-dir="data$rel" $flag \
      > "run$rel.recovered" 2> /dev/null || true
  }
  for mode in query memory seeded recovered; do
    if ! cmp -s derived.want "run$rel.$mode"; then
      echo "FAIL: the $mode run (${flag:-all relations}) did not print" \
        "exactly the derived facts"
      diff derived.want "run$rel.$mode" || true
      failed=1
    fi
  done
done
stop_server

expect_usage_error() {
  local rc=0
  timeout 10 "$SEQDL" "$@" < /dev/null > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: 'seqdl $*' exited $rc, expected 2"
    failed=1
  fi
}
expect_usage_error serve edb.sdl --listen=70000
expect_usage_error serve edb.sdl --cache-bytes=64M
expect_usage_error serve edb.sdl --threads=2x
expect_usage_error query --connect=127.0.0.1:70000 epoch
expect_usage_error coordinate --shards=127.0.0.1:1 --listen=70000
expect_usage_error coordinate --shards=127.0.0.1:1 --io-timeout-ms=5s

# A misspelled flag stops each subcommand before it reads a file, opens a
# data directory, connects or binds a port.
expect_usage_error run derive.sdl runedb.sdl --outptu=T
expect_usage_error serve edb.sdl --datadir=typo --sync=always
expect_usage_error serve edb.sdl --data-dir typo
if [ -e typo ]; then
  echo "FAIL: serve with a misspelled flag left a data directory behind"
  failed=1
fi
expect_usage_error coordinate --shards=127.0.0.1:1 --listne=0
expect_usage_error query --connect=127.0.0.1:1 --stat epoch
expect_usage_error check reach.sdl --jsn
expect_usage_error transform reach.sdl --elimnate=all
expect_usage_error normalform reach.sdl --verbose
expect_usage_error algebra reach.sdl R --verbose
expect_usage_error hasse --dto
expect_usage_error regex 'a*' --verbose

# Operands may come before, between or after flags: a flag written first
# prints the same bytes as the same flag written last.
printf 'S($x) <- R($x ++ a), $x = b ++ $y.\n' > eq.sdl
expect_same() {
  local first=$1 last=$2 rc_first=0 rc_last=0
  # shellcheck disable=SC2086
  timeout 10 "$SEQDL" $first > first.out 2> /dev/null || rc_first=$?
  # shellcheck disable=SC2086
  timeout 10 "$SEQDL" $last > last.out 2> /dev/null || rc_last=$?
  if [ "$rc_first" -ne 0 ] || [ "$rc_last" -ne 0 ] ||
    [ ! -s first.out ] || ! cmp -s first.out last.out; then
    echo "FAIL: 'seqdl $first' (exit $rc_first) does not print what" \
      "'seqdl $last' (exit $rc_last) prints"
    failed=1
  fi
}
expect_same "check --json reach.sdl" "check reach.sdl --json"
expect_same "transform --eliminate=all eq.sdl" \
  "transform eq.sdl --eliminate=all"

# A bad flag value, one operand too many and a repeated flag are usage
# errors too, found before any file is read or any connection is made.
expect_usage_error transform nosuch.sdl --eliminate=bogus
expect_usage_error run derive.sdl runedb.sdl extra.sdl
expect_usage_error hasse extra
expect_usage_error run derive.sdl runedb.sdl --output=E --output=R
expect_usage_error query --connect=127.0.0.1:1 epoch extra

# The stdin loop checks a command's operands the same way: it answers
# `epoch extra` with an error line, not with the epoch.
printf 'epoch extra\n' | timeout 60 "$SEQDL" serve edb.sdl \
  > extra.out 2> extra.err
if [ -s extra.out ] || ! grep -q '^error: ' extra.err; then
  echo "FAIL: stdin serve answered 'epoch extra' as 'epoch'"
  cat extra.out extra.err
  failed=1
fi

# Every synopsis line that `seqdl` prints without a subcommand is a line
# of README.md's CLI block, so the two cannot drift apart.
synopses=$({ "$SEQDL" 2>&1 || true; } | sed -n 's/^  \(seqdl .*\)$/\1/p')
if [ -z "$synopses" ]; then
  echo "FAIL: seqdl without a subcommand printed no synopsis lines"
  failed=1
fi
while IFS= read -r synopsis; do
  if [ -n "$synopsis" ] && ! grep -qxF "$synopsis" "$README"; then
    echo "FAIL: README.md lacks the synopsis line '$synopsis'"
    failed=1
  fi
done <<< "$synopses"

if [ "$failed" -ne 0 ]; then exit 1; fi
echo "front ends agree: $(wc -l < stdin.out) stdout lines, 2 error lines;" \
  "seqdl run agrees in 3 modes"
