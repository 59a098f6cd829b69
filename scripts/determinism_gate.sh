#!/usr/bin/env bash
# The determinism gate: every registered experiment but micro_perf (pure
# timings), run with --fast at base and at head, must give identical
# results base vs head and at head --threads 1 vs --threads 4.
#
#   scripts/determinism_gate.sh BASE_BIN HEAD_BIN OUT_DIR [BASE_REV]
#
# BASE_BIN and HEAD_BIN are two builds of cisp_experiments. OUT_DIR must
# be empty or absent; it receives one fresh result cache per pass, their
# logs, and the instrumented pass's trace. Passes: base once (default
# threads), head at --threads 1, and head at --threads 4 with --metrics
# and --trace, so instrumentation is checked not to perturb results. Each
# experiment is then compared with head's `diff --tolerance 0`:
# base vs head-t1 and head-t1 vs head-t4. Columns an experiment marks as
# timing are skipped by `diff`.
#
# An experiment on one side only prints added/removed and gates only its
# thread diff. A commit in BASE_REV..HEAD whose message carries the trailer
# `Results-moved: <experiment>` makes that experiment's base vs head diff
# non-gating: its report is printed, indented, but does not count (the move
# is on purpose; CHANGES.md records old vs new). Its thread diff still
# gates. Exit 1 on any gating difference or failed head run.
set -uo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 BASE_BIN HEAD_BIN OUT_DIR [BASE_REV]" >&2
  exit 2
fi
base_bin=$1 head_bin=$2 out=$3 base_rev=${4:-}
if [ -e "$out" ] && [ -n "$(ls -A "$out")" ]; then
  echo "gate: $out is not empty" >&2
  exit 2
fi
mkdir -p "$out"
started=$SECONDS

catalog() {  # a binary's experiment names, less micro_perf
  "$1" list | sed '$d' | awk '$1 != "micro_perf" { print $1 }'
}
base_names=$(catalog "$base_bin") || exit 2
head_names=$(catalog "$head_bin") || exit 2
moved=""
if [ -n "$base_rev" ]; then
  moved=$(git -C "$(dirname "$0")" log --format='%(trailers:key=Results-moved,valueonly)' \
            "$base_rev..HEAD" | tr ', ' '\n\n' | sed '/^$/d') || exit 2
fi

pass() {  # name, binary, names, extra run flags...
  local name=$1 bin=$2 names=$3
  shift 3
  # shellcheck disable=SC2086  # names are one word each
  "$bin" run $names --fast --require-rows --cache-dir "$out/$name" "$@" \
    > "$out/$name.log" 2>&1
}
pass base "$base_bin" "$base_names" &
base_pid=$!
pass t1 "$head_bin" "$head_names" --threads 1
t1_status=$?
pass t4 "$head_bin" "$head_names" --threads 4 --metrics \
  --trace "$out/t4-trace.json"
t4_status=$?
wait "$base_pid"
base_status=$?

failures=0
if [ "$t1_status" != 0 ] || [ "$t4_status" != 0 ]; then
  echo "gate: a head pass failed; see $out/t1.log and $out/t4.log"
  failures=1
fi
# A base that cannot run an experiment is base's fault, not head's; the
# missing result fails that experiment's base vs head diff below.
[ "$base_status" = 0 ] || echo "gate: the base pass failed; see $out/base.log"

result() {  # pass, experiment -> its cache entry ("" when absent)
  local f
  for f in "$out/$1/$2"-*.result; do [ -e "$f" ] && echo "$f"; done
}
check() {  # label, experiment, file a, file b
  if [ -z "$3" ] || [ -z "$4" ]; then
    echo "FAIL $2 ($1): no result"
    failures=$((failures + 1))
  elif ! "$head_bin" diff "$3" "$4" --tolerance 0 > "$out/diff.txt"; then
    echo "FAIL $2 ($1)"
    sed 's/^/    /' "$out/diff.txt"
    failures=$((failures + 1))
  fi
}

for e in $(printf '%s\n' $base_names $head_names | sort -u); do
  if ! grep -qx "$e" <<< "$head_names"; then
    echo "removed $e"
    continue
  fi
  t1=$(result t1 "$e")
  check "head t1 vs t4" "$e" "$t1" "$(result t4 "$e")"
  if ! grep -qx "$e" <<< "$base_names"; then
    echo "added $e"
  elif grep -qx "$e" <<< "$moved"; then
    echo "moved $e (Results-moved trailer): base vs head (not gating)"
    "$head_bin" diff "$(result base "$e")" "$t1" --tolerance 0 2>&1 |
      sed 's/^/    /'
  else
    check "base vs head" "$e" "$(result base "$e")" "$t1"
  fi
done
rm -f "$out/diff.txt"

count=$(printf '%s\n' $head_names | wc -l)
echo "gate: $count experiments, $failures failure(s), $((SECONDS - started)) s"
[ "$failures" -eq 0 ]
