#!/usr/bin/env bash
# Byte-identity check of the deterministic bench outputs of two build trees:
#
#   scripts/diff_outputs.sh REF_BUILD NEW_BUILD
#
# Runs every fig*, ablate* and baseline_pkg bench of both trees, each in a
# fresh empty working directory, then diffs stdout together with everything
# the bench wrote there (BENCH_*.json, TIMELINE_*.json, durable checkpoint
# stores).  Prints SAME, DIFF (with the head of the diff) or SKIP per bench
# and exits nonzero if any output differs or any bench fails.  Benches whose
# output carries wall-clock values cannot be byte-compared; they are skipped
# by name, with the reason printed.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 REF_BUILD NEW_BUILD" >&2
  exit 2
fi
ref=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)

declare -A skip=(
  [ablate_partitioner]="prints the planner's wall time per cell (ms column)"
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

names=$(for tree in "$ref" "$new"; do
  for bin in "$tree"/bench/fig* "$tree"/bench/ablate* "$tree"/bench/baseline_pkg; do
    if [[ -f $bin && -x $bin ]]; then basename "$bin"; fi
  done
done | sort -u)

status=0
for name in $names; do
  if [[ -n ${skip[$name]:-} ]]; then
    echo "SKIP $name: ${skip[$name]}"
    continue
  fi
  ok=1
  for side in ref new; do
    tree=$ref
    [[ $side == new ]] && tree=$new
    if [[ ! -x $tree/bench/$name ]]; then
      echo "MISSING $name in $tree"
      ok=0
      continue
    fi
    mkdir -p "$work/$side/$name"
    if ! (cd "$work/$side/$name" &&
          "$tree/bench/$name" > stdout.txt 2> "$work/$side.$name.stderr"); then
      echo "FAIL $name: $side run exited nonzero (stderr below)"
      tail -5 "$work/$side.$name.stderr"
      ok=0
    fi
  done
  if [[ $ok == 1 ]] && diff -r "$work/ref/$name" "$work/new/$name" \
                         > "$work/$name.diff"; then
    echo "SAME $name"
  else
    [[ $ok == 1 ]] && { echo "DIFF $name"; head -20 "$work/$name.diff"; }
    status=1
  fi
done
exit $status
