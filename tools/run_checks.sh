#!/usr/bin/env bash
# One-shot driver for every correctness-tooling gate:
#
#   1. repo hygiene        (tools/check_repo_hygiene.sh: no tracked build
#                           artifacts, no source left out of the build, no
#                           src/ header that no program includes)
#   2. metadock-lint       (determinism invariants over src/)
#   3. metadock-lint selftest (fixture trees)
#   4. BENCH schemas       (committed BENCH_scoring.json / BENCH_cluster.json
#                           vs their tools/check_bench_*.py validators)
#   5. clang-tidy baseline (skipped when LLVM is absent)
#   6. thread-safety gate  (fixture self-check + whole-tree clang build under
#                           -Wthread-safety; skipped when clang is absent)
#   7. serve smoke         (metadock serve drains three valid jobs and one
#                           with an unknown key; skipped when the CLI is not
#                           built)
#   8. CLI input smoke     (a misspelt flag, out-of-range and non-numeric
#                           values, and fault entries naming a missing
#                           device or node or a NaN time, exit 2 with
#                           usage, a hits stream on
#                           /dev/full exits 1, and --seed 42 docks the
#                           default screen; skipped when the CLI is not
#                           built)
#
# These are the same checks CTest runs under `ctest -L static_analysis`;
# this script exists so they can run without a configured build tree
# (clang-tidy, which needs compile_commands.json, degrades to a skip).
#
# Usage: tools/run_checks.sh [build-dir]
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
fail=0
skip=0

run() {
  name="$1"; shift
  echo "==> $name"
  "$@"
  code=$?
  if [ "$code" -eq 77 ]; then
    echo "==> $name: SKIPPED"
    skip=$((skip + 1))
  elif [ "$code" -ne 0 ]; then
    echo "==> $name: FAILED (exit $code)" >&2
    fail=$((fail + 1))
  else
    echo "==> $name: OK"
  fi
  echo
}

# End-to-end smoke of the batch-screening service (DESIGN.md §14): drain a
# directory of three tiny jobs and one with an unknown key.  The three must
# be renamed `.done` with a hits stream beside each, the bad one `.failed`
# with a `.failed.reason` that names the key, and serve must exit 1 for the
# failed job.
serve_smoke() {
  bin="$build_dir/tools/metadock"
  if [ ! -x "$bin" ]; then
    echo "serve smoke: $bin not built; skipping"
    return 77
  fi
  dir="$(mktemp -d)" || return 1
  for i in 1 2 3; do
    printf '%s\n' '{"ligands": 2, "min_atoms": 8, "max_atoms": 12, "receptor_atoms": 300, "scale": 0.002, "batch_size": 2, "population_per_spot": 8}' \
      > "$dir/job$i.job.json"
  done
  # A fourth job with a key the spec does not define must fail, not run.
  printf '%s\n' '{"ligands": 2, "top_pct": 5}' > "$dir/job4.job.json"
  "$bin" serve --jobs-dir "$dir" --drain > /dev/null
  code=$?
  done_count=$(find "$dir" -name '*.job.json.done' | wc -l)
  failed_count=$(find "$dir" -name 'job4.job.json.failed' | wc -l)
  hits_count=$(find "$dir" -name '*.hits.jsonl' | wc -l)
  reason_names_key=0
  grep -q top_pct "$dir/job4.job.json.failed.reason" 2> /dev/null && reason_names_key=1
  rm -rf "$dir"
  if [ "$code" -ne 1 ] || [ "$done_count" -ne 3 ] || [ "$failed_count" -ne 1 ] ||
     [ "$hits_count" -ne 3 ] || [ "$reason_names_key" -ne 1 ]; then
    echo "serve smoke: exit $code (want 1), $done_count/3 done, $failed_count/1 failed," \
         "$hits_count/3 hit streams, reason names top_pct: $reason_names_key/1" >&2
    return 1
  fi
}

# The CLI validates its input like `serve` validates job keys: a misspelt
# flag, an out-of-range or a non-numeric value, and a fault entry naming a
# device or node that does not exist, must exit 2 with the usage text on
# stderr, never run with a default or without the fault.  A hits stream that cannot be
# written must exit 1.  --seed seeds docking only, so its default value
# reproduces the default screen.
cli_smoke() {
  bin="$build_dir/tools/metadock"
  if [ ! -x "$bin" ]; then
    echo "cli smoke: $bin not built; skipping"
    return 77
  fi
  bad=0
  for probe in "screen --overlp off" "screen --batch-size -1" "tables --which 10" \
               "dock --scale -1" "screen --top-percent 0" "dock --scale abc" \
               "cluster --nodes 8 --count 16 --node-fault-kill 99@0.01" \
               "dock --node hertz --fault-kill 5@0.01" "cluster --node-fault-kill 3@nan"; do
    # shellcheck disable=SC2086  # the probe is split into arguments on purpose
    err="$("$bin" $probe 2>&1 > /dev/null)"
    code=$?
    if [ "$code" -ne 2 ] || ! printf '%s\n' "$err" | grep -q '^usage:'; then
      echo "cli smoke: 'metadock $probe' exited $code (want 2 with usage on stderr)" >&2
      bad=1
    fi
  done
  # A hits stream the OS refuses (ENOSPC on /dev/full) fails the screen.
  if [ -e /dev/full ]; then
    err="$("$bin" screen --count 3 --dataset 2BSM --node hertz --mh M1 --scale 0.005 \
           --seed 1 --hits-jsonl /dev/full 2>&1 > /dev/null)"
    code=$?
    if [ "$code" -ne 1 ] || ! printf '%s\n' "$err" | grep -q '/dev/full'; then
      echo "cli smoke: 'metadock screen --hits-jsonl /dev/full' exited $code" \
           "(want 1 naming /dev/full on stderr)" >&2
      bad=1
    fi
  fi
  default_hits="$("$bin" screen --count 2)" || bad=1
  seeded_hits="$("$bin" screen --count 2 --seed 42)" || bad=1
  if [ "$default_hits" != "$seeded_hits" ]; then
    echo "cli smoke: 'metadock screen --count 2 --seed 42' differs from the default screen" >&2
    bad=1
  fi
  return "$bad"
}

run "repo hygiene"            "$repo_root/tools/check_repo_hygiene.sh"
run "metadock-lint (src/)"    python3 "$repo_root/tools/metadock_lint.py" --root "$repo_root"
run "metadock-lint selftest"  python3 "$repo_root/tools/test_metadock_lint.py"
run "BENCH_scoring schema"    python3 "$repo_root/tools/check_bench_scoring.py" "$repo_root/BENCH_scoring.json"
run "BENCH_cluster schema"    python3 "$repo_root/tools/check_bench_cluster.py" "$repo_root/BENCH_cluster.json"
run "clang-tidy baseline"     "$repo_root/tools/run_clang_tidy.sh" "$build_dir"
run "thread-safety (clang)"   "$repo_root/tools/run_thread_safety.sh"
run "serve smoke (3+1 jobs)"  serve_smoke
run "CLI input smoke"         cli_smoke

if [ "$fail" -ne 0 ]; then
  echo "run_checks: $fail check(s) FAILED ($skip skipped)" >&2
  exit 1
fi
echo "run_checks: all checks passed ($skip skipped)"
