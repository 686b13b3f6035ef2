#!/usr/bin/env sh
# Repo hygiene gate: build artifacts must never be committed, and no
# tracked source may be left out of the build or unused by every program.
#
# Fails when any tracked path lives under a build directory (build/,
# build-asan/, build-*/ at any depth) or is an object/archive file, when
# a tracked .cpp under src/, tests/, bench/ or examples/ is named in no
# CMakeLists.txt of its tree, or when a tracked src/ header is included by
# nothing but its own .cpp and the tests.  Runs as a CTest test (see
# tools/CMakeLists.txt); outside a git checkout (e.g. a source tarball) it
# skips instead of failing.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

if ! git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  echo "check_repo_hygiene: not a git checkout, skipping"
  exit 0
fi

bad="$(git ls-files -- 'build/*' 'build-*/*' '*/build/*' '*/build-*/*' \
  '*.o' '*.obj' '*.a' || true)"

if [ -n "$bad" ]; then
  echo "check_repo_hygiene: FAIL — build artifacts are tracked by git:" >&2
  echo "$bad" | head -20 >&2
  n="$(echo "$bad" | wc -l)"
  echo "($n tracked artifact(s); untrack with 'git rm -r --cached <path>'" >&2
  echo " and keep build directories in .gitignore)" >&2
  exit 1
fi

# The static-analysis configuration must stay tracked: deleting .clang-tidy
# or the suppression baseline would silently disable the clang-tidy gate
# (run_clang_tidy.sh diffs against the baseline, and an absent file reads
# as "no suppressions" on machines without the checkout history).  The same
# goes for the thread-safety gate: losing the annotation shim, the
# must-fail fixture, or the CI workflow would turn the lock-discipline
# check (DESIGN.md §16) into a silent no-op.
missing=""
for f in .clang-tidy tools/clang_tidy_baseline.txt \
         src/util/thread_annotations.h src/util/sync.h \
         tools/run_thread_safety.sh \
         tools/thread_safety_fixtures/broken_unlocked_access.cpp \
         tools/thread_safety_fixtures/clean_guarded_access.cpp \
         .github/workflows/checks.yml; do
  if ! git ls-files --error-unmatch "$f" > /dev/null 2>&1; then
    missing="$missing $f"
  fi
done
if [ -n "$missing" ]; then
  echo "check_repo_hygiene: FAIL — static-analysis config not tracked by git:$missing" >&2
  echo "(git add the file(s); the clang-tidy gate depends on them)" >&2
  exit 1
fi

# Orphaned sources: a .cpp that no CMakeLists.txt names is never compiled,
# so it rots unseen.  A source counts as named when the CMakeLists.txt of
# its directory or of an ancestor inside its tree names its path relative
# to that directory, with or without the .cpp suffix (bench/ and examples/
# add executables by stem).  tools/ is not scanned: its fixtures are never
# compiled on purpose.
orphans=""
for src in $(git ls-files -- 'src/*.cpp' 'tests/*.cpp' 'bench/*.cpp' 'examples/*.cpp'); do
  tree="${src%%/*}"
  dir="$(dirname "$src")"
  named=""
  while :; do
    rel="${src#"$dir"/}"
    if [ -f "$dir/CMakeLists.txt" ] && grep -Fqw -- "${rel%.cpp}" "$dir/CMakeLists.txt"; then
      named=yes
      break
    fi
    [ "$dir" = "$tree" ] && break
    dir="$(dirname "$dir")"
  done
  [ -n "$named" ] || orphans="$orphans $src"
done
if [ -n "$orphans" ]; then
  echo "check_repo_hygiene: FAIL — tracked sources named in no CMakeLists.txt:$orphans" >&2
  echo "(add each to its target, or git rm it)" >&2
  exit 1
fi

# Unused headers: a src/ header that only its own .cpp includes is code no
# program reaches.  Includes count from src/, the CLI, bench/, examples/
# and perfbench/; tests/ and the fixture trees do not, since a test alone
# does not make a header earn its place.
unused=""
for hdr in $(git ls-files -- 'src/*.h'); do
  if ! git grep -qF "#include \"${hdr#src/}\"" -- src tools/metadock_cli.cpp bench examples \
       perfbench ":(exclude)${hdr%.h}.cpp"; then
    unused="$unused $hdr"
  fi
done
if [ -n "$unused" ]; then
  echo "check_repo_hygiene: FAIL — tracked headers that nothing outside their own .cpp" \
       "includes:$unused" >&2
  echo "(use them from a program, or git rm them with their .cpp)" >&2
  exit 1
fi

echo "check_repo_hygiene: OK — no tracked build artifacts; static-analysis config tracked;" \
     "no orphaned sources; no unused headers"
