#!/usr/bin/env python3
"""metadock-lint: domain rules generic linters cannot encode.

The reproduction's two load-bearing invariants (DESIGN.md §11):

  1. determinism — per-pose energies and every reported "performance"
     number are a pure function of (inputs, seed).  Virtual time comes from
     gpusim::VirtualClock and randomness from util::stream's counter-based
     generators; any wall clock or ambient RNG inside the simulator layers
     silently breaks run-to-run reproducibility and the
     strategy-invariance tests.
  2. instrumentation is nullable — obs::Observer* is off (nullptr) by
     default, so every dereference must sit behind a null guard.

Rules (suppress a finding with `// metadock-lint: allow(<rule>)` on the
same or the preceding line, with a reason):

  MDL001 wall-clock         std::chrono clocks / util::WallTimer /
                            time-of-day calls in the simulator layers
                            (src/{gpusim,sched,meta,scoring,vs}); the
                            include graph is walked so pulling a clock in
                            through a src header is also caught.
  MDL002 banned-rng         rand()/srand()/std::random_device anywhere in
                            src/ — non-deterministic or globally seeded.
  MDL003 std-random-engine  std::mt19937 & friends in the simulator
                            layers; randomness must go through the
                            counter-based util::stream/Xoshiro256 so the
                            numeric trajectory is schedule-independent.
  MDL004 narrowing-accum    `float` accumulator += a double-typed term in
                            a scoring TU.  Kernels accumulate per-pair
                            float terms into double; narrowing back into
                            float makes the scalar and SIMD paths diverge
                            bit-for-bit.
  MDL005 unguarded-observer dereference of an obs::Observer* handle
                            (observer / observer_ / obs_) without a null
                            guard in the preceding lines.
  MDL006 test-include       #include of tests/ code from src/ — the
                            library must never depend on test fixtures.
  MDL007 hot-loop-alloc     heap growth (`new`, malloc/calloc/realloc,
                            std::vector declarations, or growth calls such
                            as push_back/resize/reserve/insert) inside a
                            region bracketed by
                            `// metadock-lint: hot-begin(<name>)` and
                            `// metadock-lint: hot-end`.  The generation
                            loop of src/meta/ is allocation-free by design
                            (DESIGN.md §12): every buffer is sized before
                            the loop, so any allocator call in there is a
                            perf regression waiting to recur.
  MDL008 raw-clock-advance  direct `clock_.advance_seconds(...)` or
                            `clock_.advance_ns(...)` in src/gpusim/.  The
                            stream model (DESIGN.md §13) requires every
                            time advance to flow through the stream-aware
                            helpers (cursors/engines merged by sync()); a
                            raw clock bump desynchronizes the device clock
                            from its stream timelines.  The only legal
                            sites are Device::sync(),
                            Device::advance_seconds() and
                            Device::replay() themselves.
  MDL009 layering           cross-module #include that the architecture
                            DAG (DESIGN.md §16.3, ALLOWED_DEPS below) does
                            not permit.  Upward includes (util -> sched)
                            and edges between unrelated modules are both
                            rejected; because the allow-map itself is
                            acyclic, include cycles cannot pass.
  MDL010 raw-lock-primitive direct std::mutex / std::lock_guard /
                            std::unique_lock / std::condition_variable /
                            std::atomic_flag (& friends) anywhere in src/
                            outside util/sync.h.  Locks must go through
                            the capability-annotated util:: wrappers so
                            `clang++ -Wthread-safety` sees every acquire
                            and release (DESIGN.md §16).

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc")

#: Directories under src/ that form the simulator: everything whose numbers
#: feed results must be driven by virtual clocks and seeded samplers only.
RESTRICTED_DIRS = ("gpusim", "sched", "meta", "scoring", "vs")

ALLOW_RE = re.compile(r"//\s*metadock-lint:\s*allow\(([^)]*)\)")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|util::WallTimer"
    r"|\bclock_gettime\s*\("
    r"|\bgettimeofday\s*\("
    r"|\bstd::time\s*\("
)
TIMER_INCLUDE_RE = re.compile(r'#\s*include\s+"util/timer\.h"')
BANNED_RNG_RE = re.compile(
    r"(?<![\w:])rand\s*\(\s*\)|(?<![\w:])srand\s*\(|std::random_device"
)
STD_ENGINE_RE = re.compile(
    r"std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux(?:24|48)(?:_base)?|knuth_b)\b"
)
INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')
TEST_INCLUDE_RE = re.compile(r'#\s*include\s+"(?:\.\./)*(?:tests?|testing)/')

FLOAT_DECL_RE = re.compile(r"\bfloat\s+(\w+)\s*(?:=|;|\{)")
DOUBLE_DECL_RE = re.compile(r"\bdouble\s+(\w+)\s*(?:=|;|\{)")
ACCUM_RE = re.compile(r"\b(\w+)\s*\+=\s*(.+?);")
#: A floating literal with no suffix is double-typed.
DOUBLE_LITERAL_RE = re.compile(r"(?<![\w.])\d+\.\d*(?:[eE][-+]?\d+)?(?![\w.])")

HOT_BEGIN_RE = re.compile(r"//\s*metadock-lint:\s*hot-begin\(([^)]*)\)")
HOT_END_RE = re.compile(r"//\s*metadock-lint:\s*hot-end\b")
#: Heap growth inside a hot region.  Three families: the allocator
#: expressions themselves (`new`, the C allocators), growth member calls on
#: any container (push_back & friends reallocate), and declaring a fresh
#: std::vector (its very existence means a heap buffer per iteration).
HOT_ALLOC_RE = re.compile(
    r"(?<![\w:])new\b"                   # any new-expression, incl. new T[n]
    r"|(?<!\w)(?:std::)?(?:malloc|calloc|realloc|aligned_alloc)\s*\("
    r"|(?:\.|->)\s*(?:push_back|emplace_back|resize|reserve|insert|emplace)\s*\("
    r"|\bstd::vector\s*<"
)

#: A raw device-clock advance: legal only inside the stream-aware helpers
#: of gpusim::Device (which carry an explicit allow pragma).
RAW_CLOCK_ADVANCE_RE = re.compile(r"\bclock_\.advance_(?:seconds|ns)\s*\(")

#: An observer handle: observer / observer_ / obs_ (optionally reached
#: through members, e.g. options_.observer).  `obs::` (the namespace) and
#: value members like `o.metrics` do not match.
OBSERVER_DEREF_RE = re.compile(r"(?P<ptr>(?:\w+(?:\.|->))*(?:observer_?|obs_))\s*->")

#: The architecture DAG: module -> modules it may include (MDL009).  Derived
#: from — and enforcing — the layering diagram in DESIGN.md §16.3.  An edge
#: absent here is a violation whether it points up, sideways, or into a
#: module this map has never heard of; and since the map itself is acyclic
#: (asserted at startup), no include cycle can ever pass the check.
ALLOWED_DEPS: Dict[str, Tuple[str, ...]] = {
    "util": (),
    "geom": (),
    "obs": ("util",),
    "mol": ("geom", "util"),
    "surface": ("geom", "mol"),
    "scoring": ("mol", "geom", "util"),
    "gpusim": ("util", "scoring", "obs"),
    "cpusim": ("scoring", "util", "obs", "gpusim"),
    "meta": ("scoring", "util", "surface", "obs", "geom", "mol"),
    "sched": ("meta", "gpusim", "cpusim", "scoring", "obs", "util"),
    "vs": ("util", "sched", "mol", "meta", "surface", "obs", "scoring", "geom"),
}

#: Raw standard lock/wait primitives (MDL010): these blind the clang
#: thread-safety analysis, so src/ must reach them through the annotated
#: util:: wrappers instead.
RAW_PRIMITIVE_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?|atomic_flag)\b"
)
#: The sanctioned wrapper layer itself (and the attribute shim): the only
#: src/ files allowed to name the raw primitives.
RAW_PRIMITIVE_EXEMPT = (
    "src/util/sync.h",
    "src/util/thread_annotations.h",
)

RULES = {
    "MDL001": "wall-clock",
    "MDL002": "banned-rng",
    "MDL003": "std-random-engine",
    "MDL004": "narrowing-accum",
    "MDL005": "unguarded-observer",
    "MDL006": "test-include",
    "MDL007": "hot-loop-alloc",
    "MDL008": "raw-clock-advance",
    "MDL009": "layering",
    "MDL010": "raw-lock-primitive",
}
NAME_TO_ID = {name: rule_id for rule_id, name in RULES.items()}


def _assert_deps_acyclic() -> None:
    """The layering map must itself be a DAG, or MDL009 proves nothing."""
    state: Dict[str, int] = {}  # 0 visiting, 1 done

    def visit(mod: str) -> None:
        if state.get(mod) == 1:
            return
        if state.get(mod) == 0:
            raise AssertionError(f"ALLOWED_DEPS cycle through '{mod}'")
        state[mod] = 0
        for dep in ALLOWED_DEPS.get(mod, ()):
            visit(dep)
        state[mod] = 1

    for mod in ALLOWED_DEPS:
        visit(mod)


_assert_deps_acyclic()


class Finding:
    def __init__(self, path: str, line: int, rule_id: str, message: str):
        self.path = path
        self.line = line
        self.rule_id = rule_id
        self.message = message

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule_id} "
            f"({RULES[self.rule_id]}): {self.message}"
        )


def strip_comments(lines: List[str]) -> List[str]:
    """Blanks out // and /* */ comment text (string literals are kept:
    the banned constructs are code, and none of them read naturally inside
    a string).  Line count and column positions are preserved."""
    out: List[str] = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    result.append(" " * (len(line) - i))
                    i = len(line)
                else:
                    result.append(" " * (end + 2 - i))
                    i = end + 2
                    in_block = False
            elif line.startswith("//", i):
                result.append(" " * (len(line) - i))
                i = len(line)
            elif line.startswith("/*", i):
                in_block = True
                result.append("  ")
                i += 2
            else:
                result.append(line[i])
                i += 1
        out.append("".join(result))
    return out


def allowed_rules(raw_lines: List[str], lineno: int) -> Set[str]:
    """Rule IDs suppressed at 1-based `lineno` (same or preceding line)."""
    allowed: Set[str] = set()
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m:
                for token in m.group(1).split(","):
                    token = token.strip().split()[0] if token.strip() else ""
                    if token in RULES:
                        allowed.add(token)
                    elif token in NAME_TO_ID:
                        allowed.add(NAME_TO_ID[token])
    return allowed


def hot_regions(raw_lines: List[str]) -> Dict[int, str]:
    """1-based line -> region name for lines strictly between a
    `hot-begin(<name>)` marker and its matching `hot-end`.  Markers live in
    comments, so they are read from the raw (unstripped) lines."""
    regions: Dict[int, str] = {}
    current: Optional[str] = None
    for lineno, line in enumerate(raw_lines, 1):
        m = HOT_BEGIN_RE.search(line)
        if m:
            current = m.group(1).strip() or "unnamed"
            continue
        if HOT_END_RE.search(line):
            current = None
            continue
        if current is not None:
            regions[lineno] = current
    return regions


def is_restricted(rel: str) -> bool:
    parts = rel.replace(os.sep, "/").split("/")
    return len(parts) >= 2 and parts[0] == "src" and parts[1] in RESTRICTED_DIRS


def module_of(rel: str) -> Optional[str]:
    """`src/<module>/...` -> module name; None for files outside a module."""
    parts = rel.replace(os.sep, "/").split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


class SourceFile:
    """One parsed source file, read and comment-stripped exactly once.

    Both the include-graph pass and the per-file lint pass work from this
    object, so a header shared by many TUs is parsed once per run instead
    of once per includer (the memoization that keeps full-tree runs fast).
    """

    __slots__ = ("rel", "raw", "code", "hot", "module")

    def __init__(self, root: str, path: str):
        self.rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as fh:
            self.raw = fh.read().splitlines()
        self.code = strip_comments(self.raw)
        self.hot = hot_regions(self.raw)
        self.module = module_of(self.rel)


def is_scoring_tu(rel: str) -> bool:
    return rel.replace(os.sep, "/").startswith("src/scoring/")


def is_gpusim_tu(rel: str) -> bool:
    return rel.replace(os.sep, "/").startswith("src/gpusim/")


def iter_source_files(src_root: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def build_include_graph(files: List["SourceFile"]) -> Dict[str, List[Tuple[int, str]]]:
    """rel path -> [(lineno, included rel path)] for src-internal includes
    (quoted includes resolved against src/, the project convention).
    Works from the memoized parses — no file is re-read here."""
    graph: Dict[str, List[Tuple[int, str]]] = {}
    known = {sf.rel for sf in files}
    for sf in files:
        edges: List[Tuple[int, str]] = []
        for lineno, line in enumerate(sf.raw, 1):
            m = INCLUDE_RE.search(line)
            if m:
                target = os.path.join("src", m.group(1))
                if target in known:
                    edges.append((lineno, target))
        graph[sf.rel] = edges
    return graph


def reaches_wall_clock(
    rel: str,
    graph: Dict[str, List[Tuple[int, str]]],
    cache: Dict[str, bool],
) -> bool:
    """True when `rel` includes src/util/timer.h, transitively."""
    if rel in cache:
        return cache[rel]
    cache[rel] = False  # cycle guard
    result = any(
        target == os.path.join("src", "util", "timer.h")
        or reaches_wall_clock(target, graph, cache)
        for _, target in graph.get(rel, [])
    )
    cache[rel] = result
    return result


GUARD_WINDOW = 20


def observer_guarded(code_lines: List[str], lineno: int, ptr: str) -> bool:
    """Is the deref of `ptr` at 1-based `lineno` within sight of a null
    check of the same expression?  Recognized guards: `if (p)`,
    `if (p != nullptr)`, early-return `if (p == nullptr) return`,
    `p != nullptr &&`, `p ? ... :`, and the binding idiom
    `if (obs::Observer* o = p)`."""
    p = re.escape(ptr)
    guard_re = re.compile(
        rf"if\s*\(\s*{p}\s*\)"
        rf"|if\s*\(\s*{p}\s*!=\s*nullptr"
        rf"|{p}\s*==\s*nullptr"
        rf"|{p}\s*!=\s*nullptr"
        rf"|=\s*{p}\s*\)"
        rf"|{p}\s*\?"
        rf"|{p}\s*&&"
    )
    lo = max(0, lineno - GUARD_WINDOW)
    return any(guard_re.search(code_lines[idx]) for idx in range(lo, lineno))


def lint_file(
    sf: "SourceFile",
    graph: Dict[str, List[Tuple[int, str]]],
    wall_cache: Dict[str, bool],
) -> List[Finding]:
    rel = sf.rel
    raw = sf.raw
    code = sf.code
    restricted = is_restricted(rel)
    hot = sf.hot
    findings: List[Finding] = []

    def report(lineno: int, rule_id: str, message: str) -> None:
        if rule_id not in allowed_rules(raw, lineno):
            findings.append(Finding(rel, lineno, rule_id, message))

    float_vars: Set[str] = set()
    double_vars: Set[str] = set()
    if is_scoring_tu(rel):
        for line in code:
            float_vars.update(FLOAT_DECL_RE.findall(line))
            double_vars.update(DOUBLE_DECL_RE.findall(line))

    for lineno, line in enumerate(code, 1):
        if restricted:
            m = WALL_CLOCK_RE.search(line) or TIMER_INCLUDE_RE.search(line)
            if m:
                report(
                    lineno,
                    "MDL001",
                    f"wall clock in simulator layer ({m.group(0).strip()}); "
                    "results must be driven by gpusim::VirtualClock",
                )
            m = STD_ENGINE_RE.search(line)
            if m:
                report(
                    lineno,
                    "MDL003",
                    f"{m.group(0)} in simulator layer; use the counter-based "
                    "util::stream/Xoshiro256 so results are schedule-independent",
                )
        if is_gpusim_tu(rel):
            m = RAW_CLOCK_ADVANCE_RE.search(line)
            if m:
                report(
                    lineno,
                    "MDL008",
                    f"raw device-clock advance ({m.group(0).strip()}) outside "
                    "the stream-aware helpers; stream cursors/engines would "
                    "desynchronize from the clock — go through sync()/"
                    "advance_seconds()",
                )
        m = BANNED_RNG_RE.search(line)
        if m:
            report(
                lineno,
                "MDL002",
                f"{m.group(0).strip()} is non-deterministic; derive randomness "
                "from a run seed via util::stream",
            )
        if TEST_INCLUDE_RE.search(line):
            report(lineno, "MDL006", "src/ must not include test code")
        if rel.replace(os.sep, "/") not in RAW_PRIMITIVE_EXEMPT:
            m = RAW_PRIMITIVE_RE.search(line)
            if m:
                report(
                    lineno,
                    "MDL010",
                    f"raw lock primitive {m.group(0)} bypasses the "
                    "capability-annotated util:: wrappers (util/sync.h); "
                    "clang -Wthread-safety cannot see its critical sections",
                )
        if float_vars:
            am = ACCUM_RE.search(line)
            if am and am.group(1) in float_vars:
                rhs = am.group(2)
                rhs_idents = set(re.findall(r"\b\w+\b", rhs))
                if rhs_idents & double_vars or DOUBLE_LITERAL_RE.search(rhs):
                    report(
                        lineno,
                        "MDL004",
                        f"float accumulator '{am.group(1)}' receives a "
                        "double-typed term; scoring kernels accumulate float "
                        "terms into double, never the reverse",
                    )
        region = hot.get(lineno)
        if region is not None:
            hm = HOT_ALLOC_RE.search(line)
            if hm:
                report(
                    lineno,
                    "MDL007",
                    f"heap growth ({hm.group(0).strip()}) inside hot region "
                    f"'{region}'; the loop is allocation-free by design — "
                    "size buffers before hot-begin",
                )
        for dm in OBSERVER_DEREF_RE.finditer(line):
            if not observer_guarded(code, lineno, dm.group("ptr")):
                report(
                    lineno,
                    "MDL005",
                    f"obs::Observer* handle '{dm.group('ptr')}' dereferenced "
                    "without a null guard (observability is off by default)",
                )

    # Include-graph pass: a restricted TU that pulls the wall-clock timer in
    # through another src header still breaks determinism.
    if restricted:
        for lineno, target in graph.get(rel, []):
            if target == os.path.join("src", "util", "timer.h"):
                continue  # the direct include was handled (or allowed) above
            if reaches_wall_clock(target, graph, wall_cache):
                report(
                    lineno,
                    "MDL001",
                    f'#include "{target}" transitively includes util/timer.h '
                    "(wall clock) into a simulator layer",
                )

    # Layering pass (MDL009): every src-internal cross-module edge must be
    # in the architecture DAG.
    if sf.module is not None:
        allowed = ALLOWED_DEPS.get(sf.module)
        for lineno, target in graph.get(rel, []):
            target_module = module_of(target)
            if target_module is None or target_module == sf.module:
                continue
            if allowed is None:
                report(
                    lineno,
                    "MDL009",
                    f"module '{sf.module}' is not in the layering map "
                    "(ALLOWED_DEPS); add it with its permitted dependencies",
                )
            elif target_module not in allowed:
                report(
                    lineno,
                    "MDL009",
                    f"layering violation: '{sf.module}' must not include "
                    f"'{target_module}' ({target}); the architecture DAG "
                    f"allows {sf.module} -> "
                    f"{{{', '.join(allowed) if allowed else 'nothing'}}}",
                )
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root containing src/ (default: this checkout)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print nothing when clean"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint N files concurrently (default 1; output order is "
        "deterministic either way)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("metadock-lint: --jobs must be >= 1", file=sys.stderr)
        return 2

    src_root = os.path.join(args.root, "src")
    if not os.path.isdir(src_root):
        print(f"metadock-lint: no src/ under {args.root}", file=sys.stderr)
        return 2

    parsed = [SourceFile(args.root, path) for path in iter_source_files(src_root)]
    graph = build_include_graph(parsed)
    # Warm the transitive wall-clock cache single-threaded so worker threads
    # only ever read it (the per-entry writes are idempotent anyway).
    wall_cache: Dict[str, bool] = {}
    for sf in parsed:
        reaches_wall_clock(sf.rel, graph, wall_cache)

    findings: List[Finding] = []
    if args.jobs == 1:
        for sf in parsed:
            findings.extend(lint_file(sf, graph, wall_cache))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            # map() preserves input order, so findings come out in the same
            # deterministic sequence as a serial run.
            for file_findings in pool.map(
                lambda sf: lint_file(sf, graph, wall_cache), parsed
            ):
                findings.extend(file_findings)
    files = parsed

    for finding in findings:
        print(finding)
    if findings:
        print(f"metadock-lint: {len(findings)} finding(s) in {len(files)} files")
        return 1
    if not args.quiet:
        print(f"metadock-lint: OK — {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
