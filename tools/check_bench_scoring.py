#!/usr/bin/env python3
"""Schema validator for BENCH_scoring.json (metadock.bench_scoring/5).

Usage: check_bench_scoring.py FILE

Validates structure and basic sanity (positive throughputs, reference
present, speedups consistent with the raw numbers, generation and overlap
sections complete).  It enforces no absolute pairs/sec bar: CI machines
vary too much for one, so the committed BENCH_scoring.json documents the
reference host and this check keeps the emitter honest everywhere.  It
does enforce one host-independent wall-clock ratio: where a batched-simd
row is present, the AVX2 kernel must score at least 2x the pairs/second
of the reference loop measured in the same process.  The overlap section
is *virtual* time from the device models — deterministic on every host —
so there a hard bar is legitimate: overlapped dispatch must beat the
serial round by at least 1.25x on the transfer-bound fragment workload,
and adding the CPU tail must not lose to plain overlap.
"""

import json
import math
import sys

EXPECTED_SCHEMA = "metadock.bench_scoring/5"
KNOWN_IMPLS = {"reference", "batched-scalar", "batched-simd"}
SIMD_LEVELS = ("scalar", "avx2")
GENERATION_MODES = ("batched",)
OVERLAP_MODES = ("serial", "overlapped", "overlapped-cpu-tail")
#: Virtual-time gate: the double-buffered pipeline must hide at least this
#: much of the serial round on the transfer-bound fragment workload.
MIN_OVERLAP_SPEEDUP = 1.25
#: Wall-clock ratio gate: the AVX2 kernel's pairs/second over the reference
#: loop's, both measured in one process on one host.
MIN_SIMD_SPEEDUP = 2.0


def fail(msg: str) -> None:
    print(f"check_bench_scoring: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def require_positive_number(value, msg: str) -> None:
    require(isinstance(value, (int, float)) and math.isfinite(value) and value > 0, msg)


def check_generation(doc: dict) -> dict:
    gen = doc.get("generation")
    require(isinstance(gen, dict), "missing generation object")

    config = gen.get("config")
    require(isinstance(config, dict), "missing generation.config object")
    require(isinstance(config.get("mh"), str) and config["mh"], "generation.config.mh must be a string")
    for key in ("receptor_atoms", "ligand_atoms", "spots", "population_per_spot",
                "generations"):
        require(isinstance(config.get(key), int) and config[key] > 0,
                f"generation.config.{key} must be a positive int")

    results = gen.get("results")
    require(isinstance(results, list) and results, "generation.results must be a non-empty array")
    by_mode = {}
    for r in results:
        require(isinstance(r, dict), "each generation result must be an object")
        mode = r.get("mode")
        require(mode in GENERATION_MODES, f"unknown generation mode {mode!r}")
        require(mode not in by_mode, f"duplicate generation mode {mode!r}")
        require_positive_number(r.get("evals_per_second"),
                                f"{mode}: evals_per_second must be positive")
        by_mode[mode] = r
    for mode in GENERATION_MODES:
        require(mode in by_mode, f"missing generation mode {mode!r}")
    return by_mode


def check_overlap(doc: dict) -> dict:
    ov = doc.get("overlap")
    require(isinstance(ov, dict), "missing overlap object")

    config = ov.get("config")
    require(isinstance(config, dict), "missing overlap.config object")
    require(isinstance(config.get("node"), str) and config["node"],
            "overlap.config.node must be a string")
    for key in ("receptor_atoms", "ligand_atoms", "pairs_per_eval", "batch_poses", "batches"):
        require(isinstance(config.get(key), int) and config[key] > 0,
                f"overlap.config.{key} must be a positive int")
    require(config["pairs_per_eval"] == config["receptor_atoms"] * config["ligand_atoms"],
            "overlap.config.pairs_per_eval != receptor_atoms * ligand_atoms")
    shares = config.get("shares")
    require(isinstance(shares, list) and shares, "overlap.config.shares must be a non-empty array")
    for s in shares:
        require(isinstance(s, (int, float)) and 0.0 <= s <= 1.0,
                "overlap.config.shares entries must be in [0, 1]")
    require(abs(sum(shares) - 1.0) < 1e-6, "overlap.config.shares must sum to 1")
    tail = config.get("cpu_tail_share")
    require(isinstance(tail, (int, float)) and 0.0 <= tail < 1.0,
            "overlap.config.cpu_tail_share must be in [0, 1)")

    results = ov.get("results")
    require(isinstance(results, list) and results, "overlap.results must be a non-empty array")
    by_mode = {}
    for r in results:
        require(isinstance(r, dict), "each overlap result must be an object")
        mode = r.get("mode")
        require(mode in OVERLAP_MODES, f"unknown overlap mode {mode!r}")
        require(mode not in by_mode, f"duplicate overlap mode {mode!r}")
        require_positive_number(r.get("batch_seconds"), f"{mode}: batch_seconds must be positive")
        by_mode[mode] = r
    for mode in OVERLAP_MODES:
        require(mode in by_mode, f"missing overlap mode {mode!r}")

    serial_s = by_mode["serial"]["batch_seconds"]
    for mode, r in by_mode.items():
        speedup = r.get("speedup_vs_serial")
        require(isinstance(speedup, (int, float)) and math.isfinite(speedup),
                f"{mode}: bad speedup_vs_serial")
        expected = serial_s / r["batch_seconds"]
        require(abs(speedup - expected) < 1e-6 * max(1.0, expected),
                f"{mode}: speedup_vs_serial inconsistent with batch_seconds")

    # Virtual-time numbers are deterministic, so these are hard gates.
    require(by_mode["overlapped"]["speedup_vs_serial"] >= MIN_OVERLAP_SPEEDUP,
            f"overlapped speedup {by_mode['overlapped']['speedup_vs_serial']:.3f}x "
            f"below the {MIN_OVERLAP_SPEEDUP}x gate")
    require(by_mode["overlapped-cpu-tail"]["speedup_vs_serial"]
            >= by_mode["overlapped"]["speedup_vs_serial"] - 1e-9,
            "adding the CPU tail must not lose to plain overlap")
    return by_mode


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_bench_scoring.py FILE")
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {sys.argv[1]}: {e}")

    require(doc.get("schema") == EXPECTED_SCHEMA, f"schema != {EXPECTED_SCHEMA}")

    ds = doc.get("dataset")
    require(isinstance(ds, dict), "missing dataset object")
    for key in ("receptor_atoms", "ligand_atoms", "pairs_per_eval"):
        require(isinstance(ds.get(key), int) and ds[key] > 0, f"dataset.{key} must be a positive int")
    require(
        ds["pairs_per_eval"] == ds["receptor_atoms"] * ds["ligand_atoms"],
        "dataset.pairs_per_eval != receptor_atoms * ligand_atoms",
    )

    simd = doc.get("simd")
    require(isinstance(simd, dict), "missing simd object")
    for key in ("kernel_compiled", "kernel_supported"):
        require(isinstance(simd.get(key), bool), f"simd.{key} must be a bool")
    require(simd.get("default_level") in SIMD_LEVELS,
            "simd.default_level must be " + "|".join(SIMD_LEVELS))
    require(
        not (simd["kernel_supported"] and not simd["kernel_compiled"]),
        "simd.kernel_supported implies kernel_compiled",
    )

    results = doc.get("results")
    require(isinstance(results, list) and results, "results must be a non-empty array")
    by_impl = {}
    for r in results:
        require(isinstance(r, dict), "each result must be an object")
        impl = r.get("impl")
        require(impl in KNOWN_IMPLS, f"unknown impl {impl!r}")
        require(impl not in by_impl, f"duplicate impl {impl!r}")
        require_positive_number(r.get("pairs_per_second"), f"{impl}: pairs_per_second must be positive")
        by_impl[impl] = r

    for impl in ("reference", "batched-scalar"):
        require(impl in by_impl, f"missing required impl {impl!r}")
    if simd["kernel_supported"]:
        require("batched-simd" in by_impl, "simd supported but no batched-simd result")

    reference_pps = by_impl["reference"]["pairs_per_second"]
    for impl, r in by_impl.items():
        speedup = r.get("speedup_vs_reference")
        require(isinstance(speedup, (int, float)) and math.isfinite(speedup), f"{impl}: bad speedup_vs_reference")
        expected = r["pairs_per_second"] / reference_pps
        require(abs(speedup - expected) < 1e-6 * max(1.0, expected), f"{impl}: speedup_vs_reference inconsistent with pairs_per_second")
    if "batched-simd" in by_impl:
        simd_speedup = by_impl["batched-simd"]["speedup_vs_reference"]
        require(simd_speedup >= MIN_SIMD_SPEEDUP,
                f"batched-simd speedup {simd_speedup:.3f}x below the {MIN_SIMD_SPEEDUP}x gate")

    gen_modes = check_generation(doc)
    overlap_modes = check_overlap(doc)

    parts = ", ".join(
        "{}={:.3e}".format(i, by_impl[i]["pairs_per_second"]) for i in sorted(by_impl)
    )
    gen_parts = ", ".join(
        "{}={:.3e} evals/s".format(m, gen_modes[m]["evals_per_second"]) for m in GENERATION_MODES
    )
    overlap_parts = ", ".join(
        "{}={:.2f}x".format(m, overlap_modes[m]["speedup_vs_serial"]) for m in OVERLAP_MODES
    )
    print(f"check_bench_scoring: OK ({parts}; generation: {gen_parts}; "
          f"overlap: {overlap_parts})")


if __name__ == "__main__":
    main()
