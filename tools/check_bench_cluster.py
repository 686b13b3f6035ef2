#!/usr/bin/env python3
"""Schema validator and scaling gate for BENCH_cluster.json (metadock.bench_cluster/1).

Usage: check_bench_cluster.py FILE [COMMITTED]

The multi-node bench (bench_ablation_multinode) prices everything on the
shared virtual clock, so — unlike the wall-clock scoring bench — every
number here is deterministic on every host and hard gates are legitimate:

  * work stealing must keep >= 70% scaling efficiency at 32 nodes on the
    fault-free arm;
  * work stealing must beat the dynamic master/worker baseline on makespan
    at 32 nodes in the straggler/node-death arm (the whole point of
    continuous rebalancing: absorb an 8x straggler and two node deaths
    without giving back the proportional split's low dispatch overhead).

Structural checks keep the emitter honest: 24 rows ({8,32,128} nodes x 4
policies x 2 fault arms), speedup/efficiency consistent with the raw
makespans, every ligand docked exactly once, and fault accounting (two
node deaths in the node-death arm, none fault-free).

With COMMITTED (the committed BENCH_cluster.json), FILE must also have
the same `config` and `results`: the emitter is deterministic, so a fresh
emit that differs means the code no longer produces the committed file.
"""

import json
import math
import sys

EXPECTED_SCHEMA = "metadock.bench_cluster/1"
NODE_COUNTS = (8, 32, 128)
POLICIES = ("static", "static-prop", "dynamic", "stealing")
FAULT_ARMS = ("fault-free", "node-death")
#: Hard virtual-time gate: stealing's fault-free scaling efficiency at 32 nodes.
MIN_STEALING_EFFICIENCY_32 = 0.70
#: Deaths the node-death arm schedules (nodes 2 and 5).
DEATHS_PER_ARM = 2


def fail(msg: str) -> None:
    print(f"check_bench_cluster: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def require_positive_number(value, msg: str) -> None:
    require(isinstance(value, (int, float)) and math.isfinite(value) and value > 0, msg)


def require_count(row: dict, key: str, what: str) -> int:
    v = row.get(key)
    require(isinstance(v, int) and v >= 0, f"{what}: {key} must be a non-negative int")
    return v


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def require_same_emit(doc: dict, committed_path: str) -> None:
    """FILE's config and results must equal the committed file's."""
    committed = load(committed_path)
    require(doc.get("config") == committed.get("config"),
            f"config differs from {committed_path}")
    fresh_rows = doc.get("results") or []
    committed_rows = committed.get("results") or []
    require(len(fresh_rows) == len(committed_rows),
            f"{len(fresh_rows)} results, {committed_path} has {len(committed_rows)}")
    for fresh, old in zip(fresh_rows, committed_rows):
        require(fresh == old, f"result differs from {committed_path}: "
                              f"emitted {json.dumps(fresh)}, committed {json.dumps(old)}")


def main() -> None:
    if len(sys.argv) not in (2, 3):
        fail("usage: check_bench_cluster.py FILE [COMMITTED]")
    doc = load(sys.argv[1])

    require(doc.get("schema") == EXPECTED_SCHEMA, f"schema != {EXPECTED_SCHEMA}")

    config = doc.get("config")
    require(isinstance(config, dict), "missing config object")
    for key in ("library_ligands", "min_atoms", "max_atoms", "units_per_ligand"):
        require(isinstance(config.get(key), int) and config[key] > 0,
                f"config.{key} must be a positive int")
    require(config["min_atoms"] <= config["max_atoms"], "config.min_atoms > config.max_atoms")
    require(isinstance(config.get("mh"), str) and config["mh"], "config.mh must be a string")
    require_positive_number(config.get("straggle_factor"), "config.straggle_factor must be positive")
    require_positive_number(config.get("hertz_base_seconds"), "config.hertz_base_seconds must be positive")
    require_positive_number(config.get("hertz_work_seconds"), "config.hertz_work_seconds must be positive")
    net = config.get("network")
    require(isinstance(net, dict), "missing config.network object")
    for key in ("latency_s", "bandwidth_gbs", "master_service_s", "death_detect_s"):
        require_positive_number(net.get(key), f"config.network.{key} must be positive")

    results = doc.get("results")
    require(isinstance(results, list) and results, "results must be a non-empty array")
    rows = {}
    for r in results:
        require(isinstance(r, dict), "each result must be an object")
        n = r.get("nodes")
        require(n in NODE_COUNTS, f"unknown node count {n!r}")
        policy = r.get("policy")
        require(policy in POLICIES, f"unknown policy {policy!r}")
        arm = r.get("faults")
        require(arm in FAULT_ARMS, f"unknown fault arm {arm!r}")
        key = (n, policy, arm)
        require(key not in rows, f"duplicate row {key!r}")
        rows[key] = r

    expected_rows = len(NODE_COUNTS) * len(POLICIES) * len(FAULT_ARMS)
    require(len(rows) == expected_rows, f"{len(rows)} rows, expected {expected_rows}")

    hertz_work = config["hertz_work_seconds"]
    for (n, policy, arm), r in sorted(rows.items()):
        what = f"{n}/{policy}/{arm}"
        require_positive_number(r.get("makespan_seconds"), f"{what}: makespan_seconds must be positive")
        require_positive_number(r.get("comm_seconds"), f"{what}: comm_seconds must be positive")
        require_positive_number(r.get("ideal_speedup"), f"{what}: ideal_speedup must be positive")

        speedup = r.get("speedup_vs_hertz")
        require(isinstance(speedup, (int, float)) and math.isfinite(speedup),
                f"{what}: bad speedup_vs_hertz")
        expected = hertz_work / r["makespan_seconds"]
        require(abs(speedup - expected) < 1e-6 * max(1.0, expected),
                f"{what}: speedup_vs_hertz inconsistent with makespan_seconds")

        eff = r.get("scaling_efficiency")
        require(isinstance(eff, (int, float)) and math.isfinite(eff) and 0 < eff <= 1.0 + 1e-9,
                f"{what}: scaling_efficiency must be in (0, 1]")
        require(abs(eff - speedup / r["ideal_speedup"]) < 1e-6,
                f"{what}: scaling_efficiency inconsistent with speedup/ideal_speedup")

        balance = r.get("balance_efficiency")
        require(isinstance(balance, (int, float)) and 0 < balance <= 1.0 + 1e-9,
                f"{what}: balance_efficiency must be in (0, 1]")

        require(require_count(r, "ligands_docked", what) == config["library_ligands"],
                f"{what}: ligands_docked != config.library_ligands")
        require(require_count(r, "messages", what) > 0, f"{what}: no messages priced")

        steals = require_count(r, "steals", what)
        stolen = require_count(r, "stolen_ligands", what)
        handoffs = require_count(r, "handoffs", what)
        require_count(r, "failed_steals", what)
        if policy != "stealing":
            require(steals == 0 and stolen == 0 and handoffs == 0,
                    f"{what}: non-stealing policy reports steal activity")
        else:
            require(stolen >= steals - handoffs or stolen + handoffs >= steals,
                    f"{what}: granted steals moved no work")

        lost = require_count(r, "nodes_lost", what)
        reassigned = require_count(r, "reassigned_ligands", what)
        redocked = require_count(r, "redocked_ligands", what)
        if arm == "fault-free":
            require(lost == 0 and reassigned == 0 and redocked == 0,
                    f"{what}: fault-free arm reports fault activity")
        else:
            require(lost == DEATHS_PER_ARM, f"{what}: nodes_lost != {DEATHS_PER_ARM}")
            require(reassigned + redocked >= 1, f"{what}: node deaths moved no work")

    # Deterministic virtual-time gates (see module docstring).
    steal32 = rows[(32, "stealing", "fault-free")]
    require(steal32["scaling_efficiency"] >= MIN_STEALING_EFFICIENCY_32,
            f"stealing fault-free efficiency at 32 nodes "
            f"{steal32['scaling_efficiency']:.3f} below the {MIN_STEALING_EFFICIENCY_32} gate")
    steal_death = rows[(32, "stealing", "node-death")]
    dyn_death = rows[(32, "dynamic", "node-death")]
    require(steal_death["makespan_seconds"] < dyn_death["makespan_seconds"],
            f"stealing must beat dynamic at 32 nodes under node death "
            f"({steal_death['makespan_seconds']:.2f}s vs {dyn_death['makespan_seconds']:.2f}s)")

    if len(sys.argv) == 3:
        require_same_emit(doc, sys.argv[2])

    parts = ", ".join(
        "{}n {}={:.2f}".format(n, arm, rows[(n, "stealing", arm)]["scaling_efficiency"])
        for n in NODE_COUNTS for arm in FAULT_ARMS
    )
    same = f"; equals {sys.argv[2]}" if len(sys.argv) == 3 else ""
    print(f"check_bench_cluster: OK (stealing efficiency: {parts}; "
          f"32n death makespan {steal_death['makespan_seconds']:.2f}s < "
          f"dynamic {dyn_death['makespan_seconds']:.2f}s{same})")


if __name__ == "__main__":
    main()
