#!/usr/bin/env python3
"""Bench-regression guard: compare a fresh snapshot against the committed
BENCH_muerp.json on the deterministic fixed-seed sections.

Wall-clock fields (wall_*, setup, speedup, recovery timings, per-method
timing histograms) and the replication-count-dependent methods section are
excluded; everything compared here is a function of the fixed seeds alone,
so any drift is a behaviour change, not noise.

Usage: bench_guard.py COMMITTED.json FRESH.json
Exit 0 when every compared field matches, 1 with a diff listing otherwise.
"""

import json
import sys

REL_TOL = 1e-9

# section name -> (key field, compared fields)
SECTIONS = {
    "traffic": (
        "policy",
        [
            "served",
            "rejected",
            "expired",
            "acceptance_ratio",
            "mean_rate",
            "peak_qubits_in_use",
            "retries",
        ],
    ),
    "faults": (
        "mtbf",
        [
            "served",
            "acceptance_ratio",
            "faults_injected",
            "leases_interrupted",
            "leases_recovered",
            "leases_aborted",
        ],
    ),
    "overload": (
        "offered_load",
        [
            "arrived",
            "served",
            "shed",
            "degraded",
            "budget_exhaustions",
            "breaker_opens",
            "acceptance_ratio",
            "peak_queue_depth",
        ],
    ),
    "hier": (
        "switches",
        [
            "regions",
            "pairs",
            "flat_feasible",
            "hier_feasible",
            "mean_rate_ratio",
            "min_rate_ratio",
        ],
    ),
    "flow": (
        "topology",
        [
            "structure_neg_log",
            "bound_neg_log",
            "bound_rate",
            "pivots",
            "gap_alg2",
            "gap_alg3",
            "gap_alg4",
            "gap_eqcast",
            "gap_flow",
            "rounding_neg_log",
            "rounding_verified",
        ],
    ),
}

# Sections whose row set may differ between snapshots.
ROW_SET_EXEMPT = {"hier"}

GAP_FIELDS = ["gap_alg2", "gap_alg3", "gap_alg4", "gap_eqcast", "gap_flow"]

# Resilience fields that are pure functions of the fixed seeds (wall
# times, the derived overhead percentage, and snapshot_bytes — which
# embeds wall-clock telemetry histograms — are excluded).
RESILIENCE_FIELDS = [
    "requests",
    "checkpoints",
    "checkpointed_report_equal",
    "drill_checkpoints",
    "drill_mismatches",
    "restored_reports_equal",
    "reconfig_events",
    "reconfig_applied",
    "reconfig_recovered",
    "reconfig_served",
    "reconfig_acceptance_ratio",
]

EXPECTED_SCHEMA = "muerp-bench-snapshot/12"


def check_flow_invariants(fresh):
    """Soundness checks on the fresh flow section, independent of the
    committed baseline: every optimality gap must be non-negative (a
    negative gap means a heuristic beat the 'upper bound' — an LP
    soundness bug) and every rounded tree must have verified."""
    problems = []
    for row in fresh.get("flow", []):
        topo = row.get("topology")
        for field in GAP_FIELDS:
            gap = row.get(field)
            if gap is None:
                continue
            if float(gap) < 0.0:
                problems.append(
                    f"flow[{topo}].{field} = {gap}: negative optimality gap "
                    "(LP bound violated)"
                )
        if row.get("rounding_verified") is not True:
            problems.append(
                f"flow[{topo}].rounding_verified = "
                f"{row.get('rounding_verified')!r}: rounded tree failed "
                "independent verification"
            )
    return problems


def check_resilience_invariants(fresh):
    """Soundness checks on the fresh resilience section, independent of
    the committed baseline: checkpointing must not perturb the run,
    every drill restore must reproduce the uninterrupted report, and
    every reconfiguration event must be applied."""
    problems = []
    res = fresh.get("resilience")
    if not isinstance(res, dict):
        return ["resilience: section missing from snapshot"]
    if res.get("checkpoints", 0) <= 0:
        problems.append(
            f"resilience.checkpoints = {res.get('checkpoints')!r}: "
            "the checkpointed run cut no checkpoints"
        )
    if res.get("checkpointed_report_equal") is not True:
        problems.append(
            "resilience.checkpointed_report_equal = "
            f"{res.get('checkpointed_report_equal')!r}: checkpointing "
            "perturbed the run"
        )
    if res.get("restored_reports_equal") is not True:
        problems.append(
            "resilience.restored_reports_equal = "
            f"{res.get('restored_reports_equal')!r}: a restored run "
            "diverged from the uninterrupted baseline"
        )
    if res.get("drill_mismatches", 1) != 0:
        problems.append(
            f"resilience.drill_mismatches = {res.get('drill_mismatches')!r}: "
            "expected 0"
        )
    if res.get("reconfig_applied") != res.get("reconfig_events"):
        problems.append(
            f"resilience.reconfig_applied = {res.get('reconfig_applied')!r} "
            f"!= reconfig_events = {res.get('reconfig_events')!r}"
        )
    if res.get("snapshot_bytes", 0) <= 0:
        problems.append(
            f"resilience.snapshot_bytes = {res.get('snapshot_bytes')!r}: "
            "expected a non-empty serialized snapshot"
        )
    problems.extend(check_cadence_invariants(res))
    return problems


def check_cadence_invariants(res):
    """Soundness checks on the checkpoint-cadence rows (durable binary
    cuts plus the write-ahead journal, at 10s and 30s).  Bytes written
    is the deterministic-scale overhead measure (wall times vary with
    the host); the binary cut must stay at least 2.5x smaller than the
    sexp text view of the same snapshots, and recovery + journal replay
    must land on the byte-identical report with no warnings."""
    problems = []
    rows = res.get("cadence")
    if not isinstance(rows, list) or not rows:
        return ["resilience.cadence: cadence rows missing from snapshot"]
    for row in rows:
        cadence = row.get("cadence_s")
        tag = f"resilience.cadence[cadence_s={cadence}]"
        if row.get("cuts", 0) <= 0 or row.get("bytes", 0) <= 0:
            problems.append(
                f"{tag}: cuts = {row.get('cuts')!r}, bytes = "
                f"{row.get('bytes')!r}: expected positive counts"
            )
            continue
        ratio = row.get("sexp_ratio")
        if ratio is None or float(ratio) < 2.5:
            problems.append(
                f"{tag}.sexp_ratio = {ratio!r}: expected >= 2.5 (binary "
                "cuts against the sexp text of the same snapshots)"
            )
        if row.get("restored_report_equal") is not True:
            problems.append(
                f"{tag}.restored_report_equal = "
                f"{row.get('restored_report_equal')!r}: recovery "
                "diverged from the uninterrupted report"
            )
        if row.get("journal_replay_equal") is not True:
            problems.append(
                f"{tag}.journal_replay_equal = "
                f"{row.get('journal_replay_equal')!r}: journal replay was "
                "not re-emitted identically"
            )
        if row.get("recovery_warnings", 0) != 0:
            problems.append(
                f"{tag}.recovery_warnings = {row.get('recovery_warnings')!r}: "
                "clean files must recover without warnings"
            )
    return problems


def compare_resilience(committed, fresh):
    """Cross-snapshot comparison of the deterministic resilience
    fields."""
    old = committed.get("resilience")
    new = fresh.get("resilience")
    if not isinstance(old, dict) or not isinstance(new, dict):
        return []
    diffs = []
    for field in RESILIENCE_FIELDS:
        if field not in old or field not in new:
            continue
        if not values_match(old[field], new[field]):
            diffs.append(
                f"resilience.{field}: "
                f"committed {old[field]!r} != fresh {new[field]!r}"
            )
    return diffs


def values_match(a, b):
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
    return a == b


def index_rows(rows, key):
    return {json.dumps(row.get(key)): row for row in rows}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        committed = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)

    diffs = []
    schema = fresh.get("schema")
    if schema != EXPECTED_SCHEMA:
        diffs.append(f"schema: expected {EXPECTED_SCHEMA!r}, got {schema!r}")
    diffs.extend(check_flow_invariants(fresh))
    diffs.extend(check_resilience_invariants(fresh))
    diffs.extend(compare_resilience(committed, fresh))
    for section, (key, fields) in SECTIONS.items():
        old_rows = index_rows(committed.get(section, []), key)
        new_rows = index_rows(fresh.get(section, []), key)
        # Every section but hier must list the same rows in both
        # snapshots, so a row cannot vanish from the guard unnoticed.
        # The hier size ladder grows with MUERP_REPLICATIONS.
        if section not in ROW_SET_EXEMPT:
            for row_key in sorted(old_rows.keys() - new_rows.keys()):
                diffs.append(f"{section}[{key}={row_key}]: missing from fresh")
            for row_key in sorted(new_rows.keys() - old_rows.keys()):
                diffs.append(f"{section}[{key}={row_key}]: not in committed")
        for row_key in sorted(old_rows.keys() & new_rows.keys()):
            old, new = old_rows[row_key], new_rows[row_key]
            for field in fields:
                if field not in old or field not in new:
                    continue
                if not values_match(old[field], new[field]):
                    diffs.append(
                        f"{section}[{key}={row_key}].{field}: "
                        f"committed {old[field]!r} != fresh {new[field]!r}"
                    )

    if diffs:
        print("bench snapshot check failed:")
        for d in diffs:
            print(f"  {d}")
        sys.exit(1)
    print("bench snapshot matches committed deterministic sections")


if __name__ == "__main__":
    main()
