#!/usr/bin/env python3
"""Compare a fresh bench_rewriting --json run against the checked-in baseline.

Usage: check_bench.py [--max-ratio=R] [--abs-floor-ms=M]
                      [--max-cte-sql-ratio=NAME:R ...]
                      [--dag-blowup=NAME:MS ...]
                      CURRENT.json [BASELINE.json]

BASELINE defaults to BENCH_rewrite.json at the repository root. A workload
fails if its wall time regressed more than --max-ratio x the baseline AND
the absolute regression exceeds --abs-floor-ms — sub-millisecond workloads
jitter far beyond 2x on shared CI runners, so tiny absolute deltas never
fail the build. Workloads present only on one side are reported but do not
fail (renames land together with a baseline refresh in the same commit).
Phase timings (saturate_ms / factor_ms / emit_ms) are gated with the same
ratio-plus-absolute-floor rule, but only for phases present on BOTH sides
of a row — the checker gates the phases it knows and ignores the rest, so
older baselines without the split keep working.

The ratio flags exist for comparisons with a known, accepted overhead: the
CI trace-overhead step re-runs the harness with per-rewrite tracing enabled
and checks it against the same untraced baseline under a looser ratio.

--max-cte-sql-ratio=NAME:R (repeatable) checks, within CURRENT.json, that
workload NAME's factored WITH-CTE SQL stays under R x the size of its flat
UNION SQL (the threads=1 row's cte_sql_bytes / ucq_sql_bytes) — the gate
that keeps the Datalog factoring actually compressing the workloads it is
supposed to compress. It is per-workload because not every shape factors:
chain_256 shares nothing across its disjuncts and degenerates to the plain
union, which is correct behaviour, not a regression.

--dag-blowup=NAME:MS (repeatable) checks, within CURRENT.json, that the
DAG rewriting of blow-up workload NAME finished under MS milliseconds
while the flat rewriting of the same query was genuinely infeasible: its
recorded flat_outcome must be "max_cqs" or "deadline", or — if the flat
probe somehow finished — its flat_ms must be at least 10 x MS. This is
the acceptance gate for the factored saturation: the cross-product shape
must stay exponential for the flat path and milliseconds for the DAG.

Exit status: 0 when no workload regressed, 1 otherwise.
"""

import json
import os
import sys

MAX_RATIO = 2.0
ABS_FLOOR_MS = 20.0


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "ontorew-bench-rewrite/1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def index(doc):
    return {(r["name"], r["threads"]): r for r in doc["results"]}


def check_dag_blowup(doc, gates):
    """Within one results file: each gated blow-up workload's DAG rewrite
    must beat its ceiling while the flat probe proved infeasible. Returns
    failed gate names."""
    rows = index(doc)
    failed = []
    for name, max_ms in gates:
        row = rows.get((name, 1))
        if row is None:
            print(f"FAIL  {name}: no threads=1 row to judge the DAG blowup")
            failed.append(f"{name} (dag-blowup: missing row)")
            continue
        wall_ms = row["wall_ms"]
        flat_outcome = row.get("flat_outcome", "missing")
        flat_ms = row.get("flat_ms", 0.0)
        dag_ok = wall_ms < max_ms
        flat_infeasible = flat_outcome in ("max_cqs", "deadline") or (
            flat_outcome == "ok" and flat_ms >= 10 * max_ms
        )
        ok = dag_ok and flat_infeasible
        status = "ok" if ok else "FAIL"
        print(
            f"{status:5s} {name}: dag {wall_ms:.3f} ms (require < {max_ms}), "
            f"flat {flat_outcome} after {flat_ms:.0f} ms "
            f"({row.get('disjuncts', 0)} implied disjuncts)"
        )
        if not dag_ok:
            failed.append(f"{name} (dag-blowup {wall_ms:.3f} ms >= {max_ms})")
        elif not flat_infeasible:
            failed.append(f"{name} (dag-blowup: flat path no longer blows up)")
    return failed


def check_cte_sql_ratio(doc, gates):
    """Within one results file: each gated workload's factored CTE SQL must
    be at most ratio x its flat UNION SQL. Returns failed gate names."""
    rows = index(doc)
    failed = []
    for name, max_ratio in gates:
        row = rows.get((name, 1))
        if row is None:
            print(f"FAIL  {name}: no threads=1 row to judge the CTE ratio")
            failed.append(f"{name} (cte-sql-ratio: missing row)")
            continue
        ucq_bytes = row.get("ucq_sql_bytes")
        cte_bytes = row.get("cte_sql_bytes")
        if not ucq_bytes or cte_bytes is None:
            print(f"FAIL  {name}: row lacks ucq_sql_bytes/cte_sql_bytes")
            failed.append(f"{name} (cte-sql-ratio: missing fields)")
            continue
        ratio = cte_bytes / ucq_bytes
        ok = ratio <= max_ratio
        status = "ok" if ok else "FAIL"
        print(
            f"{status:5s} {name}: cte {cte_bytes} B / union {ucq_bytes} B "
            f"= {ratio:.3f} (require <= {max_ratio}, "
            f"{row.get('cte_count', 0)} CTEs)"
        )
        if not ok:
            failed.append(f"{name} (cte-sql-ratio {ratio:.3f} > {max_ratio})")
    return failed


def main(argv):
    max_ratio = MAX_RATIO
    abs_floor_ms = ABS_FLOOR_MS
    cte_sql_gates = []
    dag_blowup_gates = []
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--max-ratio="):
            max_ratio = float(arg.split("=", 1)[1])
        elif arg.startswith("--abs-floor-ms="):
            abs_floor_ms = float(arg.split("=", 1)[1])
        elif arg.startswith("--max-cte-sql-ratio="):
            spec = arg.split("=", 1)[1]
            if ":" not in spec:
                sys.exit(
                    f"--max-cte-sql-ratio wants NAME:RATIO, got {spec!r}"
                )
            name, ratio = spec.rsplit(":", 1)
            cte_sql_gates.append((name, float(ratio)))
        elif arg.startswith("--dag-blowup="):
            spec = arg.split("=", 1)[1]
            if ":" not in spec:
                sys.exit(f"--dag-blowup wants NAME:MS, got {spec!r}")
            name, ms = spec.rsplit(":", 1)
            dag_blowup_gates.append((name, float(ms)))
        elif arg.startswith("--"):
            sys.exit(f"unknown flag {arg!r}\n\n{__doc__}")
        else:
            paths.append(arg)
    if len(paths) not in (1, 2):
        sys.exit(__doc__)
    current_path = paths[0]
    baseline_path = (
        paths[1]
        if len(paths) == 2
        else os.path.join(os.path.dirname(__file__), "..", "BENCH_rewrite.json")
    )
    current_doc = load(current_path)
    current = index(current_doc)
    baseline = index(load(baseline_path))

    failed = []
    for key in sorted(baseline.keys() | current.keys()):
        name = f"{key[0]} (threads={key[1]})"
        if key not in current:
            print(f"NOTE  {name}: in baseline only (removed workload?)")
            continue
        if key not in baseline:
            print(f"NOTE  {name}: new workload, no baseline")
            continue
        base_ms = baseline[key]["wall_ms"]
        cur_ms = current[key]["wall_ms"]
        ratio = cur_ms / base_ms if base_ms > 0 else float("inf")
        regressed = (
            cur_ms > base_ms * max_ratio and cur_ms - base_ms > abs_floor_ms
        )
        status = "FAIL" if regressed else "ok"
        print(
            f"{status:5s} {name}: {cur_ms:.3f} ms vs baseline "
            f"{base_ms:.3f} ms ({ratio:.2f}x)"
        )
        if regressed:
            failed.append(name)
        # Gate the phases the two sides both report (older baselines
        # predate the split and are simply not judged on it).
        for phase in ("saturate_ms", "factor_ms", "emit_ms"):
            base_phase = baseline[key].get(phase)
            cur_phase = current[key].get(phase)
            if base_phase is None or cur_phase is None:
                continue
            phase_regressed = (
                cur_phase > base_phase * max_ratio
                and cur_phase - base_phase > abs_floor_ms
            )
            if phase_regressed:
                print(
                    f"FAIL  {name} {phase}: {cur_phase:.3f} ms vs baseline "
                    f"{base_phase:.3f} ms"
                )
                failed.append(f"{name} ({phase})")

    if cte_sql_gates:
        print("\ncte-sql-size gate:")
        failed += check_cte_sql_ratio(current_doc, cte_sql_gates)

    if dag_blowup_gates:
        print("\ndag-blowup gate:")
        failed += check_dag_blowup(current_doc, dag_blowup_gates)

    if failed:
        print(f"\n{len(failed)} workload(s) out of budget: "
              f"{', '.join(failed)}")
        return 1
    print("\nall workloads within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
