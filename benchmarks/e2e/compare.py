"""Compare two sets of suite results: parent vs change, or the tree with itself.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py --aa [--runs 10] [--workload NAME]... [--out DIR]

A result set is a directory holding one sub-directory per suite run, each with
the ``results.json`` that ``run.py --out`` writes; runs pair up in name order.
One row is printed per workload x end-to-end metric with each side's median
and quartiles and a verdict by the rule of the choosing-metrics guide (§6, §8):

* ``unresolved`` — the parent's own spread (Q3 - Q1 over its median) is wider
  than the metric's bound in ``BENCHMARK.json``, so nothing can be said;
* ``regressed`` — the change's median is worse than the parent's by more than
  the bound;
* ``improved`` — the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's Q3 - Q1;
* ``unchanged`` — otherwise.

Every ratio is printed with its base (the parent's median).  ``--aa`` measures
the current tree against itself — two sets of runs, one seed per run,
alternating which set goes first — and exits non-zero if any metric's two
medians disagree by more than its bound or a spread exceeds it (``setup_s``
is exempt from the spread test, as in the acceptance check this mirrors).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as suite

SPEC = suite.SPEC
METRICS = {metric["name"]: metric for metric in SPEC["end_to_end"]}


def load(directory) -> dict:
    """(workload, metric) → values, one per run, in run-name order."""
    values = {}
    for path in sorted(Path(directory).glob("*/results.json")):
        results = json.loads(path.read_text())
        for workload, entry in results["workloads"].items():
            for metric, reported in entry.get("end_to_end", {}).items():
                values.setdefault((workload, metric), []).append(reported["value"])
    if not values:
        raise SystemExit(f"no */results.json under {directory}")
    return values


def quartiles(values):
    """(Q1, median, Q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_one(metric, parent, change) -> dict:
    bound, better = METRICS[metric]["bound"], METRICS[metric]["better"]
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (c2 - p2) / p2
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    spread = (p3 - p1) / p2
    if spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif wins >= 0.9 * len(pairs) and worse_by < 0 and abs(c2 - p2) > p3 - p1:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "parent": (p1, p2, p3, len(parent)),
        "change": (c1, c2, c3, len(change)),
        "spread": spread,
        "change_spread": (c3 - c1) / c2,
        "worse_by": worse_by,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": verdict,
    }


def report(parent_values, change_values) -> list:
    rows = []
    print(
        "workload metric unit | parent median [Q1, Q3] n | change median [Q1, Q3] n"
        " | change vs parent median | wins/pairs | parent spread vs bound | verdict"
    )
    for (workload, metric), parent in sorted(parent_values.items()):
        change = change_values.get((workload, metric))
        if change is None or metric not in METRICS:
            continue
        row = compare_one(metric, parent, change)
        rows.append((workload, metric, row))
        p1, p2, p3, pn = row["parent"]
        c1, c2, c3, cn = row["change"]
        direction = "worse" if row["worse_by"] > 0 else "better"
        print(
            f"{workload} {metric} {METRICS[metric]['unit']} | "
            f"{p2:.5g} [{p1:.5g}, {p3:.5g}] {pn} | "
            f"{c2:.5g} [{c1:.5g}, {c3:.5g}] {cn} | "
            f"{abs(row['worse_by']):.1%} {direction} (base {p2:.5g}) | "
            f"{row['wins']}/{row['pairs']} | "
            f"{row['spread']:.1%} vs {METRICS[metric]['bound']:.0%} | "
            f"{row['verdict']}"
        )
    return rows


def run_aa(args) -> int:
    out = Path(args.out or suite.HERE / "out" / "aa")
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    failed_runs = 0
    for index in range(args.runs):
        seed = args.seed + index
        sides = ("a", "b") if index % 2 == 0 else ("b", "a")
        for side in sides:
            results = suite.run_suite(
                names,
                seed,
                float(SPEC["run_seconds"]),
                False,
                "full",
                out / side / f"run-{index:02d}",
            )
            failed_runs += len(results["failures"])
            print(f"run {index} side {side} seed {seed} done", file=sys.stderr)
    rows = report(load(out / "a"), load(out / "b"))
    problems = []
    for workload, metric, row in rows:
        bound = METRICS[metric]["bound"]
        if abs(row["worse_by"]) > bound:
            problems.append(
                f"{workload} {metric}: medians differ by {abs(row['worse_by']):.1%} "
                f"(base {row['parent'][1]:.5g}), bound {bound:.0%}"
            )
        for side in ("spread", "change_spread"):
            if metric != "setup_s" and row[side] > bound:
                problems.append(
                    f"{workload} {metric}: spread {row[side]:.1%} "
                    f"over bound {bound:.0%}"
                )
    if failed_runs:
        problems.append(f"{failed_runs} workload runs failed")
    for problem in problems:
        print("A/A FAIL:", problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directories", nargs="*", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--workload", action="append", help="--aa: only these")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.aa:
        return run_aa(args)
    if len(args.directories) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --aa")
    rows = report(load(args.directories[0]), load(args.directories[1]))
    return 1 if any(row["verdict"] == "regressed" for _w, _m, row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
