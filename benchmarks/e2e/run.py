"""The repo's one benchmark: seven workloads through the public API.

Driver form (one workload, one JSON object on the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Suite form (every workload, or the ones named, each in a fresh subprocess;
prints ``workload metric value unit n_samples`` and writes ``DIR/results.json``)::

    python3 benchmarks/e2e/run.py [--workload A --workload B] [--trace] [--out DIR]
    python3 benchmarks/e2e/run.py --selfcheck

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` measures the same region twice — untraced, then under the
timing shims of ``layers.SHIMS`` — and reports the per-layer metrics; the
gap between the two regions is ``obs.trace_overhead_share``.  End-to-end
numbers are never taken from a traced region.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 20140331
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def _workloads():
    """name → workload; imports the product, so only workers call it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from wl_curate import CurateDupHeavy, CuratePool2
    from wl_ingest import IngestTextHeavy
    from wl_serve import ServeChurnWrite, ServeHotRead
    from wl_sql import SqlMixed
    from wl_stream import StreamMixedDelta

    workloads = [
        CurateDupHeavy(),
        CuratePool2(),
        IngestTextHeavy(),
        StreamMixedDelta(),
        ServeHotRead(),
        ServeChurnWrite(),
        SqlMixed(),
    ]
    return {workload.name: workload for workload in workloads}


def _units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


# -- one workload, in this process --------------------------------------------


def measure(name, seed, seconds, trace, size_name, out_dir=None, corrupt=False):
    """Run one workload here; returns the detailed result dict."""
    workload = _workloads()[name]
    from statistics import median

    from harness import Tracer, cpu_ticks, peak_rss_mb, tail_percentile
    from layers import SHIMS, per_layer_metrics, span_summary

    begin = time.perf_counter()
    inputs = workload.make_inputs(seed, workload.sizes[size_name])
    generate_s = time.perf_counter() - begin

    setups = []
    oracles = []

    def timed_setup():
        begin = time.perf_counter()
        state = workload.setup(inputs)
        setups.append(time.perf_counter() - begin)
        return state

    def one_region(tracer, shims=()):
        tracer.install(shims)
        try:
            state = timed_setup()
            try:
                # the shims record in the timed region only
                tracer.enabled = bool(shims)
                measurement = workload.run(state, inputs, seconds, tracer)
                tracer.enabled = False
                rss = peak_rss_mb()
                if corrupt:
                    workload.corrupt(measurement)
                oracles.extend(workload.check(state, inputs, measurement))
            finally:
                workload.teardown(state)
        finally:
            tracer.restore()
        if workload.rss_includes_children:
            rss = peak_rss_mb(include_children=True)
        return measurement, rss

    # spare set-ups first, so the measured region runs on the last one
    for _ in range(0 if trace else SETUPS - 1):
        workload.teardown(timed_setup())
    ticks = cpu_ticks()
    untraced, rss = one_region(Tracer())
    stolen = None
    if ticks is not None:
        after = cpu_ticks()
        stolen = (after[0] - ticks[0]) / max(1, after[1] - ticks[1])

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size_name,
        "input_digest": inputs["digest"],
        # share of the machine's CPU ticks stolen by the host during the
        # untraced region (set-up, timed region, oracle)
        "steal_share": stolen,
        "end_to_end": {},
        "oracles": [],
        "separation": [],
    }
    units = _units("end_to_end")
    timing = untraced.end_to_end()
    n_samples = len(untraced.latencies_ms)
    timing["peak_rss_mb"] = (rss, 1)
    timing["setup_s"] = (generate_s + median(setups), len(setups))
    for metric, (value, n) in timing.items():
        result["end_to_end"][metric] = {
            "value": value,
            "unit": units[metric],
            "n_samples": n,
        }
    result["end_to_end"]["latency_tail_ms"]["percentile"] = tail_percentile(n_samples)
    attempted, failed = untraced.attempted, untraced.failed

    if trace:
        tracer = Tracer()
        traced, _rss = one_region(tracer, SHIMS)
        attempted += traced.attempted
        failed += traced.failed
        layer = per_layer_metrics(_units("per_layer"), tracer, traced)
        layer["obs.trace_overhead_share"] = untraced.throughput / traced.throughput - 1
        result["per_layer"] = layer
        result["separation"] = workload.separation(layer, seconds)
        if layer["harness.unattributed_share"] > 0.10:
            result["separation"].append(
                f"{layer['harness.unattributed_share']:.2f} of the timed wall is "
                "covered by no span"
            )
        result["span_summary"] = span_summary(tracer, traced)
        if out_dir is not None:
            tracer.write_jsonl(Path(out_dir) / f"{name}.spans.jsonl")

    for oracle in oracles:
        attempted += oracle.checked
        failed += oracle.failed
        result["oracles"].append(oracle._asdict())
    result.update(attempted=attempted, failed=failed, correct=failed == 0)
    return result


def _print_metrics(result, section, stream=sys.stdout):
    units = _units(section)
    for metric, entry in result[section].items():
        if isinstance(entry, dict):
            value, n = entry["value"], entry["n_samples"]
        else:
            value, n = entry, 1
        print(result["workload"], metric, f"{value:.6g}", units[metric], n, file=stream)


def worker_main(args) -> int:
    name = args.workload[0]
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    result = measure(
        name,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.size,
        out_dir=args.out,
        corrupt=args.corrupt,
    )
    print(name, "input_digest", result["input_digest"])
    print(name, "steal_share", result["steal_share"])
    _print_metrics(result, "end_to_end")
    if args.trace:
        _print_metrics(result, "per_layer")
    for oracle in result["oracles"]:
        print(name, "oracle", oracle["name"], oracle["checked"], oracle["failed"])
    for problem in result["separation"]:
        print(f"{name}: workload separation: {problem}", file=sys.stderr)
    if args.out is not None:
        path = Path(args.out) / f"{name}.trace{int(bool(args.trace))}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.trace:
        units = _units("per_layer")
        metrics = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in result["per_layer"].items()
        }
    else:
        metrics = {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in result["end_to_end"].items()
        }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


# -- the suite: one subprocess per workload -------------------------------------


def _spawn(name, seed, seconds, trace, size, out_dir, corrupt=False):
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
        "--size",
        size,
        "--out",
        str(out_dir),
    ]
    if corrupt:
        command.append("--corrupt")
    return subprocess.run(command, capture_output=True, text=True)


def environment_stamp(seed) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:  # no git on this machine
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
        "seed": seed,
        "loadavg_at_start": os.getloadavg()[0],
    }


def run_suite(names, seed, seconds, trace, size, out_dir, jobs=1) -> dict:
    """Run ``names`` (untraced, then traced if asked); returns results.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {"env": environment_stamp(seed), "workloads": {}, "failures": []}
    runs = [(name, flag) for name in names for flag in ([0, 1] if trace else [0])]

    def one(run):
        name, flag = run
        done = _spawn(name, seed, seconds, flag, size, out_dir)
        return name, flag, done

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        finished = list(pool.map(one, runs))
    for name, flag, done in finished:
        entry = results["workloads"].setdefault(name, {})
        side_file = out_dir / f"{name}.trace{flag}.json"
        if done.returncode != 0 or not side_file.exists():
            results["failures"].append(
                f"{name} --trace {flag} exited {done.returncode}"
            )
            sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
            continue
        detail = json.loads(side_file.read_text())
        side_file.unlink()
        if flag == 0:
            entry.update(detail)
        else:
            # end-to-end numbers are never taken from the traced process
            for key in ("per_layer", "separation", "span_summary"):
                entry[key] = detail[key]
            entry["oracles_traced"] = detail["oracles"]
            results["failures"].extend(
                f"{name}: workload separation: {problem}"
                for problem in detail["separation"]
            )
    (out_dir / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n"
    )
    return results


def suite_main(args) -> int:
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    out_dir = args.out or HERE / "out" / "latest"
    results = run_suite(
        names, args.seed, args.seconds, bool(args.trace), args.size, out_dir
    )
    for name in names:
        entry = results["workloads"].get(name, {})
        if "end_to_end" not in entry:
            continue
        print(name, "input_digest", entry["input_digest"])
        _print_metrics(entry, "end_to_end")
        if "per_layer" in entry:
            _print_metrics(entry, "per_layer")
    for failure in results["failures"]:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if results["failures"] else 0


# -- --selfcheck ------------------------------------------------------------------


def selfcheck_main(args) -> int:
    """The whole suite at toy sizes, checked against BENCHMARK.json."""
    from harness import MIN_SAMPLES_BEYOND

    out_dir = Path(args.out or HERE / "out" / "selfcheck")
    names = [w["name"] for w in SPEC["workloads"]]
    problems = []
    results = run_suite(names, args.seed, 1, True, "toy", out_dir, jobs=2)
    # toy sizes need not keep the full sizes' balance between layers
    problems.extend(f for f in results["failures"] if "workload separation" not in f)
    if sorted(results["workloads"]) != sorted(names):
        problems.append("workload names differ from BENCHMARK.json")
    for name, entry in results["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            if section not in entry:
                problems.append(f"{name}: no {section} metrics")
                continue
            if sorted(entry[section]) != sorted(_units(section)):
                problems.append(f"{name}: {section} names differ from BENCHMARK.json")
        for metric, unit in _units("end_to_end").items():
            reported = entry.get("end_to_end", {}).get(metric, {})
            if reported.get("unit") != unit:
                problems.append(f"{name}: {metric} unit differs from BENCHMARK.json")
            if not reported.get("value"):
                problems.append(f"{name}: {metric} is zero")
        tail = entry.get("end_to_end", {}).get("latency_tail_ms", {})
        q = tail.get("percentile", 50)
        beyond = tail.get("n_samples", 0) * (100 - q) / 100
        if q != 50 and beyond < MIN_SAMPLES_BEYOND:
            problems.append(f"{name}: p{q} has only {beyond:.0f} samples beyond it")
        for key in ("oracles", "oracles_traced"):
            if not entry.get(key) or any(o["checked"] < 1 for o in entry[key]):
                problems.append(f"{name}: an oracle did not run ({key})")
    # the input digest follows the seed and nothing else
    for name, workload in _workloads().items():
        size = workload.sizes["toy"]
        first = workload.make_inputs(args.seed, size)["digest"]
        if first != workload.make_inputs(args.seed, size)["digest"]:
            problems.append(f"{name}: two generations from one seed differ")
        if first == workload.make_inputs(args.seed + 1, size)["digest"]:
            problems.append(f"{name}: the input digest ignores the seed")
        if first != results["workloads"].get(name, {}).get("input_digest"):
            problems.append(f"{name}: the run fed other inputs than its seed gives")
    # a damaged output must fail the run
    for name in ("curate_dup_heavy", "serve_hot_read"):
        damaged = _spawn(name, args.seed, 1, 0, "toy", out_dir, corrupt=True)
        if damaged.returncode == 0:
            problems.append(f"{name}: a corrupted output passed its oracle")
    for problem in problems:
        print("SELFCHECK FAIL:", problem, file=sys.stderr)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--out", default=None, help="directory for result files")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck_main(args)
    if args.workload and len(args.workload) == 1:
        return worker_main(args)
    return suite_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
