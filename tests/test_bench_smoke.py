"""Smoke tests keeping the benchmark harness from silently rotting.

Benchmarks are not collected by the tier-1 run (they match ``bench_*.py``,
not ``test_*.py``), so an API change could break every table/figure
regeneration without any test noticing.  Two guards:

* every ``benchmarks/bench_*.py`` module must still *import* against the
  current API (catches renamed symbols, moved modules, signature drift in
  module-level code);
* the whole benchmark suite must still *run* at a tiny scale
  (``BENCH_SCALE=0.05``), exercised in a subprocess exactly the way a human
  would run it.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"
BENCH_MODULES = sorted(p.name for p in BENCHMARKS_DIR.glob("bench_*.py"))


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def test_all_benchmark_modules_discovered():
    assert len(BENCH_MODULES) >= 12, BENCH_MODULES
    assert "bench_fig1_streaming.py" in BENCH_MODULES


@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_benchmark_module_imports(module_name, monkeypatch):
    """Each bench module must import cleanly against the current API.

    Bench modules do ``from conftest import ...`` expecting the benchmarks
    conftest; load that file under the name ``conftest`` for the duration of
    the import (the tests' own conftest is registered under a different
    module name by pytest, but be defensive and restore whatever was there).
    """
    saved = sys.modules.get("conftest")
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    try:
        bench_conftest = sys.modules["conftest"] = _load_module(
            BENCHMARKS_DIR / "conftest.py", "conftest"
        )
        assert hasattr(bench_conftest, "write_report")
        _load_module(
            BENCHMARKS_DIR / module_name, f"bench_smoke_{module_name[:-3]}"
        )
    finally:
        if saved is not None:
            sys.modules["conftest"] = saved
        else:
            sys.modules.pop("conftest", None)


def test_benchmark_suite_runs_at_tiny_scale(tmp_path):
    """The full benchmark suite passes at BENCH_SCALE=0.05 in a subprocess."""
    env = dict(os.environ)
    env["BENCH_SCALE"] = "0.05"
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks",
            "-q",
            "-o",
            "python_files=bench_*.py",
            "-o",
            f"cache_dir={tmp_path / 'pytest_cache'}",
            "--benchmark-disable",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"benchmark smoke run failed\n--- stdout ---\n{result.stdout[-4000:]}"
        f"\n--- stderr ---\n{result.stderr[-4000:]}"
    )


def test_fig1_streaming_compare_entry_point():
    """The streaming comparison stays wired up (tiny in-process run).

    Beyond importing, this exercises the batch-vs-incremental comparison —
    which asserts bit-identical outputs internally — at a toy scale.
    """
    from repro.workloads import DedupCorpusGenerator

    saved = sys.modules.get("conftest")
    sys.path.insert(0, str(BENCHMARKS_DIR))
    try:
        sys.modules["conftest"] = _load_module(
            BENCHMARKS_DIR / "conftest.py", "conftest"
        )
        streaming = _load_module(
            BENCHMARKS_DIR / "bench_fig1_streaming.py", "bench_fig1_streaming_smoke"
        )
        corpus = DedupCorpusGenerator(seed=103).generate(
            n_entities=60, variants_per_entity=2
        )
        rows = streaming._compare_streaming(corpus, 25, [1, 4])
        assert len(rows) == 2
        for delta, corpus_size, incr_s, batch_s, _speedup in rows:
            assert corpus_size >= 25 + delta
            assert incr_s > 0 and batch_s > 0
    finally:
        sys.path.remove(str(BENCHMARKS_DIR))
        if saved is not None:
            sys.modules["conftest"] = saved
        else:
            sys.modules.pop("conftest", None)


def test_fig1_compare_kernel_entry_point():
    """The --compare-kernel mode stays wired up (tiny in-process run).

    Beyond importing, this exercises the scalar-vs-vectorized comparison —
    which asserts bit-identical scores and an unchanged matched-pair set
    internally — at a toy scale.
    """
    saved = sys.modules.get("conftest")
    sys.path.insert(0, str(BENCHMARKS_DIR))
    try:
        sys.modules["conftest"] = _load_module(
            BENCHMARKS_DIR / "conftest.py", "conftest"
        )
        fig1 = _load_module(
            BENCHMARKS_DIR / "bench_fig1_pipeline_scale.py",
            "bench_fig1_kernel_smoke",
        )
        rows = fig1._compare_kernel_scoring([15])
        assert len(rows) == 1
        row = rows[0]
        assert row["scalar_seconds"] > 0 and row["kernel_seconds"] > 0
        assert row["candidate_pairs"] > 0
        assert row["match_completeness_preserved"] is True
        assert (
            row["pruned_pairs"] + row["matched_pairs"] <= row["candidate_pairs"]
        )
    finally:
        sys.path.remove(str(BENCHMARKS_DIR))
        if saved is not None:
            sys.modules["conftest"] = saved
        else:
            sys.modules.pop("conftest", None)
