"""The shape every e2e workload has.

A workload generates its inputs from the seed, sets the product up (timed as
``setup_s``; repeated, the median is reported), runs one timed region against
the product's public API, and checks what the region produced against an
oracle the repo already has.  The runner owns the clock, the tracer and the
reporting; a workload owns nothing the next workload could see.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable, Dict, List, NamedTuple

from harness import Measurement, Tracer


class Oracle(NamedTuple):
    """One oracle pass: how many outputs it checked and how many were wrong."""

    name: str
    checked: int
    failed: int


def run_batch(
    seconds: float,
    units: int,
    one_iteration: Callable[[int], Any],
    layer: Dict[str, float] = None,
    min_iterations: int = 3,
) -> Measurement:
    """Time ``one_iteration(i)`` back to back for ``seconds``.

    A batch workload's throughput is ``units`` over the *median* iteration
    wall (single iterations vary by a tenth on a shared box; the median does
    not); the iterations' outputs land in ``raw["outputs"]`` for the oracle.
    """
    walls, outputs = [], []
    t0 = time.perf_counter()
    while len(walls) < min_iterations or time.perf_counter() - t0 < seconds:
        begin = time.perf_counter()
        outputs.append(one_iteration(len(walls)))
        walls.append(time.perf_counter() - begin)
    return Measurement(
        throughput=units / median(walls),
        latencies_ms=[wall * 1e3 for wall in walls],
        attempted=len(walls),
        failed=0,
        t0=t0,
        t1=time.perf_counter(),
        raw={"outputs": outputs, "layer": layer or {}},
    )


class Workload:
    #: permanent workload name (as in BENCHMARK.json)
    name = ""
    #: input sizes: ``full`` is what the benchmark measures, ``toy`` what
    #: ``--selfcheck`` runs in seconds
    sizes: Dict[str, Dict[str, Any]] = {}
    #: count the largest reaped child (a pool worker) into ``peak_rss_mb``
    rss_includes_children = False

    def make_inputs(self, seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
        """Generate the inputs; the dict carries their ``digest``."""
        raise NotImplementedError

    def setup(self, inputs: Dict[str, Any]) -> Any:
        """Everything before the timed region; returns the workload's state."""
        raise NotImplementedError

    def run(
        self, state: Any, inputs: Dict[str, Any], seconds: float, tracer: Tracer
    ) -> Measurement:
        """The timed region (about ``seconds`` long)."""
        raise NotImplementedError

    def check(
        self, state: Any, inputs: Dict[str, Any], measurement: Measurement
    ) -> List[Oracle]:
        """Replay the region's outputs against the oracle (untimed)."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Stop everything ``setup`` started and wait for it."""
        raise NotImplementedError

    def corrupt(self, measurement: Measurement) -> None:
        """Damage one recorded output so the oracle must fail (--selfcheck)."""
        raise NotImplementedError

    def separation(self, layer: Dict[str, float], seconds: float) -> List[str]:
        """Reasons this traced run no longer stresses what it was chosen for."""
        return []
