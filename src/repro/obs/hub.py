"""The :class:`TelemetryHub`: one telemetry plane for a whole stack.

A hub bundles the :class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer` every layer shares, plus the optional
periodic JSONL snapshot writer.  The :class:`~repro.core.tamer.DataTamer`
facade builds one from :class:`~repro.config.ObsConfig` and threads it
through the executor, pool, stream engine, server, and pipeline, so a
single ``metrics`` request sees all four layers.

Components constructed outside a facade (tests, ad-hoc scripts) default to
a process-wide shared hub (:func:`default_hub`), so instrumentation never
needs a null check.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from .alerts import AlertManager, standard_rules
from .metrics import MetricsRegistry
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ObsConfig


class TelemetryHub:
    """Shared metrics registry + tracer (+ optional snapshot writer)."""

    def __init__(
        self,
        enabled: bool = True,
        tracing: bool = True,
        trace_buffer: int = 1024,
        trace_sample_every: int = 10,
        snapshot_path: Optional[str] = None,
        snapshot_interval_seconds: float = 10.0,
        alert_watermark_age_seconds: float = 300.0,
        alert_respawn_rate_per_minute: float = 30.0,
        alert_window_seconds: float = 60.0,
    ):
        self.enabled = bool(enabled)
        # applied only at the highest-rate span site (serve requests);
        # metrics stay exact, this thins trace volume alone
        self.trace_sample_every = max(1, int(trace_sample_every))
        self.registry = MetricsRegistry(enabled=self.enabled)
        self.tracer = Tracer(
            enabled=self.enabled and bool(tracing), buffer=trace_buffer
        )
        self.alerts = AlertManager(
            self.registry,
            rules=standard_rules(
                watermark_age_seconds=alert_watermark_age_seconds,
                respawn_rate_per_minute=alert_respawn_rate_per_minute,
                window_seconds=alert_window_seconds,
            ),
        )
        self._writer: Optional[SnapshotWriter] = None
        if self.enabled and snapshot_path:
            self._writer = SnapshotWriter(
                self, snapshot_path, snapshot_interval_seconds
            )
            self._writer.start()

    @classmethod
    def from_config(cls, config: Optional["ObsConfig"]) -> "TelemetryHub":
        """Build a hub from an :class:`~repro.config.ObsConfig` section."""
        if config is None:
            return cls()
        return cls(
            enabled=config.enabled,
            trace_buffer=config.trace_buffer,
            trace_sample_every=config.trace_sample_every,
            snapshot_path=config.snapshot_path,
            snapshot_interval_seconds=config.snapshot_interval_seconds,
            alert_watermark_age_seconds=config.alert_watermark_age_seconds,
            alert_respawn_rate_per_minute=config.alert_respawn_rate_per_minute,
            alert_window_seconds=config.alert_window_seconds,
        )

    def snapshot(self) -> Dict[str, Any]:
        """A structured point-in-time dump: metrics + trace summary."""
        return {
            "enabled": self.enabled,
            "time": time.time(),
            "metrics": self.registry.snapshot(),
            "traces": self.tracer.summary(),
        }

    def render_prometheus(self) -> str:
        """The metric plane in Prometheus text exposition format."""
        return self.registry.render_prometheus()

    def close(self) -> None:
        """Stop the snapshot writer (idempotent)."""
        if self._writer is not None:
            self._writer.stop()
            self._writer = None

    def __enter__(self) -> "TelemetryHub":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SnapshotWriter:
    """Daemon thread appending one JSONL hub snapshot per interval.

    The final snapshot is flushed on :meth:`stop`, so even sub-interval
    runs leave one line for offline analysis.
    """

    def __init__(self, hub: TelemetryHub, path: str, interval_seconds: float):
        self._hub = hub
        self.path = str(path)
        self.interval = float(interval_seconds)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="obs-snapshot-writer", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._write_once()

    def _write_once(self) -> None:
        try:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            line = json.dumps(self._hub.snapshot(), default=str)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except Exception:
            # telemetry must never take the host process down
            pass

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._write_once()


_default_hub: Optional[TelemetryHub] = None
_default_lock = threading.Lock()


def default_hub() -> TelemetryHub:
    """The process-wide shared hub (enabled, no snapshot writer).

    Used by components constructed without an explicit hub so their
    instrumentation always has somewhere to land; facades built from a
    :class:`~repro.config.TamerConfig` create their own hub instead.
    """
    global _default_hub
    if _default_hub is None:
        with _default_lock:
            if _default_hub is None:
                _default_hub = TelemetryHub()
    return _default_hub
