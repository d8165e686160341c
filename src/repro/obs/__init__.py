"""``repro.obs`` — the observability plane.

Three layers, matching the issue that introduced it:

* **Mergeable metrics** (:mod:`repro.obs.metrics`): counters, gauges and
  fixed-bucket histograms in a :class:`MetricsRegistry` whose
  :class:`MetricsSnapshot` values merge associatively and subtract
  exactly, like every other shard state in this codebase.  Per-shard
  worker metrics ship back through ``run_sharded`` and merge into totals
  identical to a serial run; the incremental engine's per-delta
  snapshots subtract cleanly out of cumulative ones.
* **Stage tracing** (:mod:`repro.obs.trace`): ``with
  trace("load.batch"): ...`` spans at coarse granularity, compiled down
  to a shared no-op when telemetry is off.
* **Exposition** (:mod:`repro.obs.render`, loaded on first use): human
  table (``--stats``), JSON (``--stats-json``), and Prometheus text for
  the service's ``/metrics`` endpoint; :mod:`repro.obs.logs` carries the
  structured-logging setup shared by the CLI and the service plane.

The module-level switch
-----------------------

Telemetry is **off by default**.  :func:`metrics` then returns a shared
:class:`~repro.obs.metrics.NullRegistry` whose mutators fall through
immediately, and :func:`~repro.obs.trace.trace` returns a shared no-op
span — instrumented call sites never branch themselves.  Hot loops that
count per event branch once, before the loop, on :func:`enabled`.

Switch it on three ways:

* ``REPRO_METRICS=1`` in the environment (read once, at import) — the
  CI matrix leg;
* :func:`enable` / :func:`disable` — imperative, process-wide;
* ``with collect() as registry: ...`` — scoped: installs a fresh (or
  given) registry as the active one, restores the previous state on
  exit, and is what the CLI ``--stats`` flag, the shard workers and the
  incremental engine's per-delta capture all use.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_REGISTRY,
    NullRegistry,
)
from repro import lazy_exports
from repro.obs.logs import get_logger, setup_cli_logging
from repro.obs.trace import STAGE_CALLS, STAGE_SECONDS, trace

# Exposition is read only by ``--stats`` and the service's ``/metrics``;
# every other command skips importing it.
__getattr__, __dir__ = lazy_exports(
    __name__, {"render": ("render_json", "render_prometheus", "render_table")}
)

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramState",
    "METRICS_ENV",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "collect",
    "disable",
    "enable",
    "enabled",
    "get_logger",
    "metrics",
    "render_json",
    "render_prometheus",
    "render_table",
    "setup_cli_logging",
    "trace",
    "STAGE_CALLS",
    "STAGE_SECONDS",
]

#: Environment variable that switches telemetry on at import time.
METRICS_ENV = "REPRO_METRICS"

_TRUTHY = {"1", "true", "yes", "on"}

_enabled: bool = False
_registry: MetricsRegistry = MetricsRegistry()


def enabled() -> bool:
    """Is telemetry collection on?  A single global-bool read."""
    return _enabled


def metrics() -> MetricsRegistry:
    """The active registry — the shared no-op when telemetry is off."""
    return _registry if _enabled else NULL_REGISTRY


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Switch telemetry on process-wide; optionally install ``registry``."""
    global _enabled, _registry
    if registry is not None:
        _registry = registry
    _enabled = True
    return _registry


def disable() -> None:
    """Switch telemetry off; the registry keeps its accumulated state."""
    global _enabled
    _enabled = False


@contextmanager
def collect(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Scoped collection: a fresh active registry, restored on exit.

    Nests: a shard worker's ``collect()`` inside a test's ``collect()``
    records into the worker's registry, whose snapshot the coordinator
    then merges into the outer one.
    """
    global _enabled, _registry
    previous = (_enabled, _registry)
    _registry = registry if registry is not None else MetricsRegistry()
    _enabled = True
    try:
        yield _registry
    finally:
        _enabled, _registry = previous


def _configure_from_env() -> None:
    if os.environ.get(METRICS_ENV, "").strip().lower() in _TRUTHY:
        enable()


_configure_from_env()
