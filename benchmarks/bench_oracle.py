"""Oracle benchmarks: the fast key-implication path vs. the reference path.

Every Fig. 7 workload bottoms out in the implication oracle: containment
probes (path languages), variant scans and table-tree traversals.  The
library engine answers over integer step codes — paths are code tuples,
attribute sets bit masks — with its target-to-context variants indexed by
the last concrete step of their context, containment decided by the
code-level DP of ``repro.xmlmodel.paths`` under a bounded memo, and
prefix uniqueness on an explicit stack; one engine + table tree is shared
across batch workloads.  These benchmarks compare the two configurations
end-to-end on the Fig. 7(c) spot-check shape (200 fields / depth 10 / 100
keys):

* **new** — ``propagated_fds`` batch + ``minimum_cover_from_keys`` with the
  default code-level engine;
* **old** — per-FD ``check_propagation`` with a shared engine but per-call
  table-tree rebuilds, the linear-scan engine of
  ``tests/keys/implication_reference.py`` and, for every ``contains``
  call, the per-call recursive containment of
  ``tests/xmlmodel/containment_reference.py`` (``reference_containment``).
  This reproduces the pre-optimisation *algorithms*; it still rides on
  substrate the reference modules do not replace (interned paths,
  precomputed key hashes/scopes, tree-traversal memos), so it is a
  conservative baseline — the original code was slower still.

``test_oracle_speedup_report`` turns the comparison into a pass/fail gate
(new ≥ 5× old), in the style of ``bench_fig7a``'s ``test_engine_speedup_report``; it
uses plain ``perf_counter`` timing so it also runs under
``--benchmark-disable`` in CI.
"""

import time

import pytest

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.core.propagation import check_propagation, propagated_fds
from repro.xmlmodel.paths import clear_containment_cache

from tests.keys.implication_reference import LinearScanImplicationEngine
from tests.xmlmodel.containment_reference import reference_containment


FIELDS = 200
DEPTH = 10
KEYS = 100


def _batch_fds(workload):
    return [workload.sample_fd(level) for level in range(workload.depth)]


def _run_new(workload, fds):
    results = propagated_fds(workload.keys, workload.rule, fds)
    cover = minimum_cover_from_keys(workload.keys, workload.rule)
    return results, cover


def _run_old(workload, fds):
    with reference_containment():
        engine = LinearScanImplicationEngine(workload.keys)
        results = [
            check_propagation(workload.keys, workload.rule, fd, engine=engine)
            for fd in fds
        ]
        cover = minimum_cover_from_keys(
            workload.keys,
            workload.rule,
            engine=LinearScanImplicationEngine(workload.keys),
        )
    return results, cover


@pytest.mark.benchmark(group="oracle-batch")
def test_oracle_batch_new(benchmark, workload_cache):
    workload = workload_cache(FIELDS, DEPTH, KEYS)
    fds = _batch_fds(workload)
    results, cover = benchmark(_run_new, workload, fds)
    assert len(cover.cover) > 0 and len(results) == len(fds)


@pytest.mark.benchmark(group="oracle-batch")
def test_oracle_batch_old_reference(benchmark, workload_cache):
    workload = workload_cache(FIELDS, DEPTH, KEYS)
    fds = _batch_fds(workload)
    results, cover = benchmark.pedantic(
        _run_old, args=(workload, fds), rounds=1, iterations=1
    )
    assert len(cover.cover) > 0 and len(results) == len(fds)


def test_oracle_speedup_report(workload_cache):
    """The fast oracle must beat the reference path ≥ 5× on the Fig. 7c shape.

    Reports cold (process-wide ``contains`` memo cleared) and warm timings
    for the new path; every run builds fresh engines, whose memos start
    empty.  The gate compares the old path against the *cold* new run, so
    no memo holds more than one batch naturally accumulates.
    """
    workload = workload_cache(FIELDS, DEPTH, KEYS)
    fds = _batch_fds(workload)

    clear_containment_cache()
    begin = time.perf_counter()
    new_results, new_cover = _run_new(workload, fds)
    cold = time.perf_counter() - begin

    warm = min(
        _timed(lambda: _run_new(workload, fds)) for _ in range(3)
    )
    old = min(_timed(lambda: _run_old(workload, fds)) for _ in range(2))

    old_results, old_cover = _run_old(workload, fds)
    assert [bool(r) for r in new_results] == [bool(r) for r in old_results]
    assert sorted(map(str, new_cover.cover)) == sorted(map(str, old_cover.cover))

    speedup_cold = old / cold
    speedup_warm = old / warm
    print(
        f"\nfields  keys  old         new(cold)   new(warm)   speedup(cold/warm)\n"
        f"{FIELDS:6d}  {KEYS:4d}  {old * 1000:8.1f}ms  {cold * 1000:8.1f}ms  "
        f"{warm * 1000:8.1f}ms  {speedup_cold:5.1f}x / {speedup_warm:5.1f}x"
    )
    assert speedup_cold >= 5.0, (
        f"fast oracle only {speedup_cold:.1f}x faster than the reference path at "
        f"{FIELDS} fields / {KEYS} keys (expected >= 5x)"
    )


def _timed(callable_):
    begin = time.perf_counter()
    callable_()
    return time.perf_counter() - begin
