"""PR-4 parallel-plane benchmarks: sharded execution vs. the serial plane.

The parallel execution plane (:mod:`repro.parallel`) cuts a document at
top-level anchor boundaries, maps the shards onto worker processes (one
pass per shard feeds both the rule shredder and the key checker) and
merges the per-shard states.  Three claims are pinned here, in the style of
the PR 1–3 gates (plain ``perf_counter`` timing under
``--benchmark-disable``):

* ``test_parallel_output_identical_report`` — on a ~100k-node document the
  merged output must equal the serial streaming plane *byte-for-byte*:
  same rows in the same order, same violations with the same node ids and
  detail strings.  This runs everywhere, single-core boxes included.

* ``test_split_share_report`` — cutting the document
  (:func:`~repro.xmlmodel.shards.split_document`, serial by nature) must
  take ≤ 5% of one serial shred+check pass on the same text.  This runs
  everywhere too.

* ``test_parallel_speedup_report`` — end-to-end (split + map + merge,
  shred and key check together) must beat the serial single pass ≥ 2× at
  4 workers.  Parallel speedup needs parallel hardware, so the gate skips
  (loudly) on machines with fewer than 4 CPUs; CI provides 4.

The ``@pytest.mark.benchmark`` cases record serial and parallel pipeline
throughput per push into the ``BENCH_PR4.json`` CI artifact.
"""

import os
import time

import pytest

from repro.experiments.generators import generate_workload
from repro.experiments.scenarios import synthesize_document_chunks, synthesized_node_count
from repro.parallel import run_sharded

GATE_JOBS = 4
REQUIRED_SPEEDUP = 2.0

#: ~104k nodes, 24 keys: the data-scale shape of the PR-3 gate document,
#: grown one order of magnitude for the parallel plane.
GATE_FIELDS = 20
GATE_DEPTH = 4
GATE_KEYS = 24
GATE_FANOUT = 4
GATE_REPEAT = 30
GATE_DUPLICATE_EVERY = 211


@pytest.fixture(scope="module")
def gate_document():
    workload = generate_workload(
        GATE_FIELDS, depth=GATE_DEPTH, num_keys=GATE_KEYS, seed=2
    )
    nodes = synthesized_node_count(
        workload, fanout=GATE_FANOUT, top_level_repeat=GATE_REPEAT
    )
    text = "".join(
        synthesize_document_chunks(
            workload,
            fanout=GATE_FANOUT,
            top_level_repeat=GATE_REPEAT,
            duplicate_every=GATE_DUPLICATE_EVERY,
        )
    )
    return workload, text, nodes


def _pipeline(workload, text, jobs):
    return run_sharded(
        text, transformation=[workload.rule], keys=workload.keys, jobs=jobs
    )


def _best_of(callable_, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - begin)
    return best, result


def _fingerprint(run):
    rows = {name: instance.rows for name, instance in run.instances.items()}
    violations = [
        (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail)
        for v in run.violations
    ]
    return rows, violations


# ----------------------------------------------------------------------
# Gate 1 (runs everywhere): merged output ≡ serial output, byte for byte
# ----------------------------------------------------------------------
def test_parallel_output_identical_report(gate_document):
    workload, text, nodes = gate_document
    assert nodes >= 90_000, "the gate document must stay ~100k-node scale"
    serial = _pipeline(workload, text, jobs=1)
    parallel = _pipeline(workload, text, jobs=GATE_JOBS)
    assert serial.shards == 1
    assert parallel.shards > 1
    assert _fingerprint(parallel) == _fingerprint(serial)
    print(
        f"\n[bench_parallel] {nodes} nodes / {len(workload.keys)} keys: "
        f"{parallel.shards} shards on {GATE_JOBS} workers reproduce the serial "
        f"output exactly ({sum(len(r) for r in serial.instances.values())} rows, "
        f"{len(serial.violations)} violations)"
    )


# ----------------------------------------------------------------------
# Gate 2 (needs >= 4 CPUs): >= 2x end-to-end at 4 workers
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    (os.cpu_count() or 1) < GATE_JOBS,
    reason=f"parallel speedup gate needs >= {GATE_JOBS} CPUs "
    f"(this machine has {os.cpu_count()})",
)
def test_parallel_speedup_report(gate_document):
    workload, text, nodes = gate_document
    serial_time, serial = _best_of(lambda: _pipeline(workload, text, jobs=1))
    parallel_time, parallel = _best_of(
        lambda: _pipeline(workload, text, jobs=GATE_JOBS)
    )
    assert _fingerprint(parallel) == _fingerprint(serial)

    speedup = serial_time / parallel_time
    print(
        f"\n[bench_parallel] end-to-end shred+check on {nodes} nodes / "
        f"{len(workload.keys)} keys: serial {serial_time * 1000:.0f} ms, "
        f"{GATE_JOBS} workers {parallel_time * 1000:.0f} ms -> {speedup:.2f}x "
        f"(gate >= {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"parallel speedup {speedup:.2f}x below the {REQUIRED_SPEEDUP:.0f}x gate "
        f"(serial {serial_time * 1000:.0f} ms vs parallel "
        f"{parallel_time * 1000:.0f} ms at {GATE_JOBS} workers)"
    )


# ----------------------------------------------------------------------
# Gate 3 (runs everywhere): splitting is a small share of the serial pass
# ----------------------------------------------------------------------
REQUIRED_SPLIT_SHARE = 0.05


def test_split_share_report(gate_document):
    """The coordinator cuts the document before any worker starts, so the
    split is serial time the pool can never win back.  It must stay
    within 5% of one serial shred+check pass over the same text; no
    parallel hardware is needed to measure that."""
    from repro.xmlmodel.shards import split_document

    workload, text, nodes = gate_document
    split_time, shards = _best_of(lambda: split_document(text, GATE_JOBS * 2))
    serial_time, _ = _best_of(lambda: _pipeline(workload, text, jobs=1))
    assert shards is not None and len(shards) == GATE_JOBS * 2
    share = split_time / serial_time
    print(
        f"\n[bench_parallel] split into {len(shards)} shards on {nodes} nodes: "
        f"{split_time * 1000:.1f} ms vs serial shred+check "
        f"{serial_time * 1000:.0f} ms -> {share:.1%} "
        f"(gate <= {REQUIRED_SPLIT_SHARE:.0%})"
    )
    assert share <= REQUIRED_SPLIT_SHARE, (
        f"split_document takes {share:.1%} of the serial pass "
        f"({split_time * 1000:.1f} ms of {serial_time * 1000:.0f} ms), "
        f"above the {REQUIRED_SPLIT_SHARE:.0%} gate"
    )


# ----------------------------------------------------------------------
# Recorded throughput benchmarks (BENCH_PR4.json)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="parallel-pipeline")
def test_serial_pipeline_100k(benchmark, gate_document):
    workload, text, _ = gate_document
    run = benchmark(_pipeline, workload, text, 1)
    assert run.shards == 1


@pytest.mark.benchmark(group="parallel-pipeline")
def test_parallel_pipeline_100k(benchmark, gate_document):
    workload, text, _ = gate_document
    run = benchmark(_pipeline, workload, text, GATE_JOBS)
    assert run.shards > 1


@pytest.mark.benchmark(group="parallel-split")
def test_split_scan_100k(benchmark, gate_document):
    from repro.xmlmodel.shards import split_document

    _, text, _ = gate_document
    shards = benchmark(split_document, text, GATE_JOBS * 2)
    assert shards is not None
