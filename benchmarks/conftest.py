"""Shared configuration for the benchmark harness.

Each ``bench_*`` module regenerates one figure (or reported comparison) of
the paper's evaluation section; see EXPERIMENTS.md for the mapping and for
measured-vs-paper shapes.  The benchmarks only depend on the synthetic
workload generators, so they run offline and in a few minutes.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.experiments.generators import generate_document, generate_workload


collect_ignore_glob = []

#: Which execution plane (and which PR's artifact) each bench module
#: measures — the uniform ``extra_info`` schema below carries it so the
#: BENCH_PR*.json artifacts are comparable across PRs without knowing
#: which module produced which record.
_BENCH_PLANES = {
    "bench_fig7a_minimum_cover": ("core", 2),
    "bench_fig7b_depth": ("core", 2),
    "bench_fig7c_keys": ("core", 2),
    "bench_oracle": ("core", 2),
    "bench_implication": ("core", 2),
    "bench_ablation_cover": ("core", 2),
    "bench_shred": ("data", 3),
    "bench_shredding": ("data", 3),
    "bench_parallel": ("parallel", 4),
    "bench_storage": ("storage", 5),
    "bench_incremental": ("incremental", 6),
    "bench_tokenizer": ("tokenizer", 7),
    "bench_service": ("service", 8),
    "bench_static": ("static", 9),
    "bench_obs": ("observability", 10),
    "bench_design": ("core", 14),
}


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Normalize every ``--benchmark-json`` artifact to one schema.

    Historically each BENCH_PR*.json carried whatever free-form
    ``extra_info`` keys its module set (``events_per_second`` here,
    ``selective_speedup`` there).  Downstream tooling that tracks the
    perf trajectory across PRs needs one shape, so every record's
    ``extra_info`` becomes::

        {"schema": "repro-bench/1", "plane": ..., "pr": ...,
         "metrics": {<the module's original keys>}}

    and the document root gains the same ``schema`` marker.
    """
    output_json["schema"] = "repro-bench/1"
    for record in output_json.get("benchmarks", ()):
        fullname = record.get("fullname", "")
        module = os.path.splitext(os.path.basename(fullname.split("::")[0]))[0]
        plane, pr = _BENCH_PLANES.get(module, ("misc", None))
        extra = record.get("extra_info") or {}
        if extra.get("schema") == "repro-bench/1":
            continue  # already normalized (idempotent under re-entry)
        record["extra_info"] = {
            "schema": "repro-bench/1",
            "plane": plane,
            "pr": pr,
            "metrics": dict(extra),
        }


@pytest.fixture(scope="session")
def workload_cache():
    """Cache of synthetic workloads shared across benchmark parameters."""
    cache = {}

    def get(num_fields, depth, num_keys, seed=0):
        key = (num_fields, depth, num_keys, seed)
        if key not in cache:
            cache[key] = generate_workload(num_fields, depth=depth, num_keys=num_keys, seed=seed)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def document_cache(workload_cache):
    """Cache of generated documents keyed by workload parameters + fanout."""
    cache = {}

    def get(num_fields, depth, num_keys, fanout=2, seed=0):
        key = (num_fields, depth, num_keys, fanout, seed)
        if key not in cache:
            workload = workload_cache(num_fields, depth, num_keys, seed)
            cache[key] = generate_document(workload, fanout=fanout, seed=seed)
        return cache[key]

    return get
