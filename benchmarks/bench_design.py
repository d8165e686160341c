"""Schema-design benchmarks: FD projection and ``minimumCover`` at scale.

Three costs of the paper's algorithm layer, on generated universal
relations:

* **BCNF over projected FDs.**  ``bcnf_decompose`` by default projects the
  cover onto every candidate fragment.  ``project_fds`` trims each
  enumerated subset against the source FDs; the exhaustive reference
  (``tests/relational/projection_reference.py``) minimises the whole
  ``2^|A|``-FD projected pool instead.  ``test_design_speedup_report``
  gates ``bcnf_decompose`` on the 11-field design problem at ≥ 5× the
  reference, with identical fragments.
* **Design by propagation** (Examples 1.2 / 3.1).  ``design_from_scratch``
  takes each fragment's FDs from the keys instead of projecting.
  ``test_design_20_report`` gates it at 20 fields (where projecting took
  ~30 s on a 2-CPU container with Python 3.11) below 1 s.
* **minimumCover** at Fig. 7(a) scale (2000 fields).
  ``test_minimum_cover_2000_report`` reports it next to a run with
  ``TableRule.fields_of_variable`` swapped back to a linear scan over all
  fields, and checks both return the same cover.

The ``@pytest.mark.benchmark`` cases record the same timings per push into
the ``BENCH_DESIGN.json`` CI artifact (``repro-bench/1`` ``extra_info``).
Gates use plain ``perf_counter`` timing so they also run under
``--benchmark-disable``.
"""

from statistics import median
from unittest import mock

import pytest

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.design import design_from_scratch
from repro.experiments.generators import generate_workload
from repro.experiments.runner import time_call
from repro.relational.normalization import bcnf_decompose
from repro.transform.rule import TableRule

from tests.relational.projection_reference import reference_projection

#: The perfbench ``schema-design`` shapes: the BCNF design problem and the
#: Fig. 7(a)-scale cover problem.
DESIGN = dict(num_fields=11, depth=5, num_keys=8, seed=2)
COVER = dict(num_fields=2000, depth=5, num_keys=100, seed=2)

#: ``design_from_scratch`` at 20 fields, the default workload shape.
DESIGN_20 = dict(num_fields=20, depth=5, seed=0)

SPEEDUP_GATE = 5.0
DESIGN_20_GATE_SECONDS = 1.0
REPEATS = 3


@pytest.fixture(scope="module")
def design_problem():
    workload = generate_workload(
        DESIGN["num_fields"], depth=DESIGN["depth"], num_keys=DESIGN["num_keys"],
        seed=DESIGN["seed"],
    )
    cover = minimum_cover_from_keys(workload.keys, workload.rule).cover
    return workload.rule, cover


@pytest.fixture(scope="module")
def cover_problem():
    workload = generate_workload(
        COVER["num_fields"], depth=COVER["depth"], num_keys=COVER["num_keys"],
        seed=COVER["seed"],
    )
    return workload.keys, workload.rule


def _decompose(problem):
    rule, cover = problem
    return bcnf_decompose(rule.relation, rule.field_names, cover)


def _decompose_reference(problem):
    with reference_projection():
        return _decompose(problem)


def _linear_fields_of_variable(rule, variable):
    return [field.field for field in rule.fields if field.variable == variable]


def _cover_linear_scan(keys, rule):
    with mock.patch.object(TableRule, "fields_of_variable", _linear_fields_of_variable):
        return minimum_cover_from_keys(keys, rule)


def _schemas(relations):
    return [(r.name, r.attributes, r.keys) for r in relations]


@pytest.fixture(scope="module")
def design_measurements(design_problem):
    """Interleaved rounds; the gate statistic is the median per-round ratio."""
    assert _schemas(_decompose(design_problem)) == _schemas(
        _decompose_reference(design_problem)
    )
    rounds = []
    for _ in range(REPEATS):
        fast = time_call(lambda: _decompose(design_problem)).seconds
        slow = time_call(lambda: _decompose_reference(design_problem)).seconds
        rounds.append((fast, slow))
    fast = median(f for f, _ in rounds)
    slow = median(s for _, s in rounds)
    ratio = median(s / f for f, s in rounds)
    return fast, slow, ratio


def test_design_speedup_report(design_measurements):
    fast, slow, ratio = design_measurements
    print(
        f"\n[bench_design] bcnf_decompose, {DESIGN['num_fields']} fields: "
        f"reference {slow * 1000:.0f} ms, trimmed projection {fast * 1000:.1f} ms "
        f"-> median ratio {ratio:.1f}x (gate >= {SPEEDUP_GATE:.0f}x)"
    )
    assert ratio >= SPEEDUP_GATE, (
        f"bcnf_decompose only {ratio:.1f}x faster than with the exhaustive "
        f"projection (expected >= {SPEEDUP_GATE:.0f}x)"
    )


def test_design_20_report():
    workload = generate_workload(
        DESIGN_20["num_fields"], depth=DESIGN_20["depth"], seed=DESIGN_20["seed"]
    )
    timed = time_call(
        lambda: design_from_scratch(workload.keys, workload.rule), repeat=REPEATS
    )
    print(
        f"\n[bench_design] design_from_scratch, {DESIGN_20['num_fields']} fields (BCNF): "
        f"{timed.seconds * 1000:.1f} ms, {len(timed.result.schema)} relations "
        f"(gate < {DESIGN_20_GATE_SECONDS:.0f} s)"
    )
    assert timed.seconds < DESIGN_20_GATE_SECONDS, (
        f"design_from_scratch took {timed.seconds:.2f} s at "
        f"{DESIGN_20['num_fields']} fields (expected < {DESIGN_20_GATE_SECONDS:.0f} s)"
    )


def test_minimum_cover_2000_report(cover_problem):
    keys, rule = cover_problem
    indexed = time_call(lambda: minimum_cover_from_keys(keys, rule), repeat=2)
    linear = time_call(lambda: _cover_linear_scan(keys, rule), repeat=2)
    assert [fd.text for fd in indexed.result.cover] == [
        fd.text for fd in linear.result.cover
    ]
    print(
        f"\n[bench_design] minimum_cover_from_keys, {COVER['num_fields']} fields / "
        f"{COVER['num_keys']} keys: {indexed.seconds * 1000:.0f} ms "
        f"(linear field scan: {linear.seconds * 1000:.0f} ms), "
        f"{len(indexed.result.cover)} cover FDs"
    )


# ----------------------------------------------------------------------
# Recorded timings (BENCH_DESIGN.json)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="design-bcnf")
def test_bcnf_decompose_11(benchmark, design_problem, design_measurements):
    fragments = benchmark(_decompose, design_problem)
    _, _, ratio = design_measurements
    benchmark.extra_info["reference_ratio"] = round(ratio, 2)
    benchmark.extra_info["fragments"] = len(fragments)


@pytest.mark.benchmark(group="design-bcnf")
def test_bcnf_decompose_11_reference(benchmark, design_problem):
    fragments = benchmark.pedantic(
        _decompose_reference, args=(design_problem,), rounds=1, iterations=1
    )
    benchmark.extra_info["fragments"] = len(fragments)


@pytest.mark.benchmark(group="design-cover")
def test_minimum_cover_2000(benchmark, cover_problem):
    keys, rule = cover_problem
    result = benchmark.pedantic(
        minimum_cover_from_keys, args=(keys, rule), rounds=3, iterations=1
    )
    timed = time_call(lambda: minimum_cover_from_keys(keys, rule))
    benchmark.extra_info["cover_fds"] = len(result.cover)
    benchmark.extra_info["implication_queries"] = result.implication_queries
    benchmark.extra_info["cpu_seconds"] = round(timed.cpu_seconds, 6)
    benchmark.extra_info["gc_collections"] = timed.gc_collections
