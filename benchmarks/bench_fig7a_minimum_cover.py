"""Figure 7(a): minimum-cover computation time vs. number of fields.

The paper reports that Algorithm ``minimumCover`` scales polynomially in the
number of fields of the universal relation (≤ 35 s at 200 fields, ≈ 2 min at
500 fields on 2003 hardware), while the ``naive`` baseline becomes unusable
beyond a handful of fields.  These benchmarks sweep the same parameter;
``naive`` is only run on small field counts (the blow-up is the point).

The ``fig7a-fd-engine`` group compares two relational FD engines on the
Phase 3 minimisation of this exact workload: the library's interned-attribute
bitset engine (:func:`repro.relational.fd.minimize`) against the frozenset
oracle it replaced (``tests/relational/fd_reference.py``).
``test_engine_speedup_report`` turns the comparison into a pass/fail gate:
the bitset engine must be at least 3× faster at the largest seed size.
"""

import time

import pytest

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.core.naive import naive_minimum_cover
from repro.relational.fd import minimize

from tests.relational import fd_reference


FIELD_GRID = [10, 25, 50, 100, 200]
NAIVE_FIELD_GRID = [5, 8, 10, 12]
#: ``minimize`` per FD engine: the library's and the test-side reference.
ENGINES = {"bitset": minimize, "frozenset": fd_reference.minimize}
ENGINE_FIELD_GRID = [100, 200, 500]
DEPTH = 5
KEYS = 10


@pytest.mark.benchmark(group="fig7a-minimumCover")
@pytest.mark.parametrize("num_fields", FIELD_GRID)
def test_minimum_cover_scaling_with_fields(benchmark, workload_cache, num_fields):
    workload = workload_cache(num_fields, DEPTH, KEYS)
    result = benchmark(minimum_cover_from_keys, workload.keys, workload.rule)
    assert len(result.cover) > 0


@pytest.mark.benchmark(group="fig7a-naive")
@pytest.mark.parametrize("num_fields", NAIVE_FIELD_GRID)
def test_naive_scaling_with_fields(benchmark, workload_cache, num_fields):
    workload = workload_cache(num_fields, min(3, num_fields), 8)
    result = benchmark.pedantic(
        naive_minimum_cover,
        args=(workload.keys, workload.rule),
        kwargs={"max_fields": max(NAIVE_FIELD_GRID)},
        rounds=1,
        iterations=1,
    )
    assert result.cover is not None


@pytest.mark.benchmark(group="fig7a-500-fields")
def test_minimum_cover_500_fields(benchmark, workload_cache):
    """The paper's largest cover experiment (500 fields)."""
    workload = workload_cache(500, DEPTH, KEYS)
    result = benchmark.pedantic(
        minimum_cover_from_keys,
        args=(workload.keys, workload.rule),
        rounds=1,
        iterations=1,
    )
    assert len(result.cover) > 0


# ----------------------------------------------------------------------
# Old vs. new FD engine on the Fig. 7(a) minimisation stage.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def generated_fds_cache(workload_cache):
    """Propagated (pre-minimisation) FD pools per field count."""
    cache = {}

    def get(num_fields):
        if num_fields not in cache:
            workload = workload_cache(num_fields, DEPTH, KEYS)
            cache[num_fields] = minimum_cover_from_keys(
                workload.keys, workload.rule
            ).generated
        return cache[num_fields]

    return get


@pytest.mark.benchmark(group="fig7a-fd-engine")
@pytest.mark.parametrize("num_fields", ENGINE_FIELD_GRID)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_cover_minimisation_engine_comparison(
    benchmark, generated_fds_cache, engine, num_fields
):
    generated = generated_fds_cache(num_fields)
    result = benchmark(ENGINES[engine], generated)
    assert result == fd_reference.minimize(generated)


def test_engine_speedup_report(generated_fds_cache):
    """The bitset engine must beat the oracle ≥ 3× at the largest size.

    Plain ``perf_counter`` timing (best of three) so the gate also runs
    under ``--benchmark-disable``; prints a small old-vs-new table.
    """

    def best_of(callable_, repeats=3):
        times = []
        for _ in range(repeats):
            begin = time.perf_counter()
            callable_()
            times.append(time.perf_counter() - begin)
        return min(times)

    rows = []
    for num_fields in ENGINE_FIELD_GRID:
        generated = generated_fds_cache(num_fields)
        fast = best_of(lambda: minimize(generated))
        slow = best_of(lambda: fd_reference.minimize(generated))
        rows.append((num_fields, len(generated), fast, slow, slow / fast))
    print("\nfields  FDs   bitset      frozenset   speedup")
    for num_fields, size, fast, slow, speedup in rows:
        print(
            f"{num_fields:6d}  {size:4d}  {fast * 1000:8.2f}ms  {slow * 1000:8.2f}ms  {speedup:6.1f}x"
        )
    largest = rows[-1]
    assert largest[4] >= 3.0, (
        f"bitset engine only {largest[4]:.1f}x faster than the frozenset "
        f"oracle at {largest[0]} fields (expected >= 3x)"
    )
