"""The figure builders must run end-to-end and reproduce the paper's *shapes*.

These tests use deliberately tiny grids so the whole suite stays fast; the
benchmarks directory re-runs the same builders at realistic sizes.
"""

import pytest

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.core.naive import naive_minimum_cover
from repro.experiments.figures import (
    figure_7a,
    figure_7b,
    figure_7c,
    naive_blowup_series,
    run_all,
)
from repro.experiments.generators import generate_workload
from repro.keys.implication import ImplicationEngine


class TestFigure7a:
    def test_series_structure(self):
        series = figure_7a(fields_grid=(5, 8), depth=3, num_keys=6, naive_limit=8)
        assert series.x_values() == [5, 8]
        assert "minimumCover" in series.algorithms()
        assert "naive" in series.algorithms()
        assert all(point.seconds["minimumCover"] >= 0 for point in series.points)

    def test_cover_sizes_recorded(self):
        series = figure_7a(fields_grid=(6,), depth=3, num_keys=6, naive_limit=0)
        assert "cover_size" in series.points[0].extra

    def test_naive_skipped_beyond_limit(self):
        series = figure_7a(fields_grid=(5, 14), depth=3, num_keys=6, naive_limit=8)
        assert "naive" in series.points[0].seconds
        assert "naive" not in series.points[1].seconds


class TestFigure7bAnd7c:
    def test_depth_series(self):
        series = figure_7b(depths=(3, 5), num_fields=10, num_keys=8, repeat=1)
        assert series.x_values() == [3, 5]
        assert set(series.algorithms()) == {"propagation", "GminimumCover"}

    def test_propagation_not_slower_than_cover_based_check(self):
        series = figure_7b(depths=(3, 6), num_fields=10, num_keys=8, repeat=2)
        # Allow generous tolerance: the point of the figure is the ordering.
        assert series.always_faster("propagation", "GminimumCover", tolerance=2.0)

    def test_keys_series(self):
        series = figure_7c(keys_grid=(6, 12), num_fields=10, depth=4, repeat=1)
        assert series.x_values() == [6, 12]
        assert all("propagation" in point.seconds for point in series.points)


class TestNaiveBlowup:
    def test_naive_asks_far_more_queries_as_fields_grow(self):
        # The same shape as counted work: implication queries do not jitter.
        series = naive_blowup_series(fields_grid=(5, 9), depth=3, num_keys=6)
        first, last = series.points
        counts = {
            name: (first.extra[f"{name}_queries"], last.extra[f"{name}_queries"])
            for name in ("minimumCover", "naive")
        }
        assert counts == {"minimumCover": (22, 33), "naive": (224, 6912)}
        cover_growth = counts["minimumCover"][1] / counts["minimumCover"][0]
        naive_growth = counts["naive"][1] / counts["naive"][0]
        assert cover_growth <= 2  # "at most doubles"
        assert naive_growth > 5 * cover_growth


class TestFigure7aCountedWork:
    """Fig. 7(a) as counted work: the implication queries each cover
    algorithm asks a fresh engine on ``generate_workload(n, depth=3,
    num_keys=6, seed=0)``.  Counts do not jitter, so the paper's shapes —
    ``minimumCover`` grows polynomially in the fields, ``naive`` tests
    every one of the ``n * 2^(n-1)`` candidate FDs — are asserted exactly."""

    #: fields → (minimumCover queries, naive queries).
    COUNTS = {5: (22, 224), 9: (33, 6912), 12: (42, 73728)}

    @pytest.fixture(scope="class")
    def counts(self):
        measured = {}
        for fields in self.COUNTS:
            workload = generate_workload(fields, depth=3, num_keys=6, seed=0)
            queries = []
            for algorithm in (minimum_cover_from_keys, naive_minimum_cover):
                engine = ImplicationEngine(list(workload.keys))
                algorithm(workload.keys, workload.rule, engine=engine)
                queries.append(engine.query_count)
            measured[fields] = tuple(queries)
        return measured

    def test_measured_counts(self, counts):
        assert counts == self.COUNTS

    def test_minimum_cover_at_most_doubles(self, counts):
        cover = {fields: queries[0] for fields, queries in counts.items()}
        assert cover[5] < cover[9] < cover[12] <= 2 * cover[5]

    def test_naive_tests_every_candidate_fd(self, counts):
        for fields, (_, naive) in counts.items():
            assert naive >= fields * 2 ** (fields - 1)

    @pytest.mark.parametrize("small, large", [(5, 9), (9, 12)])
    def test_naive_grows_exponentially_against_minimum_cover(self, counts, small, large):
        cover_growth = counts[large][0] / counts[small][0]
        naive_growth = counts[large][1] / counts[small][1]
        assert cover_growth <= 2
        assert naive_growth >= 2 ** (large - small)
        assert naive_growth > 5 * cover_growth


class TestRunAll:
    def test_fast_mode_produces_four_series(self):
        # Keep it minimal: run_all(fast=True) exercises every builder once.
        series_list = run_all(fast=True)
        assert len(series_list) == 4
        for series in series_list:
            assert series.points
            assert series.to_table()
