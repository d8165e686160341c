"""The figure builders must run end-to-end and reproduce the paper's *shapes*.

These tests use deliberately tiny grids so the whole suite stays fast; the
benchmarks directory re-runs the same builders at realistic sizes.
"""

import pytest

from repro.experiments.figures import (
    figure_7a,
    figure_7b,
    figure_7c,
    naive_blowup_series,
    run_all,
)


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
    def test_naive_grows_much_faster_than_minimum_cover(self):
        series = naive_blowup_series(fields_grid=(5, 9), depth=3, num_keys=6)
        naive_growth = series.growth_ratio("naive")
        cover_growth = series.growth_ratio("minimumCover")
        assert naive_growth > cover_growth
        # The paper quotes ~200x per +5 fields for naive vs at most ~2x for
        # minimumCover; shapes (not constants) are asserted here.
        assert naive_growth > 5 * cover_growth

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


class TestRunAll:
    def test_fast_mode_produces_four_series(self):
        # Keep it minimal: run_all(fast=True) exercises every builder once.
        series_list = run_all(fast=True)
        assert len(series_list) == 4
        for series in series_list:
            assert series.points
            assert series.to_table()
