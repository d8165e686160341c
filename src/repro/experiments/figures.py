"""Series builders for every figure of the paper's evaluation (Fig. 7).

Each ``figure_7x`` function re-runs the corresponding experiment on synthetic
workloads from :mod:`repro.experiments.generators` and returns an
:class:`~repro.experiments.runner.ExperimentSeries` whose ASCII table is the
analogue of the plotted curves.  Default parameter grids are scaled-down
versions of the paper's (so the whole suite runs in seconds); pass the
paper's grids explicitly to reproduce the full sweeps.

Paper reference points (2003 hardware):

* Fig. 7(a): ``minimumCover`` needs < 35 s for 200 fields and ≈ 2 min for
  500 fields; its time at most doubles per +5 fields whereas ``naive`` grows
  ≈ 200-fold per +5 fields.
* Fig. 7(b): with fields = 15 and keys = 10, both ``propagation`` and
  ``GminimumCover`` are nearly insensitive to table-tree depth (3 … 10) and
  ``propagation`` is far cheaper (≈ 0.x s).
* Fig. 7(c): increasing the number of keys affects ``GminimumCover`` much
  more than ``propagation``, whose growth is roughly linear.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.gminimum_cover import gminimum_cover_check
from repro.core.minimum_cover import minimum_cover_from_keys
from repro.core.naive import naive_minimum_cover
from repro.core.propagation import check_propagation
from repro.experiments.generators import SyntheticWorkload, generate_workload
from repro.experiments.runner import ExperimentSeries, time_call


DEFAULT_7A_FIELDS: Sequence[int] = (5, 10, 15, 20, 30, 50)
PAPER_7A_FIELDS: Sequence[int] = (5, 10, 20, 50, 100, 200, 500)
DEFAULT_7B_DEPTHS: Sequence[int] = (3, 4, 5, 6, 7, 8, 9, 10)
DEFAULT_7C_KEYS: Sequence[int] = (10, 20, 30, 40, 50)
PAPER_7C_KEYS: Sequence[int] = (10, 25, 50, 75, 100)


def figure_7a(
    fields_grid: Sequence[int] = DEFAULT_7A_FIELDS,
    depth: int = 5,
    num_keys: int = 10,
    naive_limit: int = 12,
    repeat: int = 1,
    seed: int = 0,
) -> ExperimentSeries:
    """Fig. 7(a): time to compute a minimum cover vs. number of fields.

    ``naive`` is additionally measured for workloads of at most
    ``naive_limit`` fields (its cost explodes beyond that, which is the whole
    point of the comparison).
    """
    series = ExperimentSeries(
        name="Figure 7(a)",
        description="minimum-cover computation time vs. number of fields",
        x_label="fields",
    )
    for num_fields in fields_grid:
        workload = generate_workload(num_fields, depth=min(depth, num_fields), num_keys=num_keys, seed=seed)
        seconds = {}
        extra = {}
        elapsed, result = time_call(
            lambda: minimum_cover_from_keys(workload.keys, workload.rule), repeat=repeat
        )
        seconds["minimumCover"] = elapsed
        extra["cover_size"] = len(result.cover)
        if num_fields <= naive_limit:
            elapsed, naive_result = time_call(
                lambda: naive_minimum_cover(workload.keys, workload.rule, max_fields=naive_limit),
                repeat=repeat,
            )
            seconds["naive"] = elapsed
            extra["naive_cover_size"] = len(naive_result.cover)
        series.add({"fields": num_fields, "depth": workload.depth, "keys": len(workload.keys)}, seconds, **extra)
    return series


def figure_7b(
    depths: Sequence[int] = DEFAULT_7B_DEPTHS,
    num_fields: int = 15,
    num_keys: int = 10,
    repeat: int = 3,
    seed: int = 0,
) -> ExperimentSeries:
    """Fig. 7(b): effect of table-tree depth on propagation checking."""
    series = ExperimentSeries(
        name="Figure 7(b)",
        description=f"propagation vs GminimumCover, fields={num_fields}, keys={num_keys}, varying depth",
        x_label="depth",
    )
    for depth in depths:
        workload = generate_workload(num_fields, depth=depth, num_keys=num_keys, seed=seed)
        fd = workload.sample_fd()
        seconds = {}
        elapsed, _ = time_call(
            lambda: check_propagation(workload.keys, workload.rule, fd), repeat=repeat
        )
        seconds["propagation"] = elapsed
        elapsed, _ = time_call(
            lambda: gminimum_cover_check(workload.keys, workload.rule, fd), repeat=repeat
        )
        seconds["GminimumCover"] = elapsed
        series.add({"depth": depth, "fields": num_fields, "keys": len(workload.keys)}, seconds)
    return series


def figure_7c(
    keys_grid: Sequence[int] = DEFAULT_7C_KEYS,
    num_fields: int = 15,
    depth: int = 5,
    repeat: int = 3,
    seed: int = 0,
) -> ExperimentSeries:
    """Fig. 7(c): effect of the number of XML keys on propagation checking."""
    series = ExperimentSeries(
        name="Figure 7(c)",
        description=f"propagation vs GminimumCover, fields={num_fields}, depth={depth}, varying keys",
        x_label="keys",
    )
    for num_keys in keys_grid:
        workload = generate_workload(num_fields, depth=depth, num_keys=num_keys, seed=seed)
        fd = workload.sample_fd()
        seconds = {}
        elapsed, _ = time_call(
            lambda: check_propagation(workload.keys, workload.rule, fd), repeat=repeat
        )
        seconds["propagation"] = elapsed
        elapsed, _ = time_call(
            lambda: gminimum_cover_check(workload.keys, workload.rule, fd), repeat=repeat
        )
        seconds["GminimumCover"] = elapsed
        series.add({"keys": num_keys, "fields": num_fields, "depth": depth}, seconds)
    return series


def naive_blowup_series(
    fields_grid: Sequence[int] = (5, 8, 10, 12),
    depth: int = 4,
    num_keys: int = 8,
    repeat: int = 1,
    seed: int = 0,
) -> ExperimentSeries:
    """The "+5 fields" blow-up comparison quoted in Section 6.

    The paper reports that adding 5 fields at most doubles the time of
    ``minimumCover`` but multiplies the time of ``naive`` by roughly 200.
    Each point also records the implication queries each algorithm asked
    (``minimumCover_queries``, ``naive_queries``): the same claim as
    counted work, which does not vary from run to run.
    """
    series = ExperimentSeries(
        name="naive vs minimumCover blow-up",
        description="growth of both cover algorithms as fields increase",
        x_label="fields",
    )
    for num_fields in fields_grid:
        workload = generate_workload(num_fields, depth=min(depth, num_fields), num_keys=num_keys, seed=seed)
        seconds = {}
        elapsed, cover = time_call(
            lambda: minimum_cover_from_keys(workload.keys, workload.rule), repeat=repeat
        )
        seconds["minimumCover"] = elapsed
        elapsed, naive = time_call(
            lambda: naive_minimum_cover(workload.keys, workload.rule, max_fields=max(fields_grid)),
            repeat=repeat,
        )
        seconds["naive"] = elapsed
        series.add(
            {"fields": num_fields},
            seconds,
            minimumCover_queries=cover.implication_queries,
            naive_queries=naive.implication_queries,
        )
    return series


def run_all(fast: bool = True) -> List[ExperimentSeries]:
    """Run every figure series (scaled-down grids when ``fast``)."""
    if fast:
        return [
            figure_7a(),
            figure_7b(depths=(3, 5, 8, 10)),
            figure_7c(),
            naive_blowup_series(fields_grid=(5, 8, 10)),
        ]
    return [
        figure_7a(fields_grid=PAPER_7A_FIELDS),
        figure_7b(),
        figure_7c(keys_grid=PAPER_7C_KEYS),
        naive_blowup_series(),
    ]
