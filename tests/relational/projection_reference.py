"""The exhaustive FD projection, kept as the reference oracle.

:func:`reference_project_fds` materialises ``X → (X+ ∩ A) − X`` for every
subset ``X`` of the projected attributes ``A`` (the empty one included) and
minimises that whole pool.  :func:`repro.relational.normalization.project_fds`
must return exactly what this returns, FD for FD and in the same order; the
differential suite, the CLI pins and ``benchmarks/bench_design.py`` compare
against it.  :func:`reference_projection` swaps it in for every caller of
``project_fds`` inside the design pipeline.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from itertools import combinations
from typing import Iterable, Iterator, List, Optional
from unittest import mock

from repro.relational.bitset import BitFDSet
from repro.relational.fd import (
    FDLike,
    FunctionalDependency,
    _resolve_engine,
    attribute_closure,
    coerce_fd,
    minimum_cover,
)
from repro.relational.schema import AttrSetLike, attr_set

#: Modules that call ``project_fds`` through a module-level name.
PROJECTION_CALLERS = ("repro.relational.normalization", "repro.design.refine")


def reference_project_fds(
    attributes: AttrSetLike,
    fds: Iterable[FDLike],
    minimize_result: bool = True,
    engine: Optional[str] = None,
) -> List[FunctionalDependency]:
    attrs = sorted(attr_set(attributes))
    pool = [coerce_fd(fd) for fd in fds]
    projected: List[FunctionalDependency] = []
    if _resolve_engine(engine) == "bitset":
        bits = BitFDSet.from_fds(pool)
        universe = bits.universe
        attrs_mask = universe.mask(attrs)
        for size in range(len(attrs) + 1):
            for subset in combinations(attrs, size):
                subset_mask = universe.mask(subset)
                closure_mask = bits.closure_mask(subset_mask)
                rhs_mask = closure_mask & attrs_mask & ~subset_mask
                if rhs_mask:
                    projected.append(
                        FunctionalDependency(subset, universe.names(rhs_mask))
                    )
    else:
        for size in range(len(attrs) + 1):
            for subset in combinations(attrs, size):
                closure = attribute_closure(subset, pool, engine="frozenset")
                rhs = (closure & set(attrs)) - set(subset)
                if rhs:
                    projected.append(FunctionalDependency(subset, rhs))
    if minimize_result:
        return minimum_cover(projected, merge_lhs=True, engine=engine)
    return projected


@contextmanager
def reference_projection() -> Iterator[None]:
    """Run the design pipeline with :func:`reference_project_fds`."""
    with ExitStack() as stack:
        for module in PROJECTION_CALLERS:
            stack.enter_context(
                mock.patch(f"{module}.project_fds", reference_project_fds)
            )
        yield
