"""The exhaustive FD projection, kept as the reference oracle.

:func:`raw_projection` materialises ``X → (X+ ∩ A) − X`` for every subset
``X`` of the projected attributes ``A`` (the empty one included), and
:func:`reference_project_fds` minimises that whole pool.
:func:`repro.relational.normalization.project_fds` must return exactly what
the latter returns, FD for FD and in the same order; the differential suites
and ``benchmarks/bench_design.py`` compare against it.
:func:`reference_projection` swaps it in for ``bcnf_decompose``'s default
fragment FDs.  ``design_from_scratch`` projects nothing: its fragment FDs
come from the keys, and the differential suites compare them with this
oracle's projection of the universal cover.

Closures and the minimum cover come from the frozenset reference engine of
``tests/relational/fd_reference.py``, so this oracle is independent of the
library's bitset engine.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from itertools import combinations
from typing import Iterable, Iterator, List
from unittest import mock

from repro.relational.fd import FDLike, FunctionalDependency, coerce_fd
from repro.relational.schema import AttrSetLike, attr_set

from tests.relational.fd_reference import attribute_closure, minimum_cover

#: Modules that call ``project_fds`` through a module-level name.
PROJECTION_CALLERS = ("repro.relational.normalization",)


def raw_projection(attributes: AttrSetLike, fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """The unminimised pool ``X → (X+ ∩ A) − X``, subsets in size order."""
    attrs = sorted(attr_set(attributes))
    pool = [coerce_fd(fd) for fd in fds]
    projected: List[FunctionalDependency] = []
    for size in range(len(attrs) + 1):
        for subset in combinations(attrs, size):
            closure = attribute_closure(subset, pool)
            rhs = (closure & set(attrs)) - set(subset)
            if rhs:
                projected.append(FunctionalDependency(subset, rhs))
    return projected


def reference_project_fds(
    attributes: AttrSetLike, fds: Iterable[FDLike]
) -> List[FunctionalDependency]:
    """The minimum cover of :func:`raw_projection`."""
    return minimum_cover(raw_projection(attributes, fds), merge_lhs=True)


@contextmanager
def reference_projection() -> Iterator[None]:
    """Run ``project_fds``'s callers with :func:`reference_project_fds`."""
    with ExitStack() as stack:
        for module in PROJECTION_CALLERS:
            stack.enter_context(
                mock.patch(f"{module}.project_fds", reference_project_fds)
            )
        yield
