"""The recursive path-containment procedure, kept as the reference oracle.

:func:`repro.xmlmodel.paths.contains` decides ``L(covered) ⊆ L(covering)``
with an iterative dynamic program whose verdicts live in a cross-call memo.
:func:`containment_recursive` is the per-call recursion it replaced: it
builds (and discards) a fresh ``lru_cache`` closure per call and never
touches the memo.  ``tests/property/test_oracle_differential.py`` pins the
two answer for answer; :func:`reference_containment` patches the recursion
in for every caller of ``contains``, so ``benchmarks/bench_oracle.py`` can
time the pre-optimisation path end to end.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from functools import lru_cache
from typing import Iterator, Tuple
from unittest import mock

from repro.xmlmodel.paths import PathExpression, PathLike, PathStep, StepKind

#: Modules that call ``contains`` through a module-level name.
CONTAINMENT_CALLERS = (
    "repro.xmlmodel.paths",
    "repro.xmlmodel",
    "repro.keys.implication",
    "repro.keys.transitive",
)


def containment_recursive(
    covered: Tuple[PathStep, ...], covering: Tuple[PathStep, ...]
) -> bool:
    """The pre-optimisation decision procedure over two step tuples."""

    @lru_cache(maxsize=None)
    def recurse(i: int, j: int) -> bool:
        exhausted_covered = i == len(covered)
        exhausted_covering = j == len(covering)
        if exhausted_covered and exhausted_covering:
            return True
        if exhausted_covered:
            # epsilon must belong to the remaining covering language.
            return all(step.kind is StepKind.DESCENDANT for step in covering[j:])
        if exhausted_covering:
            return False
        covered_step = covered[i]
        covering_step = covering[j]
        if covered_step.kind is StepKind.DESCENDANT:
            if covering_step.kind is StepKind.DESCENDANT:
                #  L(// P') ⊆ L(// Q')  iff  L(P') ⊆ L(// Q')
                return recurse(i + 1, j)
            # A concrete label cannot cover the arbitrary paths of '//'.
            return False
        if covering_step.kind is StepKind.DESCENDANT:
            # '//' absorbs element labels (not attribute steps), or matches
            # the empty path and moves on.
            absorb = (
                covered_step.kind is StepKind.LABEL and recurse(i + 1, j)
            )
            return absorb or recurse(i, j + 1)
        return covered_step == covering_step and recurse(i + 1, j + 1)

    return recurse(0, 0)


def reference_contains(covering: PathLike, covered: PathLike) -> bool:
    """``contains`` with the recursive procedure and no memo."""
    return containment_recursive(
        PathExpression.of(covered).steps, PathExpression.of(covering).steps
    )


@contextmanager
def reference_containment() -> Iterator[None]:
    """Route every ``contains`` call through :func:`reference_contains`."""
    with ExitStack() as stack:
        for module in CONTAINMENT_CALLERS:
            stack.enter_context(mock.patch(f"{module}.contains", reference_contains))
        yield
