"""The frozenset FD engine, kept as the reference oracle.

This is the original quadratic implementation of the Section 5 machinery:
closures by a fixpoint that rescans the whole pool, ``minimize`` as the
extraneous-attribute pass followed by the redundant-FD pass.  The library
runs on the bitset engine of :mod:`repro.relational.bitset`, which must
return exactly what this module returns — the same FDs in the same order —
on every input; ``tests/property/test_bitset_equivalence.py`` and the
``fig7a`` engine benchmark compare the two.

Only the FD value type is shared with the library; nothing here touches
:mod:`repro.relational.bitset`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from repro.relational.fd import FDLike, FunctionalDependency, coerce_fd
from repro.relational.schema import AttrSetLike, attr_set


def _reference_closure(
    attributes: AttrSetLike, pool: Sequence[FunctionalDependency]
) -> FrozenSet[str]:
    """The frozenset oracle: a quadratic fixpoint rescanning the pool."""
    closure: Set[str] = set(attr_set(attributes))
    changed = True
    while changed:
        changed = False
        for fd in pool:
            if fd.lhs <= closure and not fd.rhs <= closure:
                closure |= fd.rhs
                changed = True
    return frozenset(closure)


def attribute_closure(attributes: AttrSetLike, fds: Iterable[FDLike]) -> FrozenSet[str]:
    """``X+`` with respect to a set of FDs."""
    return _reference_closure(attributes, [coerce_fd(fd) for fd in fds])


def implies_fd(fds: Iterable[FDLike], candidate: FDLike) -> bool:
    """Does the FD set imply ``candidate`` (by Armstrong's axioms)?"""
    fd = coerce_fd(candidate)
    return fd.rhs <= _reference_closure(fd.lhs, [coerce_fd(item) for item in fds])


def equivalent(first: Iterable[FDLike], second: Iterable[FDLike]) -> bool:
    """Are two FD sets equivalent (each implies every FD of the other)?"""
    first_pool = [coerce_fd(fd) for fd in first]
    second_pool = [coerce_fd(fd) for fd in second]
    return all(implies_fd(second_pool, fd) for fd in first_pool) and all(
        implies_fd(first_pool, fd) for fd in second_pool
    )


def remove_extraneous_attributes(fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """Drop extraneous attributes from every LHS (lines 1–4 of ``minimize``).

    The bitset engine replicates this iteration order in
    :meth:`repro.relational.bitset.BitFDSet.minimize`.
    """
    pool = [coerce_fd(fd) for fd in fds]
    result: List[FunctionalDependency] = []
    for index, fd in enumerate(pool):
        lhs = set(fd.lhs)
        for attribute in sorted(fd.lhs):
            if attribute not in lhs:
                continue
            trimmed = lhs - {attribute}
            # The attribute is extraneous when the trimmed LHS still
            # determines the RHS under the *whole* set of FDs.
            if fd.rhs <= _reference_closure(trimmed, pool):
                lhs = trimmed
        reduced = FunctionalDependency(lhs, fd.rhs)
        pool[index] = reduced
        result.append(reduced)
    return result


def remove_redundant_fds(fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """Drop FDs implied by the remaining ones (lines 5–8 of ``minimize``)."""
    pool = [coerce_fd(fd) for fd in fds]
    result = list(pool)
    for fd in list(pool):
        others = [other for other in result if other is not fd]
        if fd.rhs <= _reference_closure(fd.lhs, others):
            result = others
    return result


def minimize(fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """The ``minimize`` function of Section 5: a non-redundant cover.

    Trivial FDs are dropped first (they are implied by reflexivity), then
    extraneous LHS attributes, then redundant FDs.
    """
    pool = [coerce_fd(fd) for fd in fds if not coerce_fd(fd).is_trivial]
    pool = remove_extraneous_attributes(pool)
    pool = remove_redundant_fds(pool)
    return pool


def minimum_cover(fds: Iterable[FDLike], merge_lhs: bool = False) -> List[FunctionalDependency]:
    """A minimum (canonical) cover: singleton RHS, no extraneous attributes,
    no redundant FDs.  With ``merge_lhs`` the FDs sharing a LHS are merged
    back into a single FD (the classical "minimal cover" presentation).
    """
    singleton: List[FunctionalDependency] = []
    for fd in (coerce_fd(fd) for fd in fds):
        singleton.extend(fd.decompose())
    reduced = minimize(singleton)
    if not merge_lhs:
        return reduced
    merged: Dict[FrozenSet[str], Set[str]] = {}
    order: List[FrozenSet[str]] = []
    for fd in reduced:
        if fd.lhs not in merged:
            merged[fd.lhs] = set()
            order.append(fd.lhs)
        merged[fd.lhs] |= fd.rhs
    return [FunctionalDependency(lhs, merged[lhs]) for lhs in order]
