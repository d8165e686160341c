"""Functional dependencies, Armstrong closure, covers and ``minimize``.

This module provides the relational FD machinery the paper relies on:

* :class:`FunctionalDependency` — an FD ``X → Y`` over attribute names;
* :func:`attribute_closure` — ``X+`` under a set of FDs;
* :func:`implies_fd` / :func:`equivalent` — implication and equivalence of
  FD sets via closures (Armstrong's axioms are sound and complete, so
  closure-based implication is exact);
* :func:`minimize` — the ``minimize`` routine of Section 5: first drop
  extraneous LHS attributes, then drop redundant FDs, producing a
  non-redundant cover;
* :func:`minimum_cover` — canonical/minimum cover (singleton RHS, merged
  back per LHS on request).

All of them run on the interned-attribute engine of
:mod:`repro.relational.bitset`: attribute sets are machine integers and
closures run in linear time via the Beeri–Bernstein counter algorithm.  The
original quadratic frozenset fixpoint is the reference oracle of the
differential suites and lives test-side, in
``tests/relational/fd_reference.py``; both return *identical* results (same
FDs, same order), not merely equivalent ones.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple, Union

from repro.relational import bitset as _bitset
from repro.relational.schema import AttrSetLike, attr_set


class FunctionalDependency:
    """An FD ``X → Y`` with ``X`` and ``Y`` sets of attribute names."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: AttrSetLike, rhs: AttrSetLike) -> None:
        self.lhs: FrozenSet[str] = attr_set(lhs)
        self.rhs: FrozenSet[str] = attr_set(rhs)
        if not self.rhs:
            raise ValueError("an FD needs a non-empty right-hand side")

    # ------------------------------------------------------------------
    @property
    def is_trivial(self) -> bool:
        """``X → Y`` is trivial when ``Y ⊆ X`` (reflexivity)."""
        return self.rhs <= self.lhs

    @property
    def attributes(self) -> FrozenSet[str]:
        return self.lhs | self.rhs

    def decompose(self) -> List["FunctionalDependency"]:
        """Split into singleton-RHS FDs (the form used internally)."""
        return [FunctionalDependency(self.lhs, {attribute}) for attribute in sorted(self.rhs)]

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionalDependency):
            return NotImplemented
        return self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"FD({self.text!r})"

    def __str__(self) -> str:
        return self.text

    @property
    def text(self) -> str:
        lhs = ", ".join(sorted(self.lhs)) if self.lhs else "∅"
        rhs = ", ".join(sorted(self.rhs))
        return f"{lhs} -> {rhs}"

    # ------------------------------------------------------------------
    #: Spellings accepted for an explicitly empty LHS, e.g. ``"∅ -> a"``.
    EMPTY_LHS_TOKENS = frozenset({"∅", "{}"})

    @staticmethod
    def parse(text: str) -> "FunctionalDependency":
        """Parse ``"a, b -> c"`` (also accepts ``→``).

        An empty LHS must be spelled explicitly as ``"∅ -> a"`` (or
        ``"{} -> a"``); a bare ``"-> a"`` is rejected as ambiguous — it is
        far more often a truncated FD than a deliberate empty determinant.
        """
        normalised = text.replace("→", "->")
        if "->" not in normalised:
            raise ValueError(f"not an FD: {text!r}")
        lhs_text, rhs_text = normalised.split("->", 1)
        lhs = [part.strip() for part in lhs_text.split(",") if part.strip()]
        rhs = [part.strip() for part in rhs_text.split(",") if part.strip()]
        if not lhs:
            raise ValueError(
                f"FD {text!r} has an empty left-hand side; write '∅ -> ...' "
                "(or '{} -> ...') to mean the empty determinant explicitly"
            )
        if any(token in FunctionalDependency.EMPTY_LHS_TOKENS for token in lhs):
            if len(lhs) > 1:
                raise ValueError(
                    f"FD {text!r} mixes the empty-set marker with attributes "
                    "on the left-hand side"
                )
            lhs = []
        return FunctionalDependency(lhs, rhs)


FD = FunctionalDependency

FDLike = Union[FunctionalDependency, str, Tuple[AttrSetLike, AttrSetLike]]


def coerce_fd(value: FDLike) -> FunctionalDependency:
    """Coerce strings / pairs into :class:`FunctionalDependency`."""
    if isinstance(value, FunctionalDependency):
        return value
    if isinstance(value, str):
        return FunctionalDependency.parse(value)
    lhs, rhs = value
    return FunctionalDependency(lhs, rhs)


class FDSet:
    """An ordered, duplicate-free collection of FDs."""

    def __init__(self, fds: Iterable[FDLike] = ()) -> None:
        self._fds: List[FunctionalDependency] = []
        self._seen: Set[FunctionalDependency] = set()
        for fd in fds:
            self.add(fd)

    def add(self, fd: FDLike) -> FunctionalDependency:
        coerced = coerce_fd(fd)
        if coerced not in self._seen:
            self._seen.add(coerced)
            self._fds.append(coerced)
        return coerced

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(self._fds)

    def __len__(self) -> int:
        return len(self._fds)

    def __contains__(self, fd: FDLike) -> bool:
        return coerce_fd(fd) in self._seen

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FDSet):
            return NotImplemented
        return self._seen == other._seen

    def attributes(self) -> FrozenSet[str]:
        result: Set[str] = set()
        for fd in self._fds:
            result |= fd.attributes
        return frozenset(result)

    def implies(self, fd: FDLike) -> bool:
        return implies_fd(self._fds, fd)

    def closure(self, attributes: AttrSetLike) -> FrozenSet[str]:
        return attribute_closure(attributes, self._fds)

    def minimize(self) -> "FDSet":
        return FDSet(minimize(self._fds))

    def __repr__(self) -> str:
        return "FDSet([" + ", ".join(str(fd) for fd in self._fds) + "])"

    def describe(self) -> str:
        return "\n".join(str(fd) for fd in self._fds)


# ----------------------------------------------------------------------
# Closure / implication
# ----------------------------------------------------------------------
def attribute_closure(attributes: AttrSetLike, fds: Iterable[FDLike]) -> FrozenSet[str]:
    """Compute ``X+`` with respect to a set of FDs."""
    return _bitset.closure_fds(attributes, [coerce_fd(fd) for fd in fds])


def implies_fd(fds: Iterable[FDLike], candidate: FDLike) -> bool:
    """Does the FD set imply ``candidate`` (by Armstrong's axioms)?"""
    return _bitset.implies_fds([coerce_fd(item) for item in fds], coerce_fd(candidate))


def equivalent(first: Iterable[FDLike], second: Iterable[FDLike]) -> bool:
    """Are two FD sets equivalent (each implies every FD of the other)?"""
    first_pool = [coerce_fd(fd) for fd in first]
    second_pool = [coerce_fd(fd) for fd in second]
    first_set = _bitset.BitFDSet.from_fds(first_pool)
    second_set = _bitset.BitFDSet.from_fds(second_pool)
    return all(second_set.implies(fd) for fd in first_pool) and all(
        first_set.implies(fd) for fd in second_pool
    )


# ----------------------------------------------------------------------
# minimize — Section 5 of the paper (after Beeri & Bernstein)
# ----------------------------------------------------------------------
def minimize(fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """The ``minimize`` function of Section 5: a non-redundant cover.

    Trivial FDs are dropped first (they are implied by reflexivity), then
    extraneous LHS attributes, then redundant FDs.
    """
    pool = [coerce_fd(fd) for fd in fds if not coerce_fd(fd).is_trivial]
    return _bitset.minimize_fds(pool)


def minimum_cover(fds: Iterable[FDLike], merge_lhs: bool = False) -> List[FunctionalDependency]:
    """A minimum (canonical) cover: singleton RHS, no extraneous attributes,
    no redundant FDs.  With ``merge_lhs`` the FDs sharing a LHS are merged
    back into a single FD (the classical "minimal cover" presentation).
    """
    return _bitset.minimum_cover_fds([coerce_fd(fd) for fd in fds], merge_lhs=merge_lhs)
