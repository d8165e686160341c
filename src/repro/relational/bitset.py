"""Interned-attribute bitset engine for FD closures, covers and ``minimize``.

The reference FD implementation (``tests/relational/fd_reference.py``)
computes attribute closures by a quadratic fixpoint over frozensets: every
round rescans the full FD pool, so ``minimize`` (which performs one closure
per LHS attribute per FD) is cubic-ish in the size of the input.  Every
algorithm of the paper — key-to-FD propagation, the Section 5 ``minimize``
routine and the ``minimumCover`` computation of Figs. 7(a)–(c) — bottoms out
in repeated closure calls, which makes that fixpoint the global bottleneck.

This module is the FD engine.  Attribute names are interned to bit positions
by an :class:`AttributeUniverse`, attribute sets become plain Python ints
(arbitrary-precision bit masks), and a :class:`BitFDSet` stores FDs as
``(lhs_mask, rhs_mask)`` pairs together with an attribute→FD inverted index.
:meth:`BitFDSet.closure_mask` is the classic Beeri–Bernstein linear-time
counter algorithm: each FD carries a counter of LHS attributes not yet in the
closure; when a counter drops to zero the FD "fires" and its RHS joins the
work queue.  Every FD fires at most once and every attribute is dequeued at
most once, so a closure costs ``O(total size of the FDs)`` instead of
``O(rounds × pool)``.

The mask-level ``minimize``/``minimum_cover`` reproduce the reference
implementation's iteration order *exactly* (FDs in input order, LHS attributes
in sorted name order), so both return identical results — not merely
equivalent covers — which the differential test suite in
``tests/property/test_bitset_equivalence.py`` pins down.

:mod:`repro.relational.fd` (the public surface) calls the functional
wrappers at the bottom of this module directly; there is no engine switch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.schema import AttrSetLike, attr_set

__all__ = [
    "AttributeUniverse",
    "BitFDSet",
    "iter_bits",
    "closure_fds",
    "implies_fds",
    "minimize_fds",
    "minimum_cover_fds",
]

#: Full-closure memo entries kept per pool.  Minimisation workloads stay far
#: below this (one entry per distinct trimmed LHS); the bound only kicks in
#: on exhaustive-enumeration callers (candidate keys, FD projection) whose
#: probes never repeat and would otherwise grow the cache without benefit.
CLOSURE_CACHE_LIMIT = 4096


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class AttributeUniverse:
    """Bidirectional interning of attribute names to bit positions.

    Bits are assigned in first-seen order and never reassigned; the universe
    only grows.  A universe can be shared by many :class:`BitFDSet` objects
    (e.g. an FD pool and the query sets closed against it) so that masks are
    directly comparable.
    """

    __slots__ = ("_bit_of", "_names")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._bit_of: Dict[str, int] = {}
        self._names: List[str] = []
        for name in names:
            self.intern(name)

    # ------------------------------------------------------------------
    def intern(self, name: str) -> int:
        """Return the bit position of ``name``, assigning one if new."""
        bit = self._bit_of.get(name)
        if bit is None:
            bit = len(self._names)
            self._bit_of[name] = bit
            self._names.append(name)
        return bit

    def bit_of(self, name: str) -> int:
        """The bit position of an already-interned name (KeyError if unknown)."""
        return self._bit_of[name]

    def name_of(self, bit: int) -> str:
        """The attribute name occupying ``bit`` (IndexError if unassigned)."""
        return self._names[bit]

    def mask(self, attributes: AttrSetLike) -> int:
        """Intern every attribute and return the combined mask."""
        result = 0
        for name in attr_set(attributes):
            result |= 1 << self.intern(name)
        return result

    def mask_if_known(self, attributes: AttrSetLike) -> Optional[int]:
        """The combined mask, or ``None`` if any attribute is unknown.

        Unlike :meth:`mask` this never grows the universe, so it is safe on
        shared universes when the caller only wants a containment test.
        """
        result = 0
        for name in attr_set(attributes):
            bit = self._bit_of.get(name)
            if bit is None:
                return None
            result |= 1 << bit
        return result

    def names(self, mask: int) -> FrozenSet[str]:
        """The set of attribute names whose bits are set in ``mask``."""
        return frozenset(self._names[bit] for bit in iter_bits(mask))

    def sorted_bits(self, mask: int) -> List[int]:
        """Bits of ``mask`` ordered by attribute *name* (not bit position).

        The reference ``minimize`` iterates LHS attributes in sorted name
        order; mask-level minimisation uses this to replicate it bit-exactly.
        """
        return sorted(iter_bits(mask), key=lambda bit: self._names[bit])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._bit_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __repr__(self) -> str:
        return f"AttributeUniverse({self._names!r})"


class BitFDSet:
    """A mutable pool of FDs as ``(lhs_mask, rhs_mask)`` pairs.

    Closures run in linear time via per-FD unsatisfied-LHS counters fed by an
    attribute→FD inverted index.  FDs can be replaced or deactivated in place
    (``minimize`` needs both); the index is rebuilt lazily on the next
    closure after a mutation.
    """

    __slots__ = (
        "universe",
        "_lhs",
        "_rhs",
        "_active",
        "_index",
        "_popcount",
        "_zero_lhs",
        "_closure_cache",
    )

    def __init__(self, universe: Optional[AttributeUniverse] = None) -> None:
        self.universe = universe if universe is not None else AttributeUniverse()
        self._lhs: List[int] = []
        self._rhs: List[int] = []
        self._active: List[bool] = []
        # bit → positions whose LHS contains (or once contained) that bit.
        # Entries are never removed on replace(); closure_mask() checks the
        # current LHS before trusting an entry, which keeps replacement O(1)
        # instead of forcing index rebuilds in minimize's trimming loop.
        self._index: Dict[int, List[int]] = {}
        self._popcount: List[int] = []
        self._zero_lhs: List[int] = []
        # (start, skip) → full closure, valid until the next mutation.  FDs
        # sharing an LHS (ubiquitous after singleton-RHS decomposition) probe
        # the same trimmed LHS once per RHS attribute; the cache collapses
        # those repeats.  Only *full* fixpoints are cached — ``until`` early
        # exits return partial closures which must not be reused.
        self._closure_cache: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_fds(
        cls, fds: Iterable, universe: Optional[AttributeUniverse] = None
    ) -> "BitFDSet":
        """Build a pool from objects with ``lhs``/``rhs`` attribute sets."""
        pool = cls(universe)
        for fd in fds:
            pool.add_fd(fd)
        return pool

    def add(self, lhs_mask: int, rhs_mask: int) -> int:
        """Append an FD given as masks; returns its index."""
        position = len(self._lhs)
        self._lhs.append(lhs_mask)
        self._rhs.append(rhs_mask)
        self._active.append(True)
        self._popcount.append(lhs_mask.bit_count())
        if lhs_mask == 0:
            self._zero_lhs.append(position)
        for bit in iter_bits(lhs_mask):
            self._index.setdefault(bit, []).append(position)
        if self._closure_cache:
            self._closure_cache.clear()
        return position

    def add_fd(self, fd) -> int:
        """Append an FD object (anything with ``lhs``/``rhs`` name sets)."""
        return self.add(self.universe.mask(fd.lhs), self.universe.mask(fd.rhs))

    def replace(self, position: int, lhs_mask: int, rhs_mask: int) -> None:
        """Overwrite the FD at ``position``, updating the index in place."""
        old_lhs = self._lhs[position]
        self._lhs[position] = lhs_mask
        self._rhs[position] = rhs_mask
        self._popcount[position] = lhs_mask.bit_count()
        for bit in iter_bits(lhs_mask & ~old_lhs):
            entries = self._index.setdefault(bit, [])
            if position not in entries:
                entries.append(position)
        if lhs_mask == 0 and old_lhs != 0:
            self._zero_lhs.append(position)
        elif lhs_mask != 0 and old_lhs == 0:
            self._zero_lhs.remove(position)
        if self._closure_cache:
            self._closure_cache.clear()

    def deactivate(self, position: int) -> None:
        """Remove the FD at ``position`` from all subsequent closures."""
        self._active[position] = False
        if self._closure_cache:
            self._closure_cache.clear()

    def activate(self, position: int) -> None:
        self._active[position] = True
        if self._closure_cache:
            self._closure_cache.clear()

    def masks(self) -> List[Tuple[int, int]]:
        """The active FDs as ``(lhs_mask, rhs_mask)`` pairs, in pool order."""
        return [
            (self._lhs[i], self._rhs[i])
            for i in range(len(self._lhs))
            if self._active[i]
        ]

    def lhs_mask(self, position: int) -> int:
        return self._lhs[position]

    def rhs_mask(self, position: int) -> int:
        return self._rhs[position]

    def __len__(self) -> int:
        return sum(self._active)

    def __repr__(self) -> str:
        rendered = ", ".join(
            f"{sorted(self.universe.names(lhs)) or '∅'}->{sorted(self.universe.names(rhs))}"
            for lhs, rhs in self.masks()
        )
        return f"BitFDSet([{rendered}])"

    # ------------------------------------------------------------------
    def closure_mask(self, start: int, skip: int = -1, until: int = 0) -> int:
        """``start+`` under the active FDs — linear-time counter algorithm.

        ``skip`` excludes one FD position from the computation (used by
        redundancy tests, which ask whether the *other* FDs imply one).
        ``until`` allows an early exit: once all of its bits are in the
        closure the (possibly partial) closure is returned — implication
        tests only care about containment, not the full fixpoint.
        """
        if until and until & ~start == 0:
            return start
        cache_key = (start, skip)
        cached = self._closure_cache.get(cache_key)
        if cached is not None:
            return cached
        lhs, rhs, active, index = self._lhs, self._rhs, self._active, self._index
        closure = start
        # Unsatisfied-LHS counters, decremented once per processed closure
        # bit; the start bits go through ``pending`` like derived ones, so
        # the counters begin at the full LHS size and only empty-LHS FDs
        # fire immediately.  ``pending`` is itself a mask: bits enter it
        # exactly when they enter the closure, so each is processed once.
        count = self._popcount.copy()
        pending = start
        for position in self._zero_lhs:
            if active[position] and position != skip:
                gained = rhs[position] & ~closure
                if gained:
                    closure |= gained
                    pending |= gained
                    if until and until & ~closure == 0:
                        return closure
        while pending:
            low = pending & -pending
            pending ^= low
            positions = index.get(low.bit_length() - 1)
            if not positions:
                continue
            for position in positions:
                if not lhs[position] & low:
                    # Stale entry: the bit was trimmed off this LHS by a
                    # later replace(); the counter must not move.
                    continue
                remaining = count[position] - 1
                count[position] = remaining
                if remaining == 0 and active[position] and position != skip:
                    gained = rhs[position] & ~closure
                    if gained:
                        closure |= gained
                        pending |= gained
                        if until and until & ~closure == 0:
                            return closure
        if len(self._closure_cache) < CLOSURE_CACHE_LIMIT:
            self._closure_cache[cache_key] = closure
        return closure

    # ------------------------------------------------------------------
    def closure(self, attributes: AttrSetLike) -> FrozenSet[str]:
        """``X+`` as a set of names (unknown attributes are interned)."""
        return self.universe.names(self.closure_mask(self.universe.mask(attributes)))

    def implies_mask(self, lhs_mask: int, rhs_mask: int, skip: int = -1) -> bool:
        return (
            rhs_mask & ~self.closure_mask(lhs_mask, skip=skip, until=rhs_mask) == 0
        )

    def implies(self, fd) -> bool:
        """Does the pool imply the FD (an object with ``lhs``/``rhs``)?

        Attributes of the candidate unknown to the universe are interned on
        the fly; a fresh bit can never occur in a stored FD's RHS, so it is
        derivable only through reflexivity — exactly the oracle's semantics.
        """
        lhs_mask = self.universe.mask(fd.lhs)
        rhs_mask = self.universe.mask(fd.rhs)
        return self.implies_mask(lhs_mask, rhs_mask)

    # ------------------------------------------------------------------
    # Mask-level minimize (Section 5) — mirrors the reference
    # remove_extraneous_attributes / remove_redundant_fds step for step.
    # ------------------------------------------------------------------
    def remove_extraneous_attributes(self) -> None:
        """Drop extraneous LHS attributes from every active FD, in place."""
        for position in range(len(self._lhs)):
            if not self._active[position]:
                continue
            lhs_mask = self._lhs[position]
            rhs_mask = self._rhs[position]
            # Attributes in sorted *name* order, matching the reference path;
            # the pool still holds the untrimmed FD while its own attributes
            # are probed, exactly as the reference implementation does.
            for bit in self.universe.sorted_bits(lhs_mask):
                probe = 1 << bit
                if not lhs_mask & probe:
                    continue
                trimmed = lhs_mask & ~probe
                if self.implies_mask(trimmed, rhs_mask):
                    lhs_mask = trimmed
            if lhs_mask != self._lhs[position]:
                self.replace(position, lhs_mask, rhs_mask)

    def remove_redundant_fds(self) -> None:
        """Deactivate FDs implied by the remaining active ones, in place.

        Before paying for a closure, an exact pre-filter rules the common
        case out: a bit of ``rhs − lhs`` that no *other* active FD produces
        can never enter the closure, so the FD cannot be redundant.  On
        propagated covers (one producer per field) this skips nearly every
        closure.
        """
        producers: Dict[int, int] = {}
        for position in range(len(self._lhs)):
            if not self._active[position]:
                continue
            for bit in iter_bits(self._rhs[position]):
                producers[bit] = producers.get(bit, 0) + 1
        for position in range(len(self._lhs)):
            if not self._active[position]:
                continue
            lhs_mask = self._lhs[position]
            rhs_mask = self._rhs[position]
            if any(
                producers[bit] <= 1 for bit in iter_bits(rhs_mask & ~lhs_mask)
            ):
                continue
            if self.implies_mask(lhs_mask, rhs_mask, skip=position):
                self.deactivate(position)
                for bit in iter_bits(rhs_mask):
                    producers[bit] -= 1

    def minimize(self) -> List[Tuple[int, int]]:
        """The ``minimize`` routine of Section 5, on masks.

        Returns the surviving ``(lhs_mask, rhs_mask)`` pairs in pool order.
        Trivial FDs (``rhs ⊆ lhs``) must not be present — the public wrapper
        in :mod:`repro.relational.fd` filters them first, as the reference
        implementation does.
        """
        self.remove_extraneous_attributes()
        self.remove_redundant_fds()
        return self.masks()


# ----------------------------------------------------------------------
# Functional wrappers over already-coerced FunctionalDependency pools.
# These are the entry points the public functions of fd.py call; they
# intern, run on masks, and convert back to the frozenset-based objects
# so the public API surface is unchanged.
# ----------------------------------------------------------------------
def closure_fds(attributes: AttrSetLike, fds: Sequence) -> FrozenSet[str]:
    """``X+`` of ``attributes`` under coerced FD objects, via the bit engine."""
    pool = BitFDSet.from_fds(fds)
    return pool.closure(attributes)


def implies_fds(fds: Sequence, candidate) -> bool:
    """Does the coerced pool imply the coerced candidate FD?"""
    return BitFDSet.from_fds(fds).implies(candidate)


def _to_fd_objects(pool: BitFDSet, masks: Iterable[Tuple[int, int]]) -> List:
    from repro.relational.fd import FunctionalDependency

    universe = pool.universe
    return [
        FunctionalDependency(universe.names(lhs), universe.names(rhs))
        for lhs, rhs in masks
    ]


def minimize_fds(fds: Sequence) -> List:
    """Non-trivial coerced FDs → non-redundant cover (bit-engine fast path)."""
    pool = BitFDSet.from_fds(fds)
    return _to_fd_objects(pool, pool.minimize())


def minimum_cover_fds(fds: Sequence, merge_lhs: bool = False) -> List:
    """Minimum (canonical) cover of coerced singleton-RHS-decomposable FDs."""
    from repro.relational.fd import FunctionalDependency

    universe = AttributeUniverse()
    pool = BitFDSet(universe)
    for fd in fds:
        lhs_mask = universe.mask(fd.lhs)
        for attribute in sorted(fd.rhs):
            rhs_mask = universe.mask({attribute})
            if rhs_mask & ~lhs_mask == 0:
                # Trivial singleton (reflexivity) — the reference minimize
                # drops these before minimising.  Duplicates are kept: the
                # reference path keeps them too and lets redundancy removal
                # pick the survivor, which fixes the output order.
                continue
            pool.add(lhs_mask, rhs_mask)
    reduced = pool.minimize()
    if not merge_lhs:
        return _to_fd_objects(pool, reduced)
    merged: Dict[int, int] = {}
    order: List[int] = []
    for lhs_mask, rhs_mask in reduced:
        if lhs_mask not in merged:
            merged[lhs_mask] = 0
            order.append(lhs_mask)
        merged[lhs_mask] |= rhs_mask
    return [
        FunctionalDependency(universe.names(lhs), universe.names(merged[lhs]))
        for lhs in order
    ]
