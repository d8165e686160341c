"""Candidate keys, FD projection, BCNF and 3NF.

These are the classical design tools (Abiteboul–Hull–Vianu / Beeri–Bernstein)
that the paper plugs its propagated minimum cover into: Example 1.2 and
Example 3.1 decompose the universal relation into BCNF guided by the cover
computed from the XML keys.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.relational.bitset import BitFDSet
from repro.relational.fd import (
    FDLike,
    FunctionalDependency,
    attribute_closure,
    coerce_fd,
    minimum_cover,
)
from repro.relational.schema import AttrSetLike, RelationSchema, attr_set


def _superkey_test(
    target: FrozenSet[str], pool: Sequence[FunctionalDependency]
) -> Callable[[Iterable[str]], bool]:
    """A reusable ``is this a superkey of target?`` predicate.

    One :class:`BitFDSet` answers every probe with a counter closure
    (early-exiting once the target is covered) — the candidate-key search
    below calls this up to ``2^|attrs|`` times, so amortising the pool
    construction matters.
    """
    bits = BitFDSet.from_fds(pool)
    target_mask = bits.universe.mask(target)

    def probe(candidate: Iterable[str]) -> bool:
        mask = bits.universe.mask(candidate)
        return target_mask & ~bits.closure_mask(mask, until=target_mask) == 0

    return probe


def candidate_keys(
    attributes: AttrSetLike,
    fds: Iterable[FDLike],
    limit: Optional[int] = None,
) -> List[FrozenSet[str]]:
    """All candidate keys of a relation (minimal determining sets).

    The computation is exponential in the worst case (as it must be); the
    optional ``limit`` stops the enumeration after that many keys have been
    found, which is plenty for design purposes.
    """
    attrs = attr_set(attributes)
    pool = [coerce_fd(fd) for fd in fds]
    is_key = _superkey_test(attrs, pool)
    return _candidate_keys_with_probe(attrs, pool, is_key, limit)


def _candidate_keys_with_probe(
    attrs: FrozenSet[str],
    pool: Sequence[FunctionalDependency],
    is_key: Callable[[Iterable[str]], bool],
    limit: Optional[int] = None,
) -> List[FrozenSet[str]]:
    # Attributes never appearing on any RHS must be part of every key.
    rhs_attrs: Set[str] = set()
    for fd in pool:
        rhs_attrs |= fd.rhs
    mandatory = frozenset(attrs - rhs_attrs)
    optional = sorted(attrs - mandatory)

    keys: List[FrozenSet[str]] = []
    if is_key(mandatory):
        return [mandatory]
    for size in range(0, len(optional) + 1):
        for extra in combinations(optional, size):
            candidate = mandatory | frozenset(extra)
            if any(existing <= candidate for existing in keys):
                continue
            if is_key(candidate):
                keys.append(candidate)
                if limit is not None and len(keys) >= limit:
                    return keys
    return keys


def is_superkey(
    attributes: AttrSetLike,
    schema_attributes: AttrSetLike,
    fds: Iterable[FDLike],
) -> bool:
    return attr_set(schema_attributes) <= attribute_closure(attributes, fds)


def project_fds(attributes: AttrSetLike, fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """Project a set of FDs onto a subset of attributes.

    This is the inherently exponential operation of [Gottlob, PODS'87] that
    the paper contrasts its polynomial ``minimumCover`` against: every
    subset ``X`` of the projected attributes ``A`` — the empty one included,
    so ``∅ → a`` survives projection — is enumerated and closed under
    ``fds``.  The raw projection is the pool ``X → (X+ ∩ A) − X`` in
    enumeration order (size, then lexicographic); that pool is never built.
    For every subset ``X`` and every ``a ∈ (X+ ∩ A) − X`` in sorted order,
    ``X`` is trimmed greedily in sorted-name order: ``b`` is dropped when
    ``a`` is still in the closure of the trimmed set.  Only the last
    occurrence of each trimmed ``Y → a`` is kept, and that short list goes
    to :func:`minimum_cover`.  The result is the minimum cover of the raw
    pool, FD for FD and in the same order:

    * every step of ``minimize`` keeps its pool equivalent to the projection
      of ``fds`` onto ``A``, whose closure of ``Y ⊆ A`` is ``Y+ ∩ A``; so the
      extraneous-attribute pass over the raw pool trims ``X → a`` exactly as
      the greedy loop here does, and the trimmed ``Y`` is already minimal;
    * redundancy removal meets duplicates in pool order and deactivates
      every copy but the last, which leaves every later verdict unchanged.

    The enumeration stays exponential in ``|A|``; what goes away is the
    minimisation of a ``2^|A|``-FD pool.  Closures are taken under the
    source ``fds`` and memoised per attribute set, so there are at most
    ``2^|A|`` of them.  Intended for the small schemas produced by
    decomposition, not for universal relations with hundreds of fields.
    """
    attrs = sorted(attr_set(attributes))
    attr_pool = frozenset(attrs)
    source_closure = BitFDSet.from_fds([coerce_fd(fd) for fd in fds]).closure
    closures: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def closure(subset: FrozenSet[str]) -> FrozenSet[str]:
        found = closures.get(subset)
        if found is None:
            found = closures[subset] = source_closure(subset) & attr_pool
        return found

    # (trimmed LHS, RHS attribute) → None; re-inserted on every repeat so the
    # dict's order is the order of last occurrences.
    trimmed: Dict[Tuple[FrozenSet[str], str], None] = {}
    for size in range(len(attrs) + 1):
        for combination in combinations(attrs, size):
            subset = frozenset(combination)
            rhs = closure(subset) - subset
            if not rhs:
                continue
            for attribute in sorted(rhs):
                lhs = subset
                for candidate in combination:
                    smaller = lhs - {candidate}
                    if attribute in closure(smaller):
                        lhs = smaller
                trimmed.pop((lhs, attribute), None)
                trimmed[lhs, attribute] = None
    registry = obs.metrics()
    registry.inc("design.projections")
    registry.inc("design.closures", len(closures))
    return minimum_cover(
        [FunctionalDependency(lhs, (attribute,)) for lhs, attribute in trimmed],
        merge_lhs=True,
    )


def is_bcnf(attributes: AttrSetLike, fds: Iterable[FDLike]) -> bool:
    """Is the relation (with these FDs, already projected) in BCNF?"""
    attrs = attr_set(attributes)
    pool = [coerce_fd(fd) for fd in fds]
    is_key = _superkey_test(attrs, pool)
    for fd in pool:
        if fd.is_trivial:
            continue
        if not is_key(fd.lhs):
            return False
    return True


def is_3nf(attributes: AttrSetLike, fds: Iterable[FDLike]) -> bool:
    """Is the relation in 3NF (every RHS attribute prime or LHS a superkey)?"""
    attrs = attr_set(attributes)
    pool = [coerce_fd(fd) for fd in fds]
    # One probe (and one interned pool) shared by the key search and the
    # per-FD superkey tests below.
    is_key = _superkey_test(attrs, pool)
    keys = _candidate_keys_with_probe(attrs, pool, is_key)
    prime = set().union(*keys) if keys else set()
    for fd in pool:
        if fd.is_trivial:
            continue
        if is_key(fd.lhs):
            continue
        if not (fd.rhs - fd.lhs) <= prime:
            return False
    return True


def bcnf_decompose(
    name: str, attributes: Sequence[str], fds: Iterable[FDLike]
) -> List[RelationSchema]:
    """Lossless-join BCNF decomposition of ``name(attributes)`` under ``fds``.

    The classical recursive algorithm: pick a violating FD ``X → Y`` (with
    ``Y`` expanded to ``X+``), split into ``(X ∪ X+)`` and
    ``(attributes − (X+ − X))``, and recurse with projected FDs.  Sub-relation
    names are derived from the attribute that "leads" each fragment for
    readability; every produced schema carries its candidate keys.
    """
    pool = [coerce_fd(fd) for fd in fds]
    fragments = _bcnf_recurse(tuple(attributes), pool)
    schemas: List[RelationSchema] = []
    for index, fragment in enumerate(fragments):
        fragment_fds = project_fds(fragment, pool)
        keys = candidate_keys(fragment, fragment_fds)
        schema_name = f"{name}_{index + 1}" if len(fragments) > 1 else name
        schemas.append(RelationSchema(schema_name, sorted(fragment), keys=keys or [fragment]))
    return schemas


def _bcnf_recurse(
    attributes: Tuple[str, ...], fds: List[FunctionalDependency]
) -> List[FrozenSet[str]]:
    attrs = frozenset(attributes)
    local_fds = project_fds(attrs, fds)
    local_closure = BitFDSet.from_fds(local_fds).closure
    for fd in local_fds:
        if fd.is_trivial:
            continue
        closure = local_closure(fd.lhs)
        if attrs <= closure:
            continue
        # Violation: split around fd.lhs.
        first = frozenset(fd.lhs | (closure & attrs))
        second = frozenset((attrs - (closure & attrs)) | fd.lhs)
        left = _bcnf_recurse(tuple(sorted(first)), fds)
        right = _bcnf_recurse(tuple(sorted(second)), fds)
        merged = left + [fragment for fragment in right if fragment not in left]
        return merged
    return [attrs]


def synthesize_3nf(
    name: str, attributes: Sequence[str], fds: Iterable[FDLike]
) -> List[RelationSchema]:
    """Bernstein-style 3NF synthesis from a minimum cover.

    Groups the FDs of the minimum cover by LHS, creates one relation per
    group, and adds a relation holding a candidate key of the whole schema if
    none of the groups contains one (guaranteeing a lossless join).
    """
    pool = minimum_cover(fds, merge_lhs=True)
    attrs = attr_set(attributes)
    schemas: List[RelationSchema] = []
    covered: Set[FrozenSet[str]] = set()
    for index, fd in enumerate(pool):
        fragment = frozenset(fd.lhs | fd.rhs)
        if any(fragment <= existing for existing in covered):
            continue
        covered.add(fragment)
        schemas.append(
            RelationSchema(f"{name}_{index + 1}", sorted(fragment), keys=[fd.lhs if fd.lhs else fragment])
        )
    global_keys = candidate_keys(attrs, pool, limit=1)
    global_key = global_keys[0] if global_keys else attrs
    if not any(global_key <= frozenset(schema.attributes) for schema in schemas):
        schemas.append(RelationSchema(f"{name}_key", sorted(global_key), keys=[global_key]))
    # Attributes mentioned in no FD still have to be stored somewhere.
    mentioned: Set[str] = set()
    for schema in schemas:
        mentioned |= set(schema.attributes)
    leftover = attrs - mentioned
    if leftover:
        key_and_leftover = sorted(global_key | leftover)
        schemas.append(RelationSchema(f"{name}_rest", key_and_leftover, keys=[key_and_leftover]))
    return schemas
