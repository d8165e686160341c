"""Candidate keys, FD projection, BCNF and 3NF.

These are the classical design tools (Abiteboul–Hull–Vianu / Beeri–Bernstein)
that the paper plugs its propagated minimum cover into: Example 1.2 and
Example 3.1 decompose the universal relation into BCNF guided by the cover
computed from the XML keys.  There each fragment's FDs are propagated from
the keys too and handed to :func:`bcnf_decompose` as a function;
:func:`canonical_cover` orders them as :func:`project_fds` would, so the
exponential projection is left to callers that only hold FDs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.relational.bitset import AttributeUniverse, BitFDSet, iter_bits
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
    ``2^|A|`` of them.  Intended for callers that hold only FDs and for
    small schemas, not for universal relations with hundreds of fields;
    ``design_from_scratch`` never calls it (it propagates each fragment's
    FDs from the keys and orders them with :func:`canonical_cover`).
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


def canonical_cover(attributes: AttrSetLike, fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """The cover :func:`project_fds` gives for FDs already over ``attributes``.

    ``fds`` must mention only ``attributes``.  The result is, FD for FD and
    in the same order, ``project_fds(attributes, source)`` for every
    ``source`` whose projection onto ``attributes`` is equivalent to
    ``fds``: that projection is a function of the closure ``X ↦ X+ ∩ A``
    alone.  Design takes each fragment's FDs from the keys and presents
    them here, so BCNF meets its violations in the order the projection
    route met them.

    It replays the projection's tie-breaking without enumerating ``A``.
    Call an attribute in no LHS of ``fds`` a *sink*; sinks never fire an
    FD, so ``X+ = (X − sinks)+ ∪ X``.  In the projection's enumeration a
    sink in ``X`` is therefore always trimmed away, and an attribute ``a``
    derived from ``X`` is trimmed to the same ``Y → a`` as from ``X``
    without its sinks.  The last occurrence of ``Y → a``, which fixes its
    place in the pool, is thus at ``X = X' ∪ (sinks − {a})`` for the last
    set ``X'`` of LHS attributes that trims to it: adding the same sinks
    to two sets keeps their (size, lexicographic) order.  So only the
    subsets of the LHS attributes are enumerated, each position is the
    enumeration rank of the full ``X`` (then ``a``, as the projection
    walks ``sorted(rhs)``), and the pool goes to :func:`minimum_cover`
    exactly as there.  The enumeration runs from the largest sets down and
    stops at the first size whose occurrences already imply ``fds``:
    redundancy removal drops every FD that the FDs after it imply, so
    nothing earlier in the pool can survive.  When every attribute has one
    minimal determining set (a cover without alternative keys) that is
    after the two largest sizes; in general it is exponential in the number
    of LHS attributes only, which for a propagated cover are key fields.
    """
    attrs = sorted(attr_set(attributes))
    pool = [coerce_fd(fd) for fd in fds]
    # Bits in sorted-name order, as the projection enumerates names.
    universe = AttributeUniverse(attrs)
    source = BitFDSet.from_fds(pool, universe)
    if len(universe) != len(attrs):
        raise ValueError("canonical_cover: the FDs mention attributes outside the relation")
    closure = source.closure_mask
    lhs_union = 0
    for fd in pool:
        lhs_union |= universe.mask(fd.lhs)
    width = len(attrs)
    keyed = [bit for bit in range(width) if lhs_union >> bit & 1]
    sink_mask = ((1 << width) - 1) & ~lhs_union
    sink_count = bin(sink_mask).count("1")

    def weight(mask: int) -> int:
        # Bit i weighs 2^(width-1-i): among equal-size sets, a heavier set
        # comes earlier in the projection's (lexicographic) enumeration.
        return int(format(mask, f"0{width}b")[::-1], 2) if width else 0

    # (trimmed LHS mask, RHS bit) → (size, -weight, RHS bit) of its last
    # occurrence, which orders like the projection's enumeration.
    last: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    for size in range(len(keyed), -1, -1):
        for combination in combinations(keyed, size):
            subset = 0
            for bit in combination:
                subset |= 1 << bit
            heaviest = weight(subset | sink_mask)
            for attribute in iter_bits(closure(subset) & ~subset):
                probe = 1 << attribute
                lhs = subset
                for bit in combination:
                    smaller = lhs & ~(1 << bit)
                    if closure(smaller) & probe:
                        lhs = smaller
                if probe & sink_mask:
                    rank = (
                        size + sink_count - 1,
                        (1 << (width - 1 - attribute)) - heaviest,
                        attribute,
                    )
                else:
                    rank = (size + sink_count, -heaviest, attribute)
                if rank > last.get((lhs, attribute), ()):
                    last[lhs, attribute] = rank
        # Every occurrence of size ``size + sink_count`` or more is known
        # now (all of them after the last round).  Once those FDs imply
        # ``fds``, each earlier FD of the pool is implied by the FDs after
        # it and redundancy removal drops it whatever else it keeps, so the
        # rest of the enumeration is moot.
        floor = size + sink_count if size else 0
        suffix = sorted(
            (rank, key) for key, rank in last.items() if rank[0] >= floor
        )
        covering = BitFDSet(universe)
        for _, (lhs, attribute) in suffix:
            covering.add(lhs, 1 << attribute)
        if all(covering.implies_mask(lhs, rhs) for lhs, rhs in source.masks()):
            break
    return minimum_cover(
        [
            FunctionalDependency(universe.names(lhs), (attrs[attribute],))
            for _, (lhs, attribute) in suffix
        ],
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
    name: str,
    attributes: Sequence[str],
    fds: Iterable[FDLike],
    fragment_fds: Optional[Callable[[FrozenSet[str]], List[FunctionalDependency]]] = None,
) -> List[RelationSchema]:
    """Lossless-join BCNF decomposition of ``name(attributes)`` under ``fds``.

    The classical recursive algorithm: pick a violating FD ``X → Y`` (with
    ``Y`` expanded to ``X+``), split into ``(X ∪ X+)`` and
    ``(attributes − (X+ − X))``, and recurse on each fragment's FDs.
    Sub-relation names are derived from the attribute that "leads" each
    fragment for readability; every produced schema carries its candidate
    keys.

    ``fragment_fds(fragment)`` supplies the FDs that hold on a candidate
    fragment; it is asked once per fragment.  The split is on the *first*
    violating FD, so their order decides the fragments.  The default is
    ``project_fds(fragment, fds)``, the exponential projection;
    :func:`repro.design.design_from_scratch` instead passes each
    fragment's cover propagated from the XML keys, presented by
    :func:`canonical_cover` in the projection's order.
    """
    if fragment_fds is None:
        pool = [coerce_fd(fd) for fd in fds]

        def fragment_fds(fragment: FrozenSet[str]) -> List[FunctionalDependency]:
            return project_fds(fragment, pool)

    memo: Dict[FrozenSet[str], List[FunctionalDependency]] = {}

    def local_fds(fragment: FrozenSet[str]) -> List[FunctionalDependency]:
        found = memo.get(fragment)
        if found is None:
            found = memo[fragment] = fragment_fds(fragment)
        return found

    fragments = _bcnf_recurse(tuple(attributes), local_fds)
    schemas: List[RelationSchema] = []
    for index, fragment in enumerate(fragments):
        keys = candidate_keys(fragment, local_fds(fragment))
        schema_name = f"{name}_{index + 1}" if len(fragments) > 1 else name
        schemas.append(RelationSchema(schema_name, sorted(fragment), keys=keys or [fragment]))
    return schemas


def _bcnf_recurse(
    attributes: Tuple[str, ...],
    local_fds: Callable[[FrozenSet[str]], List[FunctionalDependency]],
) -> List[FrozenSet[str]]:
    attrs = frozenset(attributes)
    fds = local_fds(attrs)
    local_closure = BitFDSet.from_fds(fds).closure
    for fd in fds:
        if fd.is_trivial:
            continue
        closure = local_closure(fd.lhs)
        if attrs <= closure:
            continue
        # Violation: split around fd.lhs.
        first = frozenset(fd.lhs | (closure & attrs))
        second = frozenset((attrs - (closure & attrs)) | fd.lhs)
        left = _bcnf_recurse(tuple(sorted(first)), local_fds)
        right = _bcnf_recurse(tuple(sorted(second)), local_fds)
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
