"""Implication of XML keys: ``Σ ⊨ φ``.

Algorithm ``propagation`` (Fig. 5) and Algorithm ``minimumCover`` both reduce
to repeated calls of an ``implication`` oracle for the key class
:math:`K^@`.  The ICDE paper delegates the oracle to its companion technical
report; this module implements a *sound* inference engine built from the
rules the paper itself cites plus the standard structural rules of
[Buneman, Davidson, Fan, Hara, Tan — "Reasoning about keys for XML"]:

``epsilon``
    ``(C, (ε, {}))`` always holds — every subtree has a unique root.  When
    the queried key carries attributes, their existence on the context nodes
    must additionally be guaranteed by ``Σ`` (the ``exist`` test below).
``attribute uniqueness``
    ``(C, (@a, {}))`` always holds — an element has at most one attribute of
    a given name.
``target-to-context``
    from ``(C, (P1/P2, S))`` derive ``(C/P1, (P2, S))``.
``containment``
    from ``(C, (T, S))`` derive ``(C', (T', S))`` whenever ``C' ⊆ C`` and
    ``T' ⊆ T`` (languages of path expressions).
``attribute weakening``
    from ``(C, (T, S))`` derive ``(C, (T, S ∪ S'))`` provided every attribute
    of ``S'`` is guaranteed (by some key of ``Σ``) to exist on all ``C/T``
    nodes — agreeing on a superset implies agreeing on ``S``.
``prefix uniqueness``
    from ``(C, (T1, {}))`` and ``(C/T1, (T2, S))`` derive ``(C, (T1/T2, S))``
    — if each context has at most one ``T1`` node, identification below that
    node lifts to the context.

The engine is sound (every ``True`` answer is a genuine implication) and is
complete for the workloads of the paper — all worked examples and the
synthetic benchmark families exercise it end-to-end.  Incompleteness can
only make constraint propagation conservative, never incorrect.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.keys.key import XMLKey
from repro.relational.bitset import AttributeUniverse
from repro.xmlmodel.paths import (
    PathExpression,
    PathLike,
    PathStep,
    StepKind,
    concat,
    contains,
)

#: One precomputed target-to-context variant of a key of ``Σ``:
#: ``(variant context, variant target, attribute mask, first/last concrete
#: step of the variant target or None)``.  The first/last steps drive the
#: variant index of :meth:`ImplicationEngine._derive`.
_Variant = Tuple[PathExpression, PathExpression, int, Optional[PathStep], Optional[PathStep]]


def attributes_exist(
    keys: Iterable[XMLKey], path: PathLike, attributes: Iterable[str]
) -> bool:
    """The ``exist`` test of Fig. 5.

    Returns ``True`` iff for every document satisfying ``keys``, every node
    reachable from the root by ``path`` carries each attribute of
    ``attributes``.  By the key semantics (Def. 2.1, condition 1), a key
    ``(Q, (Q', S))`` forces every ``Q/Q'`` node to carry all attributes of
    ``S``; so an attribute is guaranteed to exist on ``path`` nodes whenever
    ``path ⊆ Q/Q'`` for such a key.
    """
    remaining: Set[str] = {name.lstrip("@") for name in attributes}
    if not remaining:
        return True
    path_expr = PathExpression.of(path)
    for key in keys:
        if not key.attributes:
            continue
        if contains(key.context_target, path_expr):
            remaining -= key.attributes
            if not remaining:
                return True
    return not remaining


class ImplicationEngine:
    """Memoising implication checker for a fixed key set ``Σ``.

    The engine pre-computes, for every key of ``Σ``, all target-to-context
    variants (splits of the target path), and answers queries
    :meth:`implies` with memoisation — the same queries recur many times in
    Algorithm ``minimumCover``.

    Variant probing is indexed: a variant can only cover a query
    target whose first/last concrete steps match the variant target's (a
    covering path that starts or ends with a concrete label forces every
    covered word to do the same), and ``contains(variant_context, context)``
    only depends on the query *context*, so its verdicts are hoisted into a
    per-context candidate list.  Together the two prune most variants
    without a single containment call.  The linear scan this replaced is
    the reference engine of the differential tests and oracle benchmarks,
    ``tests/keys/implication_reference.py``.
    """

    def __init__(self, keys: Iterable[XMLKey]) -> None:
        self.keys: Tuple[XMLKey, ...] = tuple(keys)
        self._key_set: FrozenSet[XMLKey] = frozenset(self.keys)
        # Attribute-name sets recur constantly in `_derive` (one subset test
        # per variant per query); interning them to bit masks via a shared
        # universe turns those tests into single integer operations.
        self._universe = AttributeUniverse()
        self._variants: List[_Variant] = []
        for key in self.keys:
            attrs_mask = self._universe.mask(key.attributes)
            for prefix, suffix in key.target.prefixes():
                steps = suffix.steps
                first = steps[0] if steps and steps[0].kind is not StepKind.DESCENDANT else None
                last = steps[-1] if steps and steps[-1].kind is not StepKind.DESCENDANT else None
                self._variants.append(
                    (concat(key.context, prefix), suffix, attrs_mask, first, last)
                )
        # The ``exist`` scan only ever looks at keys carrying attributes and
        # only needs their scope; precompute that projection once.
        self._exist_keys: Tuple[Tuple[PathExpression, FrozenSet[str]], ...] = tuple(
            (key.context_target, key.attributes) for key in self.keys if key.attributes
        )
        self._cache: Dict[
            Tuple[PathExpression, PathExpression, FrozenSet[str]], bool
        ] = {}
        self._exist_cache: Dict[Tuple[PathExpression, FrozenSet[str]], bool] = {}
        self._context_candidates: Dict[PathExpression, Tuple[_Variant, ...]] = {}
        self.query_count = 0

    #: Bound on memoised ``exist`` verdicts; enumeration-style callers can
    #: probe arbitrarily many distinct (path, attribute-set) pairs over an
    #: engine's lifetime, and entries past this bound are simply recomputed.
    EXIST_CACHE_LIMIT = 4096

    #: Bound on hoisted per-context candidate lists.  Propagation and cover
    #: workloads query a handful of contexts (one per table-tree variable);
    #: past the bound the context-filtered list is recomputed per query.
    CONTEXT_CACHE_LIMIT = 1024

    def covers_keys(self, keys: Iterable[XMLKey]) -> bool:
        """Is this engine built over exactly the given key set?"""
        return self._key_set == frozenset(keys)

    # ------------------------------------------------------------------
    def implies(self, query: XMLKey) -> bool:
        """Decide (soundly) whether ``Σ ⊨ query``."""
        self.query_count += 1
        return self._implies(query.context, query.target, query.attributes)

    def implies_parts(
        self, context: PathLike, target: PathLike, attributes: Iterable[str] = ()
    ) -> bool:
        """Convenience overload taking the three components of the key."""
        return self.implies(XMLKey(context, target, attributes))

    def attributes_exist(self, path: PathLike, attributes: Iterable[str]) -> bool:
        """Memoised ``exist`` test against this engine's key set.

        Algorithm ``propagation`` and both cover computations re-probe the
        same (path, attribute-set) pairs many times per run; the cache makes
        repeats O(1) dictionary hits.
        """
        wanted = frozenset(name.lstrip("@") for name in attributes)
        if not wanted:
            return True
        path_expr = PathExpression.of(path)
        cache_key = (path_expr, wanted)
        cached = self._exist_cache.get(cache_key)
        if cached is None:
            cached = self._exist_scan(path_expr, wanted)
            if len(self._exist_cache) < self.EXIST_CACHE_LIMIT:
                self._exist_cache[cache_key] = cached
        return cached

    def _exist_scan(self, path_expr: PathExpression, wanted: FrozenSet[str]) -> bool:
        """Uncached ``exist`` test over the precomputed keyed-scope list."""
        remaining = set(wanted)
        for scope, attrs in self._exist_keys:
            if contains(scope, path_expr):
                remaining -= attrs
                if not remaining:
                    return True
        return not remaining

    # ------------------------------------------------------------------
    def _implies(
        self,
        context: PathExpression,
        target: PathExpression,
        attributes: FrozenSet[str],
    ) -> bool:
        cache_key = (context, target, attributes)
        if cache_key in self._cache:
            return self._cache[cache_key]
        # Seed the cache to cut cycles introduced by the recursive
        # prefix-uniqueness rule; a cycle contributes no new derivation.
        self._cache[cache_key] = False
        result = self._derive(context, target, attributes)
        self._cache[cache_key] = result
        return result

    def _derive(
        self,
        context: PathExpression,
        target: PathExpression,
        attributes: FrozenSet[str],
    ) -> bool:
        # Rule "epsilon": a subtree has exactly one root.
        if target.is_epsilon:
            return self.attributes_exist(context, attributes)
        # Rule "attribute uniqueness": at most one @a per element.
        if target.is_attribute_step and not attributes:
            return True
        # Rules "target-to-context" + "containment" + "attribute weakening",
        # applied against every key of Σ.  Attribute sets are compared as
        # interned bit masks; query-only attribute names are interned on the
        # fly and can never occur in a variant mask.
        attributes_mask = self._universe.mask(attributes)
        scope = concat(context, target)
        steps = target.steps
        # A covering path starting (ending) with a concrete step forces
        # every covered word — hence the covered expression's first (last)
        # step — to be that exact step; '//' covered steps can only be
        # covered by '//' steps.  Steps are interned, so the comparisons
        # are identity tests.
        target_first = steps[0] if steps[0].kind is not StepKind.DESCENDANT else None
        target_last = steps[-1] if steps[-1].kind is not StepKind.DESCENDANT else None
        for _, variant_target, variant_attrs, first, last in self._candidates(context):
            if variant_attrs & ~attributes_mask:
                continue
            if first is not None and first is not target_first:
                continue
            if last is not None and last is not target_last:
                continue
            if not contains(variant_target, target):
                continue
            extra = attributes_mask & ~variant_attrs
            if extra and not self.attributes_exist(scope, self._universe.names(extra)):
                continue
            return True
        # Rule "prefix uniqueness": split the target at every step boundary.
        for prefix, suffix in target.prefixes():
            if prefix.is_epsilon or suffix.is_epsilon:
                continue
            if self._implies(context, prefix, frozenset()) and self._implies(
                concat(context, prefix), suffix, attributes
            ):
                return True
        return False

    def _candidates(self, context: PathExpression) -> Tuple[_Variant, ...]:
        """Variants whose context covers ``context``, hoisted per context.

        ``contains(variant_context, context)`` depends only on the query
        context, which the oracle loops re-probe for every ancestor pair of
        the table tree — one filtered tuple per distinct context answers
        all of them.
        """
        candidates = self._context_candidates.get(context)
        if candidates is None:
            candidates = tuple(
                variant for variant in self._variants if contains(variant[0], context)
            )
            if len(self._context_candidates) < self.CONTEXT_CACHE_LIMIT:
                self._context_candidates[context] = candidates
        return candidates


def implies(keys: Iterable[XMLKey], query: XMLKey) -> bool:
    """One-shot convenience wrapper around :class:`ImplicationEngine`."""
    return ImplicationEngine(keys).implies(query)
