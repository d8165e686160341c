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

Every rule is applied to *step codes*, not to path objects: the engine
encodes each path it is asked about as a tuple of small integers
(:func:`repro.xmlmodel.paths.encode_steps`, ``//`` = 0) against one code
table that lives as long as the engine, and attribute sets as bit masks.
Splitting a target is a tuple slice, ``context/prefix`` a tuple ``+``, and
containment the code-level dynamic program
:func:`~repro.xmlmodel.paths.contains_codes`; a query builds no
``PathExpression`` and no ``XMLKey``.  The table-tree algorithms
(propagation, ``minimumCover``) hand over code tuples directly through
:meth:`ImplicationEngine.implies_codes` and
:meth:`ImplicationEngine.exist_codes`, encoded under the engine's
``code_table``; :meth:`ImplicationEngine.implies_parts` is the thin
encode-and-delegate wrapper for callers holding paths.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.keys.key import AttrLike, XMLKey, _normalise_attributes
from repro.relational.bitset import AttributeUniverse
from repro.xmlmodel.paths import (
    PathExpression,
    PathLike,
    PathStep,
    contains,
    contains_codes,
    encode_steps,
    join_codes,
)

#: A path as step codes (``//`` = 0, element labels > 0, attributes < 0).
_Codes = Tuple[int, ...]

#: One query ``(context codes, target codes, attribute mask)``.
_Query = Tuple[_Codes, _Codes, int]

#: One target-to-context variant of a key of ``Σ`` as the candidate scan
#: reads it: ``(variant target, attribute mask, first code, last code)``,
#: where the first/last code is 0 unless that step of the target is
#: concrete.  The variant's context only decides candidacy.
_Candidate = Tuple[_Codes, int, int, int]


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
    variants (splits of the target path) as code tuples, and answers
    queries :meth:`implies` with memoisation — the same queries recur many
    times in Algorithm ``minimumCover``.

    Variant probing is indexed twice.  A variant whose context ends with a
    concrete step can only cover a query context ending with that same
    step, so the variants are filed by the last concrete step of their
    context, and a query context is tested only against its own file plus
    the variants whose context ends with ``//`` (or is empty); the
    survivors of ``contains(variant context, context)`` are hoisted into a
    per-context candidate list.  A candidate can then only cover a query
    target whose first/last concrete steps match the variant target's (a
    covering path that starts or ends with a concrete label forces every
    covered word to do the same).  The linear scan this replaced is the
    reference engine of the differential tests and oracle benchmarks,
    ``tests/keys/implication_reference.py``.

    The prefix-uniqueness rule recurses once per target step; it runs on
    an explicit stack, so a target thousands of steps deep needs no
    interpreter recursion.  Every memo is bounded (the ``*_LIMIT``
    attributes).  The query memo is cleared once full, which cannot change
    a verdict: every sub-query of the rule has a strictly shorter target
    than its parent, so no derivation ever reads an unfinished entry and
    each verdict depends on its query alone.
    """

    #: Bound on memoised query verdicts; the memo is cleared once full.
    QUERY_CACHE_LIMIT = 1 << 16

    #: Bound on memoised ``exist`` verdicts; enumeration-style callers can
    #: probe arbitrarily many distinct (path, attribute-set) pairs over an
    #: engine's lifetime, and entries past this bound are simply recomputed.
    EXIST_CACHE_LIMIT = 4096

    #: Bound on hoisted per-context candidate lists.  Propagation and cover
    #: workloads query a handful of contexts (one per table-tree variable);
    #: past the bound the context-filtered list is recomputed per query.
    CONTEXT_CACHE_LIMIT = 1024

    #: Bound on memoised code-level containment verdicts.
    CONTAINMENT_CACHE_LIMIT = 1 << 16

    def __init__(self, keys: Iterable[XMLKey]) -> None:
        self.keys: Tuple[XMLKey, ...] = tuple(keys)
        self._key_set: FrozenSet[XMLKey] = frozenset(self.keys)
        # Attribute-name sets recur constantly in `_derive` (one subset test
        # per variant per query); interning them to bit masks via a shared
        # universe turns those tests into single integer operations.
        self._universe = AttributeUniverse()
        self._step_codes: Dict[PathStep, int] = {}
        # Variants in Σ order, filed by the last concrete step of their
        # context (0: the context is empty or ends with '//').  A variant
        # with an empty target can never cover the non-empty targets that
        # reach the scan, so it is not filed at all.
        self._variant_contexts: List[_Codes] = []
        self._variants: List[_Candidate] = []
        self._by_context_last: Dict[int, List[int]] = {}
        for key in self.keys:
            mask = self._universe.mask(key.attributes)
            context = self._encode(key.context)
            target = self._encode(key.target)
            for cut in range(len(target)):
                variant_context = join_codes(context, target[:cut])
                variant_target = target[cut:]
                context_last = variant_context[-1] if variant_context else 0
                self._by_context_last.setdefault(context_last, []).append(
                    len(self._variants)
                )
                self._variant_contexts.append(variant_context)
                self._variants.append(
                    (variant_target, mask, variant_target[0], variant_target[-1])
                )
        # The ``exist`` scan only ever looks at keys carrying attributes and
        # only needs their scope; precompute that projection once.
        self._exist_keys: Tuple[Tuple[_Codes, int], ...] = tuple(
            (self._encode(key.context_target), self._universe.mask(key.attributes))
            for key in self.keys
            if key.attributes
        )
        self._cache: Dict[_Query, bool] = {}
        self._exist_cache: Dict[Tuple[_Codes, int], bool] = {}
        self._context_candidates: Dict[_Codes, Tuple[_Candidate, ...]] = {}
        self._containment_cache: Dict[Tuple[_Codes, _Codes], bool] = {}
        self.query_count = 0

    def covers_keys(self, keys: Iterable[XMLKey]) -> bool:
        """Is this engine built over exactly the given key set?"""
        return self._key_set == frozenset(keys)

    # ------------------------------------------------------------------
    def implies(self, query: XMLKey) -> bool:
        """Decide (soundly) whether ``Σ ⊨ query``."""
        return self.implies_parts(query.context, query.target, query.attributes)

    def implies_parts(
        self, context: PathLike, target: PathLike, attributes: AttrLike = ()
    ) -> bool:
        """Decide ``Σ ⊨ (context, (target, attributes))`` from its parts.

        Encodes the paths against :attr:`code_table` and asks
        :meth:`implies_codes`.
        """
        return self.implies_codes(
            self._encode(context), self._encode(target), self.attribute_mask(attributes)
        )

    def implies_codes(self, context: _Codes, target: _Codes, mask: int) -> bool:
        """Decide ``Σ ⊨ (context, (target, S))`` over step codes.

        ``context`` and ``target`` are code tuples under :attr:`code_table`
        (as :func:`~repro.xmlmodel.paths.encode_steps` writes them) and
        ``mask`` is :meth:`attribute_mask` of ``S``.  The table-tree loops
        of propagation and ``minimumCover`` build their code tuples once per
        variable and ask here, so no query builds or encodes a path.
        """
        self.query_count += 1
        query = (context, target, mask)
        verdict = self._cache.get(query)
        if verdict is None:
            verdict = self._open(query)
            if verdict is None:
                verdict = self._split(query)
        return verdict

    def attributes_exist(self, path: PathLike, attributes: Iterable[str]) -> bool:
        """Memoised ``exist`` test against this engine's key set.

        Algorithm ``propagation`` and both cover computations re-probe the
        same (path, attribute-set) pairs many times per run; the cache makes
        repeats O(1) dictionary hits.
        """
        return self.exist_codes(
            self._encode(path),
            self._universe.mask([name.lstrip("@") for name in attributes]),
        )

    def exist_codes(self, path: _Codes, wanted: int) -> bool:
        """:meth:`attributes_exist` over a code tuple and an attribute mask."""
        if not wanted:
            return True
        cache_key = (path, wanted)
        cached = self._exist_cache.get(cache_key)
        if cached is None:
            remaining = wanted
            for scope, attrs in self._exist_keys:
                if remaining & attrs and self._contains(scope, path):
                    remaining &= ~attrs
                    if not remaining:
                        break
            cached = not remaining
            if len(self._exist_cache) < self.EXIST_CACHE_LIMIT:
                self._exist_cache[cache_key] = cached
        return cached

    def attribute_mask(self, attributes: AttrLike) -> int:
        """The bit mask of an attribute set (``@`` prefixes ignored)."""
        return self._universe.mask(_normalise_attributes(attributes))

    @property
    def code_table(self) -> Dict[PathStep, int]:
        """The step-code table every code tuple of this engine refers to.

        It only grows: a step keeps its code for the engine's lifetime.
        """
        return self._step_codes

    # ------------------------------------------------------------------
    def _encode(self, path: PathLike) -> _Codes:
        return encode_steps(PathExpression.of(path).steps, self._step_codes)

    def _contains(self, covering: _Codes, covered: _Codes) -> bool:
        cache_key = (covering, covered)
        cached = self._containment_cache.get(cache_key)
        if cached is None:
            cached = contains_codes(covering, covered)
            if len(self._containment_cache) < self.CONTAINMENT_CACHE_LIMIT:
                self._containment_cache[cache_key] = cached
        return cached

    def _open(self, query: _Query) -> Optional[bool]:
        """Apply every rule but prefix uniqueness to an unmemoised query.

        Returns the verdict, or ``None`` when only splitting the target
        (at least two steps long) can still derive the query.
        """
        if len(self._cache) >= self.QUERY_CACHE_LIMIT:
            self._cache.clear()
        # Seed the cache to cut cycles introduced by the recursive
        # prefix-uniqueness rule; a cycle contributes no new derivation.
        self._cache[query] = False
        context, target, mask = query
        if self._derive(context, target, mask):
            self._cache[query] = True
            return True
        if len(target) < 2:
            return False
        return None

    def _split(self, query: _Query) -> bool:
        """Rule "prefix uniqueness" for a query :meth:`_open` left open.

        Every sub-query the rule reaches from ``(C, (T, S))`` is an
        interval ``[i, k)`` of ``T``: the query ``(C/T[:i], (T[i:k], S'))``
        with ``S' = S`` when ``k = len(T)`` and ``{}`` otherwise.  A frame
        ``[i, k, cut, on_suffix, query]`` tries the split of ``T[i:k]`` at
        ``cut``: first the prefix ``[i, cut)``, then, if that holds, the
        suffix ``[cut, k)``.  Splits are tried in order and a frame closes
        at the first split whose two halves hold, exactly as the recursive
        formulation short-circuits; an explicit stack replaces the
        recursion.  Interval verdicts of this call are also kept under the
        integer ``i * (len(T) + 1) + k``, so re-probing a prefix costs no
        tuple slice or hash, and a run of prefixes already known to fail is
        stepped over in one loop.
        """
        cache = self._cache
        context, target, mask = query
        length = len(target)
        width = length + 1
        known: Dict[int, bool] = {}
        contexts: Dict[int, _Codes] = {0: context}
        stack: List[list] = [[0, length, 1, False, query]]
        verdict: Optional[bool] = None
        while True:
            frame = stack[-1]
            begin, end, cut, on_suffix, frame_query = frame
            if verdict is None:
                # A fresh frame asks the prefix of its first split.
                start, stop = begin, cut
            elif verdict and not on_suffix:
                frame[3] = True
                start, stop = cut, end
            else:
                if not verdict:
                    row = begin * width
                    cut += 1
                    while cut < end and known.get(row + cut) is False:
                        cut += 1
                if verdict or cut == end:
                    stack.pop()
                    known[begin * width + end] = cache[frame_query] = verdict
                    if not stack:
                        return verdict
                    continue
                frame[2] = cut
                frame[3] = False
                start, stop = begin, cut
            slot = start * width + stop
            verdict = known.get(slot)
            if verdict is not None:
                continue
            sub_context = contexts.get(start)
            if sub_context is None:
                sub_context = contexts[start] = join_codes(context, target[:start])
            sub = (sub_context, target[start:stop], mask if stop == length else 0)
            verdict = cache.get(sub)
            if verdict is None:
                verdict = self._open(sub)
                if verdict is None:
                    stack.append([start, stop, start + 1, False, sub])
                    continue
            known[slot] = verdict

    def _derive(self, context: _Codes, target: _Codes, mask: int) -> bool:
        """Every rule but prefix uniqueness."""
        # Rule "epsilon": a subtree has exactly one root.
        if not target:
            return self.exist_codes(context, mask)
        # Rule "attribute uniqueness": at most one @a per element.
        if len(target) == 1 and target[0] < 0 and not mask:
            return True
        # Rules "target-to-context" + "containment" + "attribute weakening",
        # applied against every candidate variant of Σ.  A covering path
        # starting (ending) with a concrete step forces every covered word
        # — hence the covered expression's first (last) step — to be that
        # exact step; '//' covered steps can only be covered by '//' steps.
        first = target[0]
        last = target[-1]
        for variant_target, variant_mask, variant_first, variant_last in self._candidates(
            context
        ):
            if variant_mask & ~mask:
                continue
            if variant_first and variant_first != first:
                continue
            if variant_last and variant_last != last:
                continue
            if not self._contains(variant_target, target):
                continue
            extra = mask & ~variant_mask
            if extra and not self.exist_codes(join_codes(context, target), extra):
                continue
            return True
        return False

    def _candidates(self, context: _Codes) -> Tuple[_Candidate, ...]:
        """Variants whose context covers ``context``, hoisted per context.

        ``contains(variant_context, context)`` depends only on the query
        context, which the oracle loops re-probe for every ancestor pair of
        the table tree — one filtered tuple per distinct context answers
        all of them.
        """
        candidates = self._context_candidates.get(context)
        if candidates is None:
            indices = list(self._by_context_last.get(0, ()))
            last = context[-1] if context else 0
            if last:
                indices += self._by_context_last.get(last, ())
                indices.sort()
            candidates = tuple(
                self._variants[index]
                for index in indices
                if self._contains(self._variant_contexts[index], context)
            )
            if len(self._context_candidates) < self.CONTEXT_CACHE_LIMIT:
                self._context_candidates[context] = candidates
        return candidates


def implies(keys: Iterable[XMLKey], query: XMLKey) -> bool:
    """One-shot convenience wrapper around :class:`ImplicationEngine`."""
    return ImplicationEngine(keys).implies(query)
