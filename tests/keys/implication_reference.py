"""A linear-scan key-implication engine, kept as the reference oracle.

:class:`repro.keys.implication.ImplicationEngine` answers over integer
step codes: paths are code tuples, attribute sets bit masks, the variants
of ``Σ`` are filed by the last concrete step of their context and pruned
per query through a per-context candidate list and a first/last-step
index, and prefix uniqueness runs on an explicit stack.
:class:`LinearScanImplicationEngine` applies the same rules in the same
order without any of that: it works on ``PathExpression`` objects, every
query scans every variant, containment of both the context and the target
is tested per variant by the recursive procedure of
``tests/xmlmodel/containment_reference.py``, attribute sets stay
frozensets, and prefix uniqueness recurses.  The two must answer every
query stream identically; ``tests/property/test_oracle_differential.py``
and ``tests/property/test_engine_identity.py`` pin them and
``benchmarks/bench_oracle.py`` times them.

It offers the interface the core algorithms use (``implies``,
``implies_parts``, ``attributes_exist``, ``covers_keys``, ``query_count``),
so it can stand in for the library engine in ``check_propagation`` and
``minimum_cover_from_keys``.  Those ask over step codes (``code_table``,
``attribute_mask``, ``implies_codes``, ``exist_codes``); a thin adapter
decodes each code tuple back to a ``PathExpression`` and each mask to a
name set, so every answer still comes from the path-level rules below.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.keys.key import AttrLike, XMLKey, _normalise_attributes
from repro.relational.bitset import AttributeUniverse
from repro.xmlmodel.paths import PathExpression, PathLike, PathStep, concat

from tests.xmlmodel.containment_reference import reference_contains as contains

#: ``(variant context, variant target, key attributes)``.
_Variant = Tuple[PathExpression, PathExpression, FrozenSet[str]]


class LinearScanImplicationEngine:
    """Memoising implication checker for ``Σ`` with a linear variant scan."""

    def __init__(self, keys: Iterable[XMLKey]) -> None:
        self.keys: Tuple[XMLKey, ...] = tuple(keys)
        self._key_set: FrozenSet[XMLKey] = frozenset(self.keys)
        self._variants: List[_Variant] = [
            (concat(key.context, prefix), suffix, key.attributes)
            for key in self.keys
            for prefix, suffix in key.target.prefixes()
        ]
        self._cache: Dict[Tuple[PathExpression, PathExpression, FrozenSet[str]], bool] = {}
        self._exist_cache: Dict[Tuple[PathExpression, FrozenSet[str]], bool] = {}
        self.query_count = 0
        self.code_table: Dict[PathStep, int] = {}
        self._steps_by_code: Dict[int, PathStep] = {}
        self._universe = AttributeUniverse()

    def covers_keys(self, keys: Iterable[XMLKey]) -> bool:
        return self._key_set == frozenset(keys)

    def implies(self, query: XMLKey) -> bool:
        self.query_count += 1
        return self._implies(query.context, query.target, query.attributes)

    def implies_parts(
        self, context: PathLike, target: PathLike, attributes: Iterable[str] = ()
    ) -> bool:
        return self.implies(XMLKey(context, target, attributes))

    def attribute_mask(self, attributes: AttrLike) -> int:
        return self._universe.mask(_normalise_attributes(attributes))

    def implies_codes(self, context: Tuple[int, ...], target: Tuple[int, ...], mask: int) -> bool:
        return self.implies_parts(
            self._decode(context), self._decode(target), self._universe.names(mask)
        )

    def exist_codes(self, path: Tuple[int, ...], mask: int) -> bool:
        return self.attributes_exist(self._decode(path), self._universe.names(mask))

    def _decode(self, codes: Tuple[int, ...]) -> PathExpression:
        if len(self._steps_by_code) != len(self.code_table):
            self._steps_by_code = {code: step for step, code in self.code_table.items()}
        return PathExpression([self._steps_by_code[code] for code in codes])

    def attributes_exist(self, path: PathLike, attributes: Iterable[str]) -> bool:
        """The ``exist`` test of Fig. 5: every ``path`` node carries them."""
        wanted = frozenset(name.lstrip("@") for name in attributes)
        if not wanted:
            return True
        path_expr = PathExpression.of(path)
        cache_key = (path_expr, wanted)
        if cache_key not in self._exist_cache:
            remaining = set(wanted)
            for key in self.keys:
                if key.attributes and contains(key.context_target, path_expr):
                    remaining -= key.attributes
            self._exist_cache[cache_key] = not remaining
        return self._exist_cache[cache_key]

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
        # applied against every key of Σ.
        scope = concat(context, target)
        for variant_context, variant_target, variant_attrs in self._variants:
            if not variant_attrs <= attributes:
                continue
            if not contains(variant_context, context):
                continue
            if not contains(variant_target, target):
                continue
            extra = attributes - variant_attrs
            if extra and not self.attributes_exist(scope, extra):
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
