"""Algorithm ``minimumCover`` — a minimum cover of all propagated FDs (Section 5).

Given a universal relation ``U`` defined by a single table rule and a set
``Σ`` of XML keys, compute a minimum cover of the functional dependencies on
``U`` propagated from ``Σ`` — in time polynomial in ``|Σ|`` and the size of
the table tree, in contrast with the inherently exponential problem of
covers for FDs embedded in a relational subschema [Gottlob 87].

Reconstruction of the algorithm (the pseudo-code pages of the ICDE scan are
partly unreadable; see DESIGN.md):

1. Traverse the table tree top-down.  For every variable ``v`` compute its
   *candidate transitive keys*: for each already-keyed ancestor ``u`` (the
   root is keyed by the empty set) and each key of ``Σ`` whose attribute set
   ``S`` is available as attributes of ``v`` defining ``U`` fields, ask the
   implication oracle whether ``(path(root,u), (path(u,v), S))`` holds; if
   so, ``rep(u) ∪ fields(S)`` is a candidate key of ``v``.  One candidate is
   chosen as the *representative* ``rep(v)`` (deeper nodes only build on
   representatives — this is what keeps the algorithm polynomial, exactly as
   in the paper).
2. For every candidate key ``C`` of ``v`` and every field ``A`` of ``U``
   whose defining node ``y`` lies below ``v`` and is *unique under* ``v``
   (``Σ ⊨ (path(root,v), (path(v,y), {}))``), emit ``C → A``.  Emitting the
   FDs of every candidate — not only the representative — realises the
   paper's requirement that alternative keys of the same node be made
   equivalent in the generated set.
3. Minimise the generated set with the relational ``minimize`` routine
   (extraneous attributes, then redundant FDs).

The FDs produced are the propagated FDs under the *identification* semantics
(condition (2) of Section 3); the additional null/existence condition (1) is
not closed under Armstrong's axioms, so it is checked separately — either by
Algorithm ``propagation`` for a specific FD, or by passing
``require_existence=True`` here to filter the generated FDs before
minimisation (see DESIGN.md for the discussion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.keys.implication import ImplicationEngine
from repro.keys.key import XMLKey
from repro.relational.bitset import BitFDSet
from repro.relational.fd import FDLike, FunctionalDependency, _resolve_engine, coerce_fd, implies_fd, minimize
from repro.transform.rule import TableRule
from repro.transform.table_tree import TableTree
from repro.transform.universal import UniversalRelation
from repro.core.propagation import attribute_field_pairs


@dataclass
class CandidateKey:
    """A transitive key of a table-tree node, as a set of ``U`` fields."""

    variable: str
    fields: FrozenSet[str]
    via_ancestor: str
    key_attributes: FrozenSet[str]

    def __repr__(self) -> str:
        return f"CandidateKey({self.variable}: {sorted(self.fields)})"


@dataclass
class MinimumCoverResult:
    """Minimum cover plus the intermediate artefacts (useful for reporting)."""

    cover: List[FunctionalDependency]
    generated: List[FunctionalDependency]
    candidate_keys: Dict[str, List[CandidateKey]]
    representative: Dict[str, FrozenSet[str]]
    implication_queries: int = 0
    _fast_pool: Optional[BitFDSet] = field(
        default=None, repr=False, compare=False
    )
    _fast_pool_cover: Optional[List[FunctionalDependency]] = field(
        default=None, repr=False, compare=False
    )

    def __iter__(self):
        return iter(self.cover)

    def __len__(self) -> int:
        return len(self.cover)

    def implies(self, fd: FDLike, engine: Optional[str] = None) -> bool:
        """Does the cover imply ``fd``?  Amortised across repeated checks.

        ``GminimumCover`` tests many FDs against one cover; the bitset
        engine interns the cover once and answers each test with a single
        counter closure instead of rebuilding the pool per query.  The
        interned pool is rebuilt if ``cover`` has been mutated since, so
        both engines always answer from the current list.
        """
        candidate = coerce_fd(fd)
        if _resolve_engine(engine) == "bitset":
            if self._fast_pool is None or self._fast_pool_cover != self.cover:
                self._fast_pool = BitFDSet.from_fds(self.cover)
                self._fast_pool_cover = list(self.cover)
            return self._fast_pool.implies(candidate)
        return implies_fd(self.cover, candidate, engine=engine)

    def describe(self) -> str:
        return "\n".join(str(fd) for fd in self.cover)


def minimum_cover_from_keys(
    keys: Iterable[XMLKey],
    universal: "TableRule | UniversalRelation",
    engine: Optional[ImplicationEngine] = None,
    require_existence: bool = False,
    fd_engine: Optional[str] = None,
    table_tree: Optional[TableTree] = None,
) -> MinimumCoverResult:
    """Compute a minimum cover for the FDs on ``U`` propagated from ``keys``.

    A pre-built ``engine`` must be over the same key set as ``keys``: both
    the implication queries and the memoised existence tests are answered
    from the engine's keys.  Phases 1 and 2 share that single engine (and a
    single ``table_tree``, which may likewise be passed in prebuilt), so
    every oracle verdict of Phase 1 is a warm memo hit when Phase 2
    re-probes it.

    ``fd_engine`` selects the relational FD engine used for the Phase 3
    minimisation (``"bitset"`` / ``"frozenset"``; defaults to the global
    ``REPRO_FD_ENGINE`` setting).
    """
    if isinstance(universal, UniversalRelation):
        rule = universal.rule
        if table_tree is None:
            # The universal relation already carries a validated, memo-warm
            # tree for this rule; reuse it instead of rebuilding.
            table_tree = universal.table_tree
    else:
        rule = universal
    key_list = list(keys)
    if engine is None:
        engine = ImplicationEngine(key_list)
    elif not engine.covers_keys(key_list):
        raise ValueError(
            "the supplied ImplicationEngine is built over a different key set "
            "than `keys`; implication and existence answers would disagree"
        )
    if table_tree is None:
        table_tree = TableTree(rule)
    elif table_tree.rule is not rule:
        raise ValueError(
            "the supplied TableTree is built over a different rule than the "
            "universal relation's; paths and ancestor chains would disagree"
        )
    root = table_tree.root
    queries_before = engine.query_count

    # ------------------------------------------------------------------
    # Phase 1: candidate transitive keys, top-down.
    # ------------------------------------------------------------------
    representative: Dict[str, FrozenSet[str]] = {root: frozenset()}
    candidates: Dict[str, List[CandidateKey]] = {
        root: [CandidateKey(root, frozenset(), root, frozenset())]
    }
    order = _parent_first(table_tree)
    for variable in order:
        if variable == root:
            continue
        available = table_tree.attribute_fields(variable)
        if not available:
            # Only keys with attributes are tried below, and none can apply
            # to a variable without attribute fields (every leaf variable).
            continue
        available_attributes = frozenset(available)
        found: List[CandidateKey] = []
        seen_field_sets: Set[FrozenSet[str]] = set()
        for ancestor in table_tree.ancestors(variable):
            if ancestor not in representative:
                continue
            ancestor_path = table_tree.path_from_root(ancestor)
            relative_path = table_tree.path_between(ancestor, variable)
            for key in key_list:
                if not key.attributes:
                    continue
                if not key.attributes <= available_attributes:
                    continue
                if not engine.implies_parts(ancestor_path, relative_path, key.attributes):
                    continue
                fields = representative[ancestor] | {
                    available[attribute] for attribute in key.attributes
                }
                if fields in seen_field_sets:
                    continue
                seen_field_sets.add(fields)
                found.append(
                    CandidateKey(
                        variable=variable,
                        fields=frozenset(fields),
                        via_ancestor=ancestor,
                        key_attributes=key.attributes,
                    )
                )
        if found:
            candidates[variable] = found
            # Prefer the candidate with the fewest fields (ties: stable order)
            # as the representative that deeper nodes will build on.
            representative[variable] = min(found, key=lambda c: (len(c.fields), sorted(c.fields))).fields

    # ------------------------------------------------------------------
    # Phase 2: FD generation at every keyed node.
    # ------------------------------------------------------------------
    generated: List[FunctionalDependency] = []
    seen_fds: Set[FunctionalDependency] = set()

    def emit(lhs: FrozenSet[str], field_name: str) -> None:
        if field_name in lhs:
            return
        fd = FunctionalDependency(lhs, {field_name})
        if fd in seen_fds:
            return
        if require_existence and not _existence_holds(
            engine, table_tree, lhs, rule.field_variable(field_name)
        ):
            return
        seen_fds.add(fd)
        generated.append(fd)

    for field_name in rule.field_names:
        y_variable = rule.field_variable(field_name)
        for ancestor in table_tree.ancestors(y_variable):
            if ancestor not in candidates:
                continue
            ancestor_path = table_tree.path_from_root(ancestor)
            unique_path = table_tree.path_between(ancestor, y_variable)
            if not engine.implies_parts(ancestor_path, unique_path, ()):
                continue
            for candidate in candidates[ancestor]:
                emit(candidate.fields, field_name)

    # Fields populated from the very same node are pairwise equal in every
    # instance (this happens when table rules are merged into a universal
    # relation, e.g. book.isbn and chapter.inBook in Example 2.4), so the
    # corresponding equivalence FDs are always propagated.
    for variable in table_tree.variables:
        same_node_fields = rule.fields_of_variable(variable)
        if len(same_node_fields) < 2:
            continue
        for first in same_node_fields:
            for second in same_node_fields:
                if first != second:
                    emit(frozenset({first}), second)

    # Alternative keys of the same node must be pairwise equivalent in the
    # generated set (the paper's requirement for keeping a single
    # representative): for every candidate of a node, emit FDs deriving the
    # fields of every other candidate of that node.
    for variable, node_candidates in candidates.items():
        if len(node_candidates) < 2:
            continue
        field_pool: Set[str] = set()
        for candidate in node_candidates:
            field_pool |= candidate.fields
        for candidate in node_candidates:
            for other_field in sorted(field_pool - candidate.fields):
                emit(candidate.fields, other_field)

    # ------------------------------------------------------------------
    # Phase 3: relational minimisation.
    # ------------------------------------------------------------------
    cover = minimize(generated, engine=fd_engine)
    registry = obs.metrics()
    registry.inc("cover.implication_queries", engine.query_count - queries_before)
    registry.inc("cover.generated_fds", len(generated))
    registry.inc("cover.fds", len(cover))
    return MinimumCoverResult(
        cover=cover,
        generated=generated,
        candidate_keys=candidates,
        representative=representative,
        implication_queries=engine.query_count,
    )


def _existence_holds(
    engine: ImplicationEngine,
    table_tree: TableTree,
    lhs_fields: FrozenSet[str],
    y_variable: str,
) -> bool:
    """Condition (1) of the FD semantics for ``lhs_fields → value(y)``."""
    missing: Set[str] = set(lhs_fields)
    for ancestor in table_tree.ancestors(y_variable, include_self=True):
        if not missing:
            return True
        pairs = attribute_field_pairs(table_tree, ancestor, missing)
        if not pairs:
            continue
        if engine.attributes_exist(
            table_tree.path_from_root(ancestor), {attribute for attribute, _ in pairs}
        ):
            missing -= {field_name for _, field_name in pairs}
    return not missing


def _parent_first(table_tree: TableTree) -> List[str]:
    order: List[str] = []
    frontier = deque([table_tree.root])
    while frontier:
        current = frontier.popleft()
        order.append(current)
        frontier.extend(table_tree.children(current))
    return order
