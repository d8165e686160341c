"""Table trees — the tree representation of table rules (Section 2, Fig. 3/4).

A table rule can be drawn as a node-labelled tree by treating ``//`` as a
special node label: each variable of the rule corresponds to a unique node,
intermediate labels of multi-step paths become anonymous nodes, and the edge
structure follows the variable mappings.  The propagation algorithms only
need the *variable-level* structure — parents, ancestor chains and the path
expression ``path(w, x)`` between two variables — which this class exposes,
plus rendering helpers that reproduce the figures of the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.transform.rule import TableRule
from repro.transform.validate import validate_rule
from repro.xmlmodel.paths import PathExpression, PathStep, encode_steps, join_codes

#: A path as step codes (see :func:`repro.xmlmodel.paths.encode_steps`).
Codes = Tuple[int, ...]


class TableTree:
    """Variable-level view of a table rule's table tree."""

    def __init__(self, rule: TableRule, validate: bool = True) -> None:
        if validate:
            validate_rule(rule).raise_if_invalid()
        self.rule = rule
        self.root = rule.root_variable
        self._parent: Dict[str, Optional[str]] = {self.root: None}
        self._path_from_parent: Dict[str, PathExpression] = {self.root: PathExpression.epsilon()}
        self._children: Dict[str, List[str]] = {self.root: []}
        for mapping in rule.mappings:
            self._parent[mapping.variable] = mapping.source
            self._path_from_parent[mapping.variable] = mapping.path
            self._children.setdefault(mapping.source, []).append(mapping.variable)
            self._children.setdefault(mapping.variable, [])
        # Traversal memos: the propagation/cover oracle loops re-ask for the
        # same ancestor chains and variable-to-variable paths once per FD or
        # per (ancestor, variable) pair; the tree is immutable after
        # construction, so the answers are computed once.
        self._ancestors_cache: Dict[Tuple[str, bool], Tuple[str, ...]] = {}
        self._path_cache: Dict[Tuple[str, str], PathExpression] = {}
        # The same paths as step codes, for the code table last asked about.
        self._code_table: Optional[Dict[PathStep, int]] = None
        self._segment_codes: Dict[str, Codes] = {}
        self._codes_cache: Dict[Tuple[str, str], Codes] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def variables(self) -> List[str]:
        return list(self._parent)

    def parent(self, variable: str) -> Optional[str]:
        """The parent variable (``None`` for the root)."""
        self._check(variable)
        return self._parent[variable]

    def children(self, variable: str) -> List[str]:
        self._check(variable)
        return list(self._children.get(variable, []))

    def path_from_parent(self, variable: str) -> PathExpression:
        self._check(variable)
        return self._path_from_parent[variable]

    def ancestors(self, variable: str, include_self: bool = False) -> List[str]:
        """Ancestor chain from the root variable down to ``variable``.

        Lines 1–5 of Algorithm ``propagation`` build exactly this list.
        The chain is memoised; a fresh list is returned so callers may
        mutate the result freely.
        """
        self._check(variable)
        cache_key = (variable, include_self)
        chain = self._ancestors_cache.get(cache_key)
        if chain is None:
            collected: List[str] = [variable] if include_self else []
            current = self._parent[variable]
            while current is not None:
                collected.append(current)
                current = self._parent[current]
            collected.reverse()
            chain = tuple(collected)
            self._ancestors_cache[cache_key] = chain
        return list(chain)

    def is_ancestor(self, ancestor: str, descendant: str, strict: bool = False) -> bool:
        self._check(ancestor)
        self._check(descendant)
        if ancestor == descendant:
            return not strict
        return ancestor in self.ancestors(descendant)

    def descendants(self, variable: str, include_self: bool = False) -> List[str]:
        self._check(variable)
        result: List[str] = [variable] if include_self else []
        frontier = deque(self._children.get(variable, []))
        while frontier:
            current = frontier.popleft()
            result.append(current)
            frontier.extend(self._children.get(current, []))
        return result

    def path_between(self, ancestor: str, descendant: str) -> PathExpression:
        """The path expression ``path(ancestor, descendant)`` of the paper.

        Defined only when ``ancestor`` is an ancestor-or-self of
        ``descendant``; raises ``ValueError`` otherwise.

        Walks up from ``descendant`` to the nearest variable whose path from
        ``ancestor`` is already known and extends that path by the mapping
        segments below it, building one expression: the path to ``y`` is
        the cached path to ``parent(y)`` plus one segment whenever the
        parent was asked first.  The walk is a loop, so a rule thousands of
        variables deep needs no recursion.  The oracle loops ask
        :meth:`codes_between` instead; this serves universal-relation
        merging and trace text.
        """
        self._check(ancestor)
        self._check(descendant)
        cache_key = (ancestor, descendant)
        cached = self._path_cache.get(cache_key)
        if cached is not None:
            return cached
        segments: List[PathExpression] = []
        current: Optional[str] = descendant
        while current != ancestor:
            if current is None:
                raise ValueError(f"{ancestor!r} is not an ancestor of {descendant!r}")
            segments.append(self._path_from_parent[current])
            current = self._parent[current]
            base = self._path_cache.get((ancestor, current))
            if base is not None:
                break
        else:
            base = PathExpression.epsilon()
        steps = list(base.steps)
        for segment in reversed(segments):
            steps.extend(segment.steps)
        result = PathExpression(steps)
        self._path_cache[cache_key] = result
        return result

    def path_from_root(self, variable: str) -> PathExpression:
        return self.path_between(self.root, variable)

    def codes_between(
        self, ancestor: str, descendant: str, table: Dict[PathStep, int]
    ) -> Codes:
        """:meth:`path_between` as step codes under the code table ``table``.

        Equal to ``encode_steps(path_between(ancestor, descendant).steps,
        table)``, but no path is built: the codes to ``y`` are the codes to
        ``parent(y)`` joined (:func:`~repro.xmlmodel.paths.join_codes`) with
        the codes of ``y``'s mapping segment, each segment encoded once.  A
        ``//``-``//`` junction collapses at the join exactly as it does in
        the concatenated expression, which is why a relative tuple is never
        a slice of a root tuple.  The walk and the memo are those of
        :meth:`path_between`; the memo serves one code table at a time (an
        implication engine's ``code_table``) and is reset when another is
        passed.
        """
        self._check(ancestor)
        self._check(descendant)
        if table is not self._code_table:
            self._code_table = table
            self._segment_codes = {}
            self._codes_cache = {}
        cache_key = (ancestor, descendant)
        cached = self._codes_cache.get(cache_key)
        if cached is not None:
            return cached
        below: List[str] = []
        current: Optional[str] = descendant
        base: Optional[Codes] = None
        while current != ancestor:
            if current is None:
                raise ValueError(f"{ancestor!r} is not an ancestor of {descendant!r}")
            below.append(current)
            current = self._parent[current]
            base = self._codes_cache.get((ancestor, current))
            if base is not None:
                break
        codes: Codes = base or ()
        for variable in reversed(below):
            segment = self._segment_codes.get(variable)
            if segment is None:
                segment = self._segment_codes[variable] = encode_steps(
                    self._path_from_parent[variable].steps, table
                )
            codes = join_codes(codes, segment)
        self._codes_cache[cache_key] = codes
        return codes

    def codes_from_root(self, variable: str, table: Dict[PathStep, int]) -> Codes:
        """:meth:`path_from_root` as step codes (see :meth:`codes_between`)."""
        return self.codes_between(self.root, variable, table)

    # ------------------------------------------------------------------
    # Fields and attributes
    # ------------------------------------------------------------------
    def field_variable(self, field: str) -> str:
        return self.rule.field_variable(field)

    def fields(self) -> List[str]:
        return self.rule.field_names

    def attribute_fields(self, variable: str) -> Dict[str, str]:
        """Fields populated by an *attribute of* ``variable``.

        Returns a mapping ``attribute name → field name`` for every field
        rule ``A: value(y)`` where ``y ← variable/@a``.  This is the set
        ``β`` built in line 13 of Algorithm ``propagation``.
        """
        self._check(variable)
        result: Dict[str, str] = {}
        for child in self._children.get(variable, []):
            path = self._path_from_parent[child]
            if not path.is_attribute_step:
                continue
            attribute_name = path.steps[0].name or ""
            for field in self.rule.fields_of_variable(child):
                result[attribute_name] = field
        return result

    def fields_from_attributes_of(self, variable: str, fields: Iterable[str]) -> Dict[str, str]:
        """Restrict :meth:`attribute_fields` to a given set of fields."""
        wanted = set(fields)
        return {
            attribute: field
            for attribute, field in self.attribute_fields(variable).items()
            if field in wanted
        }

    # ------------------------------------------------------------------
    # Metrics / rendering
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Depth of the table tree counting intermediate label nodes."""
        deepest = 0
        for variable in self.variables:
            total = sum(
                self._path_from_parent[ancestor].length
                for ancestor in self.ancestors(variable, include_self=True)
            )
            deepest = max(deepest, total)
        return deepest

    @property
    def size(self) -> int:
        """Total number of steps over all mappings (the paper's ``|T_R|``)."""
        return sum(path.length for variable, path in self._path_from_parent.items())

    def render(self) -> str:
        """ASCII rendering of the table tree (variables and their paths)."""
        lines: List[str] = []

        def visit(variable: str, indent: int) -> None:
            path = self._path_from_parent[variable]
            label = "." if variable == self.root else path.text
            fields = self.rule.fields_of_variable(variable)
            suffix = f"  [{', '.join(fields)}]" if fields else ""
            lines.append("  " * indent + f"{label} ({variable}){suffix}")
            for child in self._children.get(variable, []):
                visit(child, indent + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _check(self, variable: str) -> None:
        if variable not in self._parent:
            raise KeyError(f"Rule({self.rule.relation}) has no variable {variable!r}")

    def __repr__(self) -> str:
        return f"TableTree({self.rule.relation!r}, variables={len(self._parent)})"
