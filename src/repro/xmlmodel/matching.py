"""Incremental path matching over event streams.

The streaming data plane never materializes a document, so it cannot call
:meth:`PathExpression.evaluate`.  Instead, each path expression is compiled
into a tiny NFA over *label paths*: a state is the frozen set of step
indices reachable after consuming the labels from the anchor node down to
the current element, closed under the ``//`` self-match (descendant-or-self
includes the current node).  Advancing by one element label is a memoised
transition, so matching costs one dictionary hit per (open element, path)
regardless of how often the same shapes repeat — which on real documents is
always.

The semantics mirror :func:`repro.xmlmodel.paths._evaluate_steps` exactly:
``//`` traverses element nodes only, attribute steps consume an attribute of
the current element, and an attribute node absorbs trailing ``//`` steps
(its descendant-or-self set is itself).  The equivalence is pinned by the
differential suites in ``tests/property/``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.xmlmodel.paths import PathExpression, StepKind

State = FrozenSet[int]

#: Bound on the entries of one memo table.  Plans outlive a document (the
#: shredder caches them per rule), so a stream of ever-new tag names must
#: not grow them without limit; past the bound transitions are recomputed.
MEMO_LIMIT = 1 << 12


class PathNFA:
    """Incremental matcher for one path expression, anchored at a node.

    Use :attr:`initial` as the state of the anchor node itself, feed one
    :meth:`advance` per element step down the tree, and ask :meth:`matches`
    (element match) or :meth:`matches_attribute` (attribute match) at every
    node along the way.
    """

    __slots__ = (
        "steps",
        "length",
        "_transitions",
        "_attr_matches",
        "initial",
        "has_attribute_steps",
    )

    def __init__(self, path: PathExpression) -> None:
        self.steps = path.steps
        self.length = len(path.steps)
        self._transitions: Dict[Tuple[State, str], State] = {}
        self._attr_matches: Dict[Tuple[State, str], bool] = {}
        #: State of the anchor node (no steps consumed yet).
        self.initial: State = self._close({0})
        #: Whether the path can ever match an attribute node — consumers
        #: skip per-attribute matching entirely when it cannot.
        self.has_attribute_steps = any(
            step.kind is StepKind.ATTRIBUTE for step in self.steps
        )

    def _close(self, positions: set) -> State:
        # descendant-or-self: a ``//`` at position i also matches the current
        # node itself, making i+1 reachable without consuming a label.
        pending = list(positions)
        while pending:
            i = pending.pop()
            if i < self.length and self.steps[i].kind is StepKind.DESCENDANT:
                if i + 1 not in positions:
                    positions.add(i + 1)
                    pending.append(i + 1)
        return frozenset(positions)

    def advance(self, state: State, tag: str) -> State:
        """State of a child element labelled ``tag``."""
        key = (state, tag)
        cached = self._transitions.get(key)
        if cached is not None:
            return cached
        positions = set()
        steps = self.steps
        for i in state:
            if i >= self.length:
                continue
            step = steps[i]
            if step.kind is StepKind.DESCENDANT:
                positions.add(i)  # stay: the child is a further descendant
            elif step.kind is StepKind.LABEL and step.name == tag:
                positions.add(i + 1)
        result = self._close(positions)
        if len(self._transitions) < MEMO_LIMIT:
            self._transitions[key] = result
        return result

    def matches(self, state: State) -> bool:
        """Is the element in ``state`` a match for the whole path?"""
        return self.length in state

    def matches_attribute(self, state: State, name: str) -> bool:
        """Does attribute ``name`` of the element in ``state`` match?

        Consumes an attribute step; any remaining steps can only be ``//``
        (descendant-or-self of an attribute node is the node itself).
        Memoised per ``(state, name)`` exactly like :meth:`advance` — the
        same element shapes carry the same attribute names over and over.
        """
        key = (state, name)
        cached = self._attr_matches.get(key)
        if cached is not None:
            return cached
        result = False
        steps = self.steps
        for i in state:
            if i >= self.length:
                continue
            step = steps[i]
            if step.kind is StepKind.ATTRIBUTE and step.name == name:
                j = i + 1
                while j < self.length and steps[j].kind is StepKind.DESCENDANT:
                    j += 1
                if j == self.length:
                    result = True
                    break
        if len(self._attr_matches) < MEMO_LIMIT:
            self._attr_matches[key] = result
        return result

    def live(self, state: State) -> bool:
        """Can any extension of the current label path still match?"""
        return bool(state)
