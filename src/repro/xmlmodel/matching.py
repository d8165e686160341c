"""Incremental path matching over event streams.

The streaming data plane never materializes a document, so it cannot call
:meth:`PathExpression.evaluate`.  Instead, the paths a consumer cares about
are compiled together into one tiny NFA over *label paths*
(:class:`PathNFA`): slot ``i`` of the automaton is the ``i``-th path, and a
state is the set of ``(slot, step position)`` pairs reachable after
consuming the labels from the anchor node down to the current element,
closed under the ``//`` self-match (descendant-or-self includes the current
node).  States are interned :class:`NFAState` objects that carry
everything a consumer asks at an element — which slots accept it, which
attribute names complete which slots, whether anything can still match
below — and memoise their own child transitions, so stepping all paths
into a child element costs one dictionary hit regardless of how often the
same shapes repeat (which on real documents is always).

The key checker, the streaming shredder's anchors and the static plan's
specialized tables all step this one automaton.

The semantics mirror :func:`repro.xmlmodel.paths._evaluate_steps` exactly:
``//`` traverses element nodes only, attribute steps consume an attribute of
the current element, and an attribute node absorbs trailing ``//`` steps
(its descendant-or-self set is itself).  The equivalence is pinned by the
differential suites in ``tests/property/``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.xmlmodel.paths import PathExpression, StepKind

#: Bound on the memoised child transitions of one state.  Automata outlive
#: a document (the shredder caches them per rule), so a stream of ever-new
#: tag names must not grow them without limit; past the bound transitions
#: are recomputed.
MEMO_LIMIT = 1 << 12

_DESCENDANT = StepKind.DESCENDANT
_LABEL = StepKind.LABEL
_ATTRIBUTE = StepKind.ATTRIBUTE


class NFAState:
    """One interned state of a :class:`PathNFA` at an element."""

    __slots__ = ("items", "accepts", "dead", "attrs", "moves")

    def __init__(
        self,
        items: FrozenSet[Tuple[int, int]],
        accepts: Tuple[int, ...],
        attrs: Optional[Dict[str, Tuple[int, ...]]],
    ) -> None:
        #: The live ``(slot, position)`` pairs, closed under ``//``.
        self.items = items
        #: Slots whose whole path matches this element, ascending.
        self.accepts = accepts
        #: No pair is live: nothing matches here or anywhere below.
        self.dead = not items
        #: Attribute name → the slots an attribute of that name completes
        #: (ascending), or ``None`` when no slot can end in an attribute here.
        self.attrs = attrs
        #: Tag → the child element's state (memoised, at most MEMO_LIMIT).
        self.moves: Dict[str, "NFAState"] = {}


class PathNFA:
    """Incremental matcher for a sequence of paths, anchored at a node.

    Use :attr:`initial` as the state of the anchor node itself and
    :meth:`move` once per element step down the tree; every state answers
    element matches (:attr:`NFAState.accepts`) and attribute matches
    (:attr:`NFAState.attrs`) for all slots at once.
    """

    __slots__ = ("paths", "_steps", "_states", "initial")

    def __init__(self, paths: Sequence[PathExpression]) -> None:
        self.paths = tuple(paths)
        self._steps = [path.steps for path in self.paths]
        self._states: Dict[FrozenSet[Tuple[int, int]], NFAState] = {}
        #: State of the anchor node (no steps consumed yet).
        self.initial = self._state({(slot, 0) for slot in range(len(self.paths))})

    def _state(self, pairs: set) -> NFAState:
        """The interned state over ``pairs`` closed under ``//``."""
        # descendant-or-self: a ``//`` at position i also matches the current
        # node itself, making i+1 reachable without consuming a label.
        steps = self._steps
        pending = list(pairs)
        while pending:
            slot, pos = pending.pop()
            path = steps[slot]
            if pos < len(path) and path[pos].kind is _DESCENDANT:
                succ = (slot, pos + 1)
                if succ not in pairs:
                    pairs.add(succ)
                    pending.append(succ)
        items = frozenset(pairs)
        state = self._states.get(items)
        if state is None:
            # setdefault keeps interning exact when threads race here.
            state = self._states.setdefault(items, self._build(items))
        return state

    def _build(self, items: FrozenSet[Tuple[int, int]]) -> NFAState:
        steps = self._steps
        accepts = set()
        hits: Dict[str, set] = {}
        for slot, pos in items:
            path = steps[slot]
            length = len(path)
            if pos == length:
                accepts.add(slot)
                continue
            step = path[pos]
            if step.kind is _ATTRIBUTE:
                # Any remaining steps can only be ``//`` (descendant-or-self
                # of an attribute node is the node itself).
                after = pos + 1
                while after < length and path[after].kind is _DESCENDANT:
                    after += 1
                if after == length:
                    hits.setdefault(step.name, set()).add(slot)
        attrs = {name: tuple(sorted(slots)) for name, slots in hits.items()}
        return NFAState(items, tuple(sorted(accepts)), attrs or None)

    def move(self, state: NFAState, tag: str) -> NFAState:
        """State of a child element labelled ``tag``."""
        child = state.moves.get(tag)
        if child is not None:
            return child
        steps = self._steps
        pairs = set()
        for slot, pos in state.items:
            path = steps[slot]
            if pos < len(path):
                step = path[pos]
                if step.kind is _DESCENDANT:
                    pairs.add((slot, pos))  # stay: the child is a further descendant
                elif step.kind is _LABEL and step.name == tag:
                    pairs.add((slot, pos + 1))
        child = self._state(pairs)
        if len(state.moves) < MEMO_LIMIT:
            state.moves[tag] = child
        return child

    def memo_entries(self) -> int:
        """Memoised transitions across all states (at most MEMO_LIMIT each)."""
        return sum(len(state.moves) for state in self._states.values())
