"""Reference skip-set computation: full transition tables per path.

:func:`repro.xmlmodel.static.compile_plan` reads label safety straight off
each interesting path's interned :class:`~repro.xmlmodel.matching.PathNFA`
states.  This module keeps the computation it replaced: every path's
automaton is first tabulated over its finite label alphabet (the declared
labels, the labels the path mentions and one *other* column standing for
every label the alphabet lacks), states reduced to their step-position
sets, and the verdict loop then reads the table.
:func:`reference_skipset` returns the :class:`SkipSet` it derives, and the
differential suites compare the two on ``attempt``, ``verdicts`` and
``other_safe``.
"""

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.matching import NFAState, PathNFA
from repro.xmlmodel.paths import PathExpression, StepKind
from repro.xmlmodel.static import LabelGraph, SkipSet

#: A tabulated state: the step positions of a single-path automaton state.
State = FrozenSet[int]

#: The column taken by every label a table's alphabet does not mention.
OTHER_LABEL = "\x00other"


class PathTable:
    """A single-path :class:`PathNFA` stepped ahead of time over
    ``mentioned ∪ declared ∪ other``: the full transition table of the
    reachable state space and each state's attribute acceptance."""

    def __init__(self, path: PathExpression, dtd: Optional[DTD] = None) -> None:
        base = PathNFA([path])
        self.length = len(path.steps)

        mentioned = {step.name for step in path.steps if step.kind is StepKind.LABEL}
        declared = set(dtd.elements) if dtd is not None else set()
        self.alphabet: Tuple[str, ...] = tuple(sorted(mentioned | declared))

        def positions(node: NFAState) -> State:
            return frozenset(pos for _, pos in node.items)

        self.initial = positions(base.initial)
        table: Dict[Tuple[State, str], State] = {}
        attr_names: Dict[State, FrozenSet[str]] = {}
        seen = {base.initial}
        pending = [base.initial]
        columns = self.alphabet + (OTHER_LABEL,)
        while pending:
            node = pending.pop()
            state = positions(node)
            attr_names[state] = frozenset(node.attrs or ())
            for label in columns:
                succ = base.move(node, label)
                table[(state, label)] = positions(succ)
                if succ not in seen:
                    seen.add(succ)
                    pending.append(succ)
        self._table = table
        self._attr_names = attr_names
        self.states: FrozenSet[State] = frozenset(attr_names)

    def advance(self, state: State, tag: str) -> State:
        """Table-lookup transition; any unmentioned ``tag`` takes ``other``."""
        hit = self._table.get((state, tag))
        if hit is None:
            hit = self._table[(state, OTHER_LABEL)]
        return hit

    def accepts(self, state: State) -> bool:
        return self.length in state

    def can_accept_attribute(self, state: State) -> bool:
        return bool(self._attr_names[state])


def reference_skipset(dtd: DTD, keys=(), rules=()) -> SkipSet:
    """The skip set of ``(dtd, keys, rules)``, by table walk."""
    keys = list(keys)
    rule_list: List[object] = []
    for entry in rules:
        if hasattr(entry, "root_variable"):
            rule_list.append(entry)
        else:
            rule_list.extend(entry)

    graph = LabelGraph(dtd)

    paths: List[PathExpression] = []
    seen_paths: Set[PathExpression] = set()

    def add_path(path: PathExpression) -> None:
        if path not in seen_paths:
            seen_paths.add(path)
            paths.append(path)

    for key in keys:
        add_path(key.context)
        add_path(key.context_target)

    anchor_paths: List[PathExpression] = []
    rules_capture_elements = False
    for rule in rule_list:
        from repro.transform.table_tree import TableTree

        table_tree = TableTree(rule)
        root = rule.root_variable
        if rule.fields_of_variable(root):
            rules_capture_elements = True
        for variable in table_tree.children(root):
            path = table_tree.path_from_parent(variable)
            add_path(path)
            anchor_paths.append(path)

    tables = {path: PathTable(path, dtd) for path in paths}

    candidates: Set[str] = set(graph.labels)
    for spec in tables.values():
        candidates.update(spec.alphabet)
    verdicts: Dict[str, bool] = {label: True for label in candidates}
    other_safe = True

    for path in anchor_paths:
        spec = tables[path]
        for state in spec.states:
            for label in spec.alphabet:
                if spec.accepts(spec.advance(state, label)):
                    rules_capture_elements = True
            if spec.accepts(spec.advance(state, OTHER_LABEL)):
                rules_capture_elements = True
        if spec.accepts(spec.initial):
            rules_capture_elements = True

    for spec in tables.values():
        for state in spec.states:
            for label in spec.alphabet:
                succ = spec.advance(state, label)
                if spec.accepts(succ) or spec.can_accept_attribute(succ):
                    verdicts[label] = False
            succ = spec.advance(state, OTHER_LABEL)
            if spec.accepts(succ) or spec.can_accept_attribute(succ):
                other_safe = False

    if rules_capture_elements:
        return SkipSet.disabled()
    attempt = set()
    for label in graph.labels:
        if not verdicts.get(label, other_safe):
            continue
        if all(verdicts.get(inner, other_safe) for inner in graph.reachable(label)):
            attempt.add(label)
    return SkipSet(attempt, verdicts, other_safe)
