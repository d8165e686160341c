"""Differential pinning of the one path automaton (:class:`PathNFA`).

The key checker, the streaming shredder's anchors and the static plan's
specialized tables all read element and attribute matches off the same
multi-path automaton.  This suite holds it directly to the DOM semantics
of :meth:`PathExpression.evaluate`: for random sets of paths over labels,
``@attribute`` steps and ``//`` — trailing ``//`` and attribute steps in
mid-path included, which no key or rule compiler generates — and random
attributed documents, stepping the automaton down from the root must, at
every element and for every slot, accept exactly the element and the
attribute nodes the slot's path reaches from the root.  A dead state must
have nothing reachable anywhere below it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.xmlmodel.builder import element
from repro.xmlmodel.matching import PathNFA

from tests.property.strategies import ATTRIBUTES, LABELS, path_expressions

pytestmark = pytest.mark.slow

NAMES = [name.lstrip("@") for name in ATTRIBUTES]


def elements(max_depth: int):
    attributes = st.dictionaries(st.sampled_from(NAMES), st.just("v"), max_size=len(NAMES))
    leaf = st.builds(element, st.sampled_from(LABELS), attributes)
    if max_depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.builds(
            lambda tag, attrs, children: element(tag, attrs, *children),
            st.sampled_from(LABELS),
            attributes,
            st.lists(elements(max_depth - 1), max_size=3),
        ),
    )


def subtree_nodes(node):
    """Ids of ``node``, its descendants and all their attribute nodes."""
    found = set()
    pending = [node]
    while pending:
        current = pending.pop()
        found.add(id(current))
        found.update(id(attr) for attr in current.attributes.values())
        pending.extend(current.child_elements())
    return found


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    paths=st.lists(path_expressions(max_size=6), min_size=1, max_size=5),
    root=elements(max_depth=4),
)
def test_every_state_agrees_with_evaluate(paths, root):
    nfa = PathNFA(paths)
    reached = [{id(node) for node in path.evaluate(root)} for path in paths]
    pending = [(root, nfa.initial)]
    while pending:
        node, state = pending.pop()
        attrs = state.attrs or {}
        for slot, hits in enumerate(reached):
            assert (slot in state.accepts) == (id(node) in hits)
            expected = {name for name, attr in node.attributes.items() if id(attr) in hits}
            completed = {name for name, slots in attrs.items() if slot in slots}
            assert completed & set(node.attributes) == expected
        if state.dead:
            below = subtree_nodes(node)
            assert not any(below & hits for hits in reached)
        for child in node.child_elements():
            following = nfa.move(state, child.tag)
            # Transitions are memoised on the parent and states interned.
            assert state.moves[child.tag] is following
            assert nfa.move(state, child.tag) is following
            pending.append((child, following))
