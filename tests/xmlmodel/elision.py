"""The pruning contract, checked on a pair of event streams.

A pruned stream (``iter_events(..., skip=...)``) must be the unpruned
stream with whole subtrees elided: each ``skip`` event, expanded back
into the unpruned subtree it stands for, spends exactly the node ids it
claims, and both streams stop at the same syntax error.
"""

from repro.xmlmodel.events import END, SKIP, START, Event
from repro.xmlmodel.parser import XMLSyntaxError


def drain(events):
    """The events up to the first syntax error, and that error."""
    seen = []
    try:
        for event in events:
            seen.append(event)
    except XMLSyntaxError as error:
        return seen, (error.message, error.position)
    return seen, None


def expand_skips(pruned, full):
    """``pruned`` with each SKIP event replaced by the subtree of ``full``
    it stands for, checking the subtree spends the ids the event claims."""
    expanded = []
    for event in pruned:
        if event.kind != SKIP:
            expanded.append(event)
            continue
        begin, depth = len(expanded), 0
        for inner in full[begin:]:
            expanded.append(inner)
            depth += (inner.kind == START) - (inner.kind == END)
            if not depth:
                break
        subtree = expanded[begin:]
        assert subtree and subtree[0] == Event(START, event.name)
        assert sum(inner.kind != END for inner in subtree) == event.value
    return expanded


def assert_elides_only(pruned, full):
    """Check the contract; return the pruned events."""
    (pruned, pruned_error), (full, full_error) = drain(pruned), drain(full)
    assert pruned_error == full_error
    assert expand_skips(pruned, full) == full
    return pruned
