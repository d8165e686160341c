"""Streaming shredding: evaluating table rules over an event stream.

:func:`repro.transform.evaluate.evaluate_rule` materializes a full DOM and
then the *global* Cartesian product of variable bindings — fine for the
paper's worked examples, quadratic-and-worse in memory for data-scale
imports.  This module evaluates the same table rules over the event stream
of :mod:`repro.xmlmodel.events` instead, through one *binding plan* per
rule (:func:`compile_rule`), compiled once and shared by every streamer:

* the table tree's *anchor* variables (the children of the root variable —
  the only mappings allowed to use ``//``) are the slots of one
  :class:`~repro.xmlmodel.matching.PathNFA` per rule, stepped once per open
  element; its state names the anchors matching an element (or one of its
  attributes) and whether anything can still match below;
* below an anchor every mapping is a simple path, so the anchor's whole
  subtree of variables compiles into one binding automaton whose states
  are sets of ``(variable, step)`` pairs: one memoised transition per open
  element advances all of them at once.  A completed path appends a
  binding to the list its parent binding keeps for that variable — a small
  record for a non-leaf variable, the node's ``value()`` string for a leaf
  — and every open anchor match keeps its own bindings, so nested matches
  (``//a`` inside an ``a``) stay independent.  No document node is ever
  materialized;
* field variables are leaves of the table tree, so each bound node's
  ``value()`` string is built once, from the events, when the node closes
  (an attribute's when its element's attribute section closes, so the last
  duplicate wins, as in the DOM);
* rows are expanded per anchor match when it closes, in the DOM
  evaluator's variable order, and the paper's semantics — ``NULL`` for an
  empty binding set, an implicit product for multiple nodes (Example 2.5) —
  are preserved exactly: the final rows are the product of the per-anchor
  row blocks, which equals the DOM evaluator's bag tuple-for-tuple (pinned
  by ``tests/property/test_shred_differential.py``).

Rules with a single anchor (the common shape — ``Rule(chapter)``,
``Rule(section)``, the universal relation) emit their tuples incrementally,
as each anchor match closes; multi-anchor rules must buffer one row block
per anchor (values only) and emit the product at end of stream.  Peak
memory is therefore bounded by the bindings of the largest anchor match
plus the emitted values, not by the document.

Sharded execution (the parallel plane of :mod:`repro.parallel`)
---------------------------------------------------------------

Because every anchor match lives inside one top-level subtree of the root
(:mod:`repro.xmlmodel.shards`), per-rule state is *mergeable*: a
``RuleStreamer(rule, shard_mode=True)`` fed one shard's events accumulates
its per-anchor row blocks and binding counters into a
:class:`RuleShardResult` instead of emitting, and
:func:`merge_rule_shards` recombines any shard partition of the document —
concatenating the blocks in shard order and applying the NULL / implicit
product / deduplication semantics exactly once, globally — into the byte-
identical row list of the serial pass.  ``StreamShredder.run(jobs=N)``
dispatches the shards onto a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.relational.instance import NULL, RelationInstance, Value
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.transform.rule import TableRule, Transformation
from repro.transform.table_tree import TableTree
from repro.xmlmodel.events import (
    ATTR,
    END,
    SKIP,
    START,
    TEXT,
    Event,
    EventSource,
    as_events,
)
from repro.xmlmodel.matching import MEMO_LIMIT, NFAState, PathNFA
from repro.xmlmodel.paths import StepKind
from repro.xmlmodel.tree import compose_value

#: ``NULL`` → its stand-in in deduplication keys, exactly as ``Row`` freezes it.
_NULL_KEY = {NULL: "\0NULL\0"}


def _row_key(row: Dict[str, Value]) -> tuple:
    """Hashable identity of a row among the rows of one rule.

    Every row of one rule carries the same fields in the same insertion
    order, so the value tuple is a faithful — and much cheaper — stand-in
    for the sorted freeze of :class:`~repro.relational.instance.Row`.
    """
    values = row.values()
    return tuple(map(_NULL_KEY.get, values, values))


# ----------------------------------------------------------------------
# The compiled binding plan
# ----------------------------------------------------------------------
# A *binding* is what one variable is bound to inside one anchor match: for
# a leaf variable the node's value() string (leaves are the field
# variables), for a non-leaf variable a *record* — a list holding, per
# child variable, the list of that child's bindings (``None`` until the
# first).  A non-leaf variable bound to an attribute has no reachable
# children; its binding is the all-``None`` tuple, exactly like NULL's.
class _BindState:
    """A state of one anchor's combined binding automaton.

    ``items`` are the ``(variable index, steps consumed)`` pairs live at an
    element; the parallel list of parent bindings travels with the state
    in the open frame.  ``moves`` memoises the element transitions,
    ``attr_hits`` maps an attribute name to the paths it completes.
    """

    __slots__ = ("plan", "items", "moves", "attr_hits")

    def __init__(self, plan: "_AnchorPlan", items: Tuple[Tuple[int, int], ...]) -> None:
        self.plan = plan
        self.items = items
        #: tag → (next state or None, carried item indexes, completions)
        self.moves: Dict[str, tuple] = {}
        hits: Dict[str, List[tuple]] = {}
        for src, (index, done) in enumerate(items):
            var = plan.vars[index]
            step = var.steps[done]
            if step.kind is StepKind.ATTRIBUTE and done + 1 == len(var.steps):
                # A leaf binds the attribute's value, a non-leaf the empty
                # record (an attribute node has no children).
                hits.setdefault(step.name, []).append(
                    (src, var.pos, None if var.leaf else var.null)
                )
        self.attr_hits: Optional[Dict[str, tuple]] = (
            {name: tuple(found) for name, found in hits.items()} or None
        )

    def advance(self, tag: str) -> tuple:
        """The memoised transition into a child element labelled ``tag``.

        Returns ``(next state, carry, completions)``: ``carry`` lists, for
        each advanced pair of the next state, the index of the pair it came
        from (its parent binding is unchanged); each completion is ``(src,
        position in the parent record, record width, captures value)``.
        The next state's pairs are the advanced ones followed by the child
        variables of every completed non-leaf variable, in order.
        """
        move = self.moves.get(tag)
        if move is not None:
            return move
        plan = self.plan
        items: List[Tuple[int, int]] = []
        carry: List[int] = []
        completions: List[tuple] = []
        spawned: List[Tuple[int, int]] = []
        for src, (index, done) in enumerate(self.items):
            var = plan.vars[index]
            step = var.steps[done]
            if step.kind is not StepKind.LABEL or step.name != tag:
                continue
            if done + 1 < len(var.steps):
                items.append((index, done + 1))
                carry.append(src)
                continue
            completions.append((src, var.pos, len(var.children), var.captures))
            spawned.extend((child, 0) for child in var.children)
        items.extend(spawned)
        move = (plan.state(tuple(items)), tuple(carry), tuple(completions))
        if len(self.moves) < MEMO_LIMIT:
            self.moves[tag] = move
        return move


class _Var:
    """One variable of an anchor's subtree, as the binder sees it."""

    __slots__ = ("steps", "pos", "children", "leaf", "captures", "null")

    def __init__(self, steps, pos: int, children: List[int], captures: bool) -> None:
        self.steps = steps
        #: Position of this variable's list in its parent's record.
        self.pos = pos
        self.children = children
        self.leaf = not children
        #: Leaf with at least one field: its node's value() is needed.
        self.captures = captures
        #: The binding of an unbound variable (NULL or an empty record).
        self.null = NULL if self.leaf else (None,) * len(children)


class _AnchorPlan:
    """One anchor variable: its binding automaton and row layout."""

    __slots__ = ("fields", "vars", "levels", "names", "project", "initial", "_states")

    def __init__(self, table_tree: TableTree, variable: str) -> None:
        # The DOM evaluator's variable order (BFS), restricted to the subtree.
        names = table_tree.descendants(variable, include_self=True)
        index = {name: i for i, name in enumerate(names)}
        rule = table_tree.rule
        self.fields: List[Tuple[str, str]] = [
            (rule_field.field, rule_field.variable)
            for rule_field in rule.fields
            if rule_field.variable in index
        ]
        with_fields = {var for _, var in self.fields}
        self.vars: List[_Var] = []
        positions: Dict[str, int] = {variable: 0}
        for name in names:
            children = table_tree.children(name)
            for pos, child in enumerate(children):
                positions[child] = pos
            self.vars.append(
                _Var(
                    table_tree.path_from_parent(name).steps,
                    positions[name],
                    [index[child] for child in children],
                    name in with_fields and not children,
                )
            )
        #: Row expansion: the non-anchor variables, BFS level by BFS level,
        #: as (parent's index, position in the parent record, unbound choice).
        depth = {variable: 0}
        levels: List[List[Tuple[int, int, tuple]]] = []
        for i, name in enumerate(names[1:], start=1):
            parent = table_tree.parent(name)
            depth[name] = depth[parent] + 1
            if depth[name] > len(levels):
                levels.append([])
            levels[-1].append((index[parent], self.vars[i].pos, (self.vars[i].null,)))
        self.levels = [tuple(level) for level in levels]
        #: Field names, and the projection of a full binding onto them.
        self.names = tuple(field_name for field_name, _ in self.fields)
        slots = [index[var] for _, var in self.fields]
        if len(slots) > 1:
            self.project = itemgetter(*slots)
        else:
            self.project = lambda binding: tuple(binding[i] for i in slots)
        self._states: Dict[Tuple[Tuple[int, int], ...], _BindState] = {}
        anchor = self.vars[0]
        self.initial = self.state(tuple((child, 0) for child in anchor.children))

    @property
    def anchor(self) -> _Var:
        return self.vars[0]

    def state(self, items: Tuple[Tuple[int, int], ...]) -> Optional[_BindState]:
        """The interned state over ``items`` (``None`` when empty: dead)."""
        if not items:
            return None
        state = self._states.get(items)
        if state is None:
            state = self._states[items] = _BindState(self, items)
        return state

    def null_row(self) -> Dict[str, Value]:
        return {field_name: NULL for field_name, _ in self.fields}

    def rows(self, binding) -> List[Dict[str, Value]]:
        """Expand one anchor match into its rows.

        Every partial binding is extended by each binding its parent reached
        for the next variable in BFS order — or by the unbound choice when
        there is none — which is exactly the expansion order of
        :func:`~repro.transform.evaluate.evaluate_rule`.  The variables of
        one BFS level depend only on earlier levels, so a level extends a
        partial binding by the product of their choices in one step.
        """
        partials = [(binding,)]
        for level in self.levels:
            extended: List[tuple] = []
            for done in partials:
                choices = [done[parent][pos] or unbound for parent, pos, unbound in level]
                extended.extend(map(done.__add__, product(*choices)))
            partials = extended
        names, project = self.names, self.project
        return [dict(zip(names, project(done))) for done in partials]


class _RulePlan:
    """Everything about one rule that does not depend on the document."""

    __slots__ = ("anchors", "root_fields", "single_anchor", "nfa")

    def __init__(self, rule: TableRule) -> None:
        table_tree = TableTree(rule)
        root = rule.root_variable
        anchors = table_tree.children(root)
        self.anchors: List[_AnchorPlan] = [
            _AnchorPlan(table_tree, variable) for variable in anchors
        ]
        self.root_fields = rule.fields_of_variable(root)
        self.single_anchor = len(self.anchors) == 1 and not self.root_fields
        #: One automaton over the anchor paths (slot = anchor index).
        self.nfa = PathNFA([table_tree.path_from_parent(variable) for variable in anchors])

    def product(self, blocks: Sequence[List[Dict[str, Value]]]) -> List[Dict[str, Value]]:
        """All rows from one row block per anchor (an empty one: NULL row).

        The bindings of distinct anchors are independent, so the full
        binding set is the product of the per-anchor blocks.
        """
        rows: List[Dict[str, Value]] = [{}]
        for anchor, block in zip(self.anchors, blocks):
            block = block or [anchor.null_row()]
            rows = [dict(done, **part) for done in rows for part in block]
        return rows


@lru_cache(maxsize=256)
def _compile(key: tuple) -> _RulePlan:
    relation, root_variable, mappings, fields = key
    rule = TableRule(relation, root_variable=root_variable)
    for mapping in mappings:
        rule.add_mapping(mapping.variable, mapping.source, mapping.path)
    for rule_field in fields:
        rule.add_field(rule_field.field, rule_field.variable)
    return _RulePlan(rule)


def compile_rule(rule: TableRule) -> _RulePlan:
    """The binding plan of ``rule``, compiled once per rule *content*.

    Rules are mutable and cross process boundaries by pickling, so the
    cache is keyed on what they say — relation, root variable, mappings and
    field rules (all frozen values) — not on object identity.  Every
    streamer of the same rule (shard workers, delta fragments, merges)
    shares the plan, its validation and its memoised transition tables.
    The tables only cache pure functions of (state, tag), so streamers on
    concurrent threads share them without a lock: a race at worst computes
    one entry twice.
    """
    return _compile(
        (rule.relation, rule.root_variable, tuple(rule.mappings), tuple(rule.fields))
    )


# ----------------------------------------------------------------------
# The streamer
# ----------------------------------------------------------------------
class _Frame:
    """Bookkeeping for one open element."""

    __slots__ = ("state", "binds", "parts", "sinks", "anchors", "attrs")

    def __init__(self, state: NFAState, binds, parts, sinks) -> None:
        #: This element's state in the rule's anchor automaton.
        self.state = state
        #: (binding state, parent bindings of its pairs), one per open
        #: anchor match whose paths reach this element; ``None`` when none.
        self.binds: Optional[List[tuple]] = binds
        #: The value() parts of this element, when its value is needed.
        self.parts: Optional[List[str]] = parts
        #: Binding lists awaiting this element's value().
        self.sinks: Optional[List[list]] = sinks
        #: (anchor index, binding) for the anchor matches at this element.
        self.anchors: Optional[List[tuple]] = None
        #: Attribute name → value; XML allows one attribute per name, later
        #: occurrences replace earlier ones in place (as in the DOM).
        self.attrs: Optional[Dict[str, str]] = None


class RuleStreamer:
    """Evaluate one table rule over an event stream, emitting rows.

    Feed events with :meth:`feed` (completed rows accumulate in
    :attr:`ready`, or go to ``sink(row)`` when one is given), then call
    :meth:`finish` once the stream is exhausted to flush the remaining rows
    (the NULL row of an unmatched rule, or the multi-anchor product).
    """

    def __init__(
        self,
        rule: TableRule,
        deduplicate: bool = False,
        shard_mode: bool = False,
        sink: Optional[Callable[[Dict[str, Value]], object]] = None,
    ) -> None:
        self.rule = rule
        self._plan = plan = compile_rule(rule)
        self.root_fields = plan.root_fields
        self.single_anchor = plan.single_anchor
        self._frames: List[_Frame] = []
        #: Shard mode: accumulate per-anchor row blocks for a later global
        #: merge instead of emitting — deduplication and the NULL / product
        #: semantics then happen exactly once, in :func:`merge_rule_shards`.
        self._shard_mode = shard_mode
        self._seen: Optional[set] = set() if deduplicate and not shard_mode else None
        self._finished = False
        #: Completed row blocks per anchor (unless emitted as they close).
        self._rows: List[List[Dict[str, Value]]] = [[] for _ in plan.anchors]
        #: Anchor nodes matched so far (the shard-result binding counter).
        self._matches: List[int] = [0] * len(plan.anchors)
        #: Rows completed so far and not yet drained by the caller.
        self.ready: List[Dict[str, Value]] = []
        self._sink = sink if sink is not None else self.ready.append
        #: Depth inside a *dead region*: a subtree whose root advanced every
        #: anchor NFA to the empty state without matching, and into which no
        #: open match's bindings and no value reach.  Nothing can bind
        #: anywhere below such an element — an exact automaton fact, true on
        #: any document — so events inside it only bump this counter.
        self._dead_depth = 0
        #: The open element whose attribute section has not been resolved
        #: yet (attributes directly follow their start tag, so there is at
        #: most one); set by its first attribute.
        self._pending: Optional[_Frame] = None

    # ------------------------------------------------------------------
    def _emit(self, row: Dict[str, Value]) -> None:
        if self._seen is not None:
            key = _row_key(row)
            if key in self._seen:
                return
            self._seen.add(key)
        self._sink(row)

    def feed(self, event: Event) -> None:
        kind, name, value = event
        frames = self._frames
        if kind == START:
            if self._dead_depth:
                self._dead_depth += 1
                return
            if self._pending is not None:
                self._resolve_attrs()
            plan = self._plan
            if not frames:
                frame = _Frame(plan.nfa.initial, None, [] if plan.root_fields else None, None)
            else:
                parent = frames[-1]
                state = parent.state.moves.get(name)
                if state is None:
                    state = plan.nfa.move(parent.state, name)
                binds = sinks = None
                parts = None if parent.parts is None else []
                if parent.binds is not None:
                    for bind, recs in parent.binds:
                        move = bind.moves.get(name)
                        if move is None:
                            move = bind.advance(name)
                        following, carry, completions = move
                        grown = None
                        for src, pos, width, captures in completions:
                            record = recs[src]
                            reached = record[pos]
                            if reached is None:
                                reached = record[pos] = []
                            if width:
                                child = [None] * width
                                reached.append(child)
                                if grown is None:
                                    grown = [child] * width
                                else:
                                    grown.extend([child] * width)
                            elif captures:
                                if sinks is None:
                                    sinks = [reached]
                                else:
                                    sinks.append(reached)
                            else:
                                reached.append(NULL)
                        if following is not None:
                            below = [recs[i] for i in carry]
                            if grown is not None:
                                below.extend(grown)
                            if binds is None:
                                binds = [(following, below)]
                            else:
                                binds.append((following, below))
                    if sinks is not None and parts is None:
                        parts = []
                if state.dead and binds is None and parts is None:
                    self._dead_depth = 1
                    return
                frame = _Frame(state, binds, parts, sinks)
            for index in frame.state.accepts:
                self._open_match(frame, index)
            frames.append(frame)
        elif kind == ATTR:
            if self._dead_depth:
                return
            frame = frames[-1]
            if frame.attrs is None:
                frame.attrs = {name: value or ""}
                self._pending = frame
            else:
                frame.attrs[name] = value or ""
        elif kind == TEXT:
            if self._dead_depth:
                return
            if self._pending is not None:
                self._resolve_attrs()
            frame = frames[-1]
            if frame.parts is not None and value:
                text = value.strip()
                if text:
                    frame.parts.append("S:" + text)
        elif kind == END:
            if self._dead_depth:
                self._dead_depth -= 1
                return
            if self._pending is not None:
                self._resolve_attrs()
            frame = frames.pop()
            parts = frame.parts
            if parts is not None:
                element_value = compose_value(parts)
                if frame.sinks is not None:
                    for reached in frame.sinks:
                        reached.append(element_value)
                if frames:
                    above = frames[-1].parts
                    if above is not None:
                        above.append(f"{name}: {element_value}")
                elif self.root_fields:
                    self._emit({f: element_value for f in self.root_fields})
            if frame.anchors is not None:
                for index, binding in frame.anchors:
                    if binding is None:  # a leaf anchor binds its value
                        binding = element_value if parts is not None else NULL
                    self._anchor_matched(index, binding)
        elif kind == SKIP:
            # A skipped subtree.  The skip plane only fast-forwards labels
            # whose entire subtree is invisible to every interesting path —
            # and rules that capture element values disable skipping outright
            # — so there is nothing to bind here.  The parent's attribute
            # section is complete (a child element appeared).
            if self._pending is not None:
                self._resolve_attrs()

    def _open_match(self, frame: _Frame, index: int) -> None:
        """An anchor matched this element: open its bindings."""
        anchor = self._plan.anchors[index]
        var = anchor.anchor
        binding = None
        if var.leaf:
            if var.captures and frame.parts is None:
                frame.parts = []
        else:
            binding = [None] * len(var.children)
            if anchor.initial is not None:
                pair = (anchor.initial, [binding] * len(anchor.initial.items))
                if frame.binds is None:
                    frame.binds = [pair]
                else:
                    frame.binds.append(pair)
        if frame.anchors is None:
            frame.anchors = [(index, binding)]
        else:
            frame.anchors.append((index, binding))

    def _resolve_attrs(self) -> None:
        """Bind everything that waited for the attribute section to close.

        Deferred so that a duplicated attribute name binds one node with its
        final value — exactly what the DOM holds after parsing.
        """
        frame = self._pending
        self._pending = None
        attrs = frame.attrs
        if frame.parts is not None:
            frame.parts.extend([f"@{name}:{value}" for name, value in attrs.items()])
        if frame.binds is not None:
            for state, recs in frame.binds:
                hits = state.attr_hits
                if hits is None:
                    continue
                for name, value in attrs.items():
                    found = hits.get(name)
                    if found is None:
                        continue
                    for src, pos, empty in found:
                        record = recs[src]
                        binding = value if empty is None else empty
                        if record[pos] is None:
                            record[pos] = [binding]
                        else:
                            record[pos].append(binding)
        completes = frame.state.attrs
        if completes is not None:
            anchors = self._plan.anchors
            for name, value in attrs.items():
                for index in completes.get(name, ()):
                    var = anchors[index].anchor
                    self._anchor_matched(index, value if var.leaf else var.null)

    def _anchor_matched(self, index: int, binding) -> None:
        rows = self._plan.anchors[index].rows(binding)
        self._matches[index] += 1
        if self.single_anchor and not self._shard_mode:
            for row in rows:
                self._emit(row)
        else:
            self._rows[index].extend(rows)

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self.root_fields:
            return  # the row was emitted when the root element closed
        anchors = self._plan.anchors
        if self.single_anchor:
            if not self._matches[0]:
                self._emit(anchors[0].null_row())
            return
        for row in self._plan.product(self._rows):
            self._emit(row)

    def drain(self) -> List[Dict[str, Value]]:
        rows = self.ready[:]
        self.ready.clear()
        return rows

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------
    @property
    def anchors_root_bound(self) -> bool:
        """Does any anchor bind the document root itself?

        Such a rule (anchor path ``.`` or a bare ``//``) needs the whole
        document as one subtree and cannot be sharded; the parallel
        executor falls back to the serial plane when it sees one.
        """
        return bool(self._plan.nfa.initial.accepts)

    def shard_result(self) -> "RuleShardResult":
        """Extract this shard's mergeable state (shard mode only).

        Call after feeding the shard's prologue and slice events; the root
        element must be the only frame still open (slices contain complete
        top-level subtrees, so anything else means a torn shard).
        """
        if not self._shard_mode:
            raise RuntimeError("shard_result() requires RuleStreamer(shard_mode=True)")
        root_parts: List[str] = []
        if self._frames:
            if len(self._frames) != 1:
                raise ValueError("shard slice left a non-root element open")
            if self._pending is not None:
                self._resolve_attrs()
            frame = self._frames[0]
            if self.root_fields and frame.parts is not None:
                # Root attributes are deliberately excluded: they are
                # prologue state, shared by every shard, and contributed
                # exactly once by the merger.
                root_parts = frame.parts[len(frame.attrs or ()):]
        return RuleShardResult(
            anchor_rows=[list(rows) for rows in self._rows],
            anchor_matches=list(self._matches),
            root_parts=root_parts,
        )




@dataclass
class RuleShardResult:
    """One rule's mergeable state after one shard of the document.

    ``anchor_rows[i]`` is the row bag anchor ``i`` produced inside the
    shard (in document order); ``anchor_matches[i]`` counts its anchor-node
    bindings — pure telemetry for shard-balance diagnostics, since a
    matched anchor always contributes at least one row (the binding
    expansion never returns an empty set) and the merge therefore decides
    the NULL row from the row blocks alone; ``root_parts`` carries the
    shard's contribution to ``value(root)`` for rules with fields on the
    root variable.  All fields are plain picklable values — this is
    exactly what crosses the process boundary in :mod:`repro.parallel`.
    """

    anchor_rows: List[List[Dict[str, Value]]]
    anchor_matches: List[int] = field(default_factory=list)
    root_parts: List[str] = field(default_factory=list)

    def _matches(self) -> List[int]:
        return self.anchor_matches or [0] * len(self.anchor_rows)

    def merge(self, other: "RuleShardResult") -> "RuleShardResult":
        """Append ``other``'s shard state after this one — in place.

        The binary form of :func:`merge_rule_shards`' concatenation step:
        per-anchor row blocks, match counters and root value parts all
        concatenate in document (shard) order, associatively.  ``other``
        is left untouched.  The global NULL / product / deduplication
        semantics still happen exactly once, when the accumulated state is
        rendered by :func:`merge_rule_shards`.
        """
        if len(other.anchor_rows) != len(self.anchor_rows):
            raise ValueError(
                "cannot merge shard results with different anchor counts"
            )
        for mine, theirs in zip(self.anchor_rows, other.anchor_rows):
            mine.extend(theirs)
        self.anchor_matches = [
            a + b for a, b in zip(self._matches(), other._matches())
        ]
        self.root_parts.extend(other.root_parts)
        return self

    def subtract(self, other: "RuleShardResult") -> "RuleShardResult":
        """Retract ``other``'s shard state from the tail — inverse of merge.

        ``merge(a, b).subtract(b)`` restores ``a``.  Every per-anchor block
        of ``other`` must be the suffix of the corresponding block here
        (row dicts compare with the NULL singleton identity-matched by the
        container comparison); the suffixes are verified before anything is
        dropped, so subtracting a state that was never merged raises.
        """
        if len(other.anchor_rows) != len(self.anchor_rows):
            raise ValueError(
                "cannot subtract shard results with different anchor counts"
            )
        for mine, theirs in zip(self.anchor_rows, other.anchor_rows):
            count = len(theirs)
            if count and (len(mine) < count or mine[-count:] != theirs):
                raise ValueError(
                    "subtracted shard result is not the row suffix of this one"
                )
        matches = [a - b for a, b in zip(self._matches(), other._matches())]
        if any(count < 0 for count in matches):
            raise ValueError(
                "subtracted shard result reports more anchor matches than merged"
            )
        parts = len(other.root_parts)
        if parts and (
            len(self.root_parts) < parts or self.root_parts[-parts:] != other.root_parts
        ):
            raise ValueError(
                "subtracted shard result is not the root-value suffix of this one"
            )
        for mine, theirs in zip(self.anchor_rows, other.anchor_rows):
            if theirs:
                del mine[-len(theirs):]
        self.anchor_matches = matches
        if parts:
            del self.root_parts[-parts:]
        return self


def merge_rule_shards(
    rule: TableRule,
    shard_results: Sequence[RuleShardResult],
    deduplicate: bool = True,
    root_attr_parts: Sequence[str] = (),
) -> List[Dict[str, Value]]:
    """Merge a shard partition's per-rule states into the serial row list.

    The merge is associative and order-sensitive in exactly one way: shard
    results must be passed in document order.  Per-anchor row blocks are
    concatenated (restoring the serial accumulation order), then the NULL
    row, the implicit multi-anchor product and deduplication — the
    *global* decisions a single shard cannot make — are applied once, the
    same way :meth:`RuleStreamer.finish` applies them at end of stream.
    ``root_attr_parts`` are the ``@name:value`` pieces of the root's own
    attributes for rules with root fields.
    """
    plan = compile_rule(rule)
    rows: List[Dict[str, Value]]
    if plan.root_fields:
        parts = list(root_attr_parts)
        for result in shard_results:
            parts.extend(result.root_parts)
        value = compose_value(parts)
        rows = [{field_name: value for field_name in plan.root_fields}]
    else:
        rows = plan.product(
            [
                [row for result in shard_results for row in result.anchor_rows[index]]
                for index in range(len(plan.anchors))
            ]
        )
    if deduplicate:
        seen: set = set()
        unique: List[Dict[str, Value]] = []
        for row in rows:
            key = _row_key(row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        rows = unique
    return rows


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def root_attr_parts(prologue_events: Sequence[Event]) -> List[str]:
    """The ``@name:value`` pieces of the root's own attributes.

    One part per distinct attribute name, last value winning — the state
    the DOM holds after parsing a duplicated attribute.  Every merge of
    shard states (:func:`merge_rule_shards`) takes these from the shared
    prologue.
    """
    values: Dict[str, Optional[str]] = {}
    for event in prologue_events:
        if event.kind == ATTR:
            values[event.name] = event.value
    return [f"@{name}:{value}" for name, value in values.items()]


def relation_schema(
    rule: TableRule, schema: Optional[DatabaseSchema] = None
) -> RelationSchema:
    """The schema a rule's rows land in: ``schema``'s relation, else the rule's."""
    if schema is not None and rule.relation in schema:
        return schema.relation(rule.relation)
    return rule.schema()


def record_shred_rows(instances: Dict[str, RelationInstance]) -> None:
    """Count each relation's shredded rows as ``shred.rows`` (telemetry).

    Every shredding plane — DOM, streaming, sharded — reports its final
    instances through here, so their metrics agree name for name.
    """
    if obs.enabled():
        registry = obs.metrics()
        for relation, instance in instances.items():
            registry.inc("shred.rows", len(instance.rows), relation=relation)


def iter_rule_rows(
    rule: TableRule,
    source: EventSource,
    deduplicate: bool = False,
    plan=None,
) -> Iterator[Dict[str, Value]]:
    """Lazily yield the rows ``Rule(R)`` produces over ``source``.

    Rows are yielded as soon as they complete (per anchor subtree for
    single-anchor rules).  The bag of rows equals
    ``evaluate_rule(rule, tree, deduplicate=False)``; with
    ``deduplicate=True`` each distinct row is yielded once (set semantics).
    ``plan`` is an optional compiled :class:`~repro.xmlmodel.static
    .StaticPlan` whose skip set (empty whenever any rule captures element
    values) lets the tokenizer fast-forward schema-invisible subtrees with
    identical rows.
    """
    skip = plan.skipset if plan is not None and plan.skipset else None
    streamer = RuleStreamer(rule, deduplicate=deduplicate)
    for event in as_events(source, skip=skip):
        streamer.feed(event)
        if streamer.ready:
            yield from streamer.drain()
    streamer.finish()
    yield from streamer.drain()


def stream_evaluate_rule(
    rule: TableRule,
    source: EventSource,
    schema: Optional[RelationSchema] = None,
    deduplicate: bool = True,
    plan=None,
) -> RelationInstance:
    """Streaming counterpart of :func:`repro.transform.evaluate.evaluate_rule`."""
    target_schema = schema if schema is not None else rule.schema()
    instance = RelationInstance(target_schema)
    for row in iter_rule_rows(rule, source, deduplicate=deduplicate, plan=plan):
        instance.add_row(row)
    return instance


class StreamShredder:
    """Shred a document through a whole transformation in one pass.

    Every rule gets its own :class:`RuleStreamer`; a single event walk feeds
    them all, so a multi-relation import reads the input exactly once.
    """

    def __init__(
        self,
        transformation: Transformation,
        schema: Optional[DatabaseSchema] = None,
        deduplicate: bool = True,
    ) -> None:
        self.transformation = transformation
        self._schema = schema
        self._deduplicate = deduplicate
        self._instances: Dict[str, RelationInstance] = {}
        self._streamers: List[RuleStreamer] = []
        for rule in transformation:
            instance = RelationInstance(relation_schema(rule, schema))
            self._instances[rule.relation] = instance
            self._streamers.append(
                RuleStreamer(rule, deduplicate=deduplicate, sink=instance.add_row)
            )
        if len(self._streamers) == 1:
            # The common one-rule import: events go straight to the rule's
            # streamer, without a per-event dispatch loop.
            self.feed = self._streamers[0].feed  # type: ignore[method-assign]

    def feed(self, event: Event) -> None:
        for streamer in self._streamers:
            streamer.feed(event)

    def finish(self) -> Dict[str, RelationInstance]:
        for streamer in self._streamers:
            streamer.finish()
        record_shred_rows(self._instances)
        return dict(self._instances)

    def run(
        self,
        source: EventSource,
        jobs: Optional[int] = None,
        plan=None,
    ) -> Dict[str, RelationInstance]:
        """Shred ``source`` completely and return the relation instances.

        One :func:`repro.parallel.run_pipeline` pass with this shredder's
        rules, schema and row semantics: ``jobs`` (default: ``REPRO_JOBS``,
        else 1) picks the serial or the sharded arm, byte-identical either
        way; a ``plan``'s skip set fast-forwards schema-invisible subtrees,
        rows unchanged.
        """
        from repro.parallel import run_pipeline

        run = run_pipeline(
            source,
            rules=self.transformation,
            schema=self._schema,
            deduplicate=self._deduplicate,
            jobs=jobs,
            plan=plan,
        )
        self._instances = dict(run.instances or {})
        return dict(self._instances)


def stream_evaluate_transformation(
    transformation: Transformation,
    source: EventSource,
    schema: Optional[DatabaseSchema] = None,
    deduplicate: bool = True,
    jobs: Optional[int] = None,
    plan=None,
) -> Dict[str, RelationInstance]:
    """Streaming counterpart of :func:`evaluate_transformation` (one pass)."""
    shredder = StreamShredder(transformation, schema=schema, deduplicate=deduplicate)
    return shredder.run(source, jobs=jobs, plan=plan)
