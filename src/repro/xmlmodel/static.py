"""Schema-guided static optimization: DTD-driven planning for the data plane.

The propagation algorithms of the paper assume the document's structure is
known — keys are stated *against* a DTD or XML Schema — yet the data plane
(streaming shredder, key checker, parallel shards, incremental deltas)
scans every event of every subtree regardless of whether the schema proves
it irrelevant.  This module closes that gap: it compiles a
:class:`~repro.xmlmodel.dtd.DTD` together with the keys and table rules of
a run into a :class:`StaticPlan` holding

* a **label-reachability graph** (:class:`LabelGraph`) over the declared
  element names, derived from the content models;
* one **specialized automaton** (:class:`SpecializedNFA`) per interesting
  path — the :class:`~repro.xmlmodel.matching.PathNFA` the key checker and
  the shredder step on-line, stepped ahead of time over the finite label
  alphabet: the full transition table, per-state attribute acceptance,
  and the *dead states* from which no acceptance is reachable under the
  content models;
* a :class:`SkipSet` telling the string scanner which subtrees can be
  fast-forwarded, and how to *verify* that decision over a whole region
  with one search;
* liveness verdicts for the keys and rule anchors themselves
  (:attr:`StaticPlan.dead_keys`, :attr:`StaticPlan.dead_anchors`).

Soundness model (documents that violate the DTD)
------------------------------------------------

The plan must never change an answer, even on documents that do **not**
obey the DTD.  Two different strengths of fact are therefore kept apart:

* A label is **safe** when *no reachable state of any interesting path*
  can accept on it — an automaton fact over arbitrary documents, computed
  over the finite alphabet ``mentioned labels ∪ declared labels ∪ other``.
  Safe labels produce no matches wherever they occur; this needs no help
  from the document.
* The DTD's reachability graph only decides where a skip is *attempted*:
  a declared label whose reachable content is entirely safe.  The
  fast-forward still **verifies** every interior label of the region it
  matched against the safe set, with one search
  (:attr:`SkipSet.unverified_tag`); an unsafe label — which on a
  DTD-obeying document cannot occur — refuses the skip and the element is
  tokenized in full.  Pruning therefore only engages on facts the
  document actually obeys.

Rules that can bind *element* nodes need every event of a bound
element's subtree: its ``value()`` string is built from them (by the
binder in :mod:`repro.transform.stream`), and on a DTD-violating
document such a subtree may contain safe-labelled elements; no
tag-level verification can see the binding state from inside the
tokenizer.  Compiling a plan over such rules therefore disables subtree
skipping altogether (the :class:`SkipSet` is empty) — validation,
specialization and liveness analysis still apply.  Key-only passes
(``check-doc``) and rules anchored purely on attributes keep the full
skipping plane.

Key liveness (:attr:`StaticPlan.dead_keys`) *is* allowed to trust the
DTD — it is a diagnostic: a dead key cannot produce violations on any
document the DTD admits.  Callers that must stay exact on arbitrary
documents keep checking dead keys (their paths stay in the safety
computation, so the skip plane never hides their matches).
"""

from __future__ import annotations

import functools
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.keys.key import XMLKey
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.matching import NFAState, PathNFA
from repro.xmlmodel.paths import PathExpression, StepKind

#: A specialized automaton state: the step positions of a single-path
#: :class:`PathNFA` state.
State = FrozenSet[int]

#: Sentinel consumed by :meth:`SpecializedNFA.advance` for any label the
#: automaton's alphabet does not mention: all such labels are
#: behaviourally identical (only ``//`` and name-mismatching label steps
#: see them), so one table column covers the lot.
OTHER_LABEL = "\x00other"


# ----------------------------------------------------------------------
# The label-reachability graph
# ----------------------------------------------------------------------
class LabelGraph:
    """Reachability between declared element labels, per the content models.

    ``children(label)`` is the set of declared labels the content model of
    ``label`` allows as direct children (every declared label for ``ANY``);
    ``reachable(label)`` is its transitive closure — the labels that can
    occur *strictly below* an element labelled ``label`` in any document
    the DTD admits.  Undeclared labels have no declaration to constrain
    them; they are simply absent (a DTD-obeying document cannot contain
    them at all).
    """

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        declared = frozenset(dtd.elements)
        self.labels = declared
        self._children: Dict[str, FrozenSet[str]] = {}
        for name, decl in dtd.elements.items():
            if decl.is_any:
                self._children[name] = declared
            else:
                self._children[name] = frozenset(decl.allowed_children()) & declared
        self._reachable: Dict[str, FrozenSet[str]] = {}

    def children(self, label: str) -> FrozenSet[str]:
        return self._children.get(label, frozenset())

    def reachable(self, label: str) -> FrozenSet[str]:
        """Declared labels reachable strictly below ``label`` (closure)."""
        cached = self._reachable.get(label)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        pending = list(self._children.get(label, ()))
        while pending:
            child = pending.pop()
            if child in seen:
                continue
            seen.add(child)
            pending.extend(self._children.get(child, ()))
        result = frozenset(seen)
        self._reachable[label] = result
        return result

    def root_labels(self) -> FrozenSet[str]:
        """The labels a DTD-obeying document may use for its root."""
        root = self.dtd.root_name
        if root is not None:
            return frozenset((root,))
        return self.labels


# ----------------------------------------------------------------------
# Path specialization
# ----------------------------------------------------------------------
class SpecializedNFA:
    """A single-path :class:`PathNFA` specialized to a finite label alphabet.

    The on-line automaton memoises transitions as they happen; this class
    steps it ahead of time over ``mentioned ∪ declared ∪ other``.  A state
    here is the frozen set of step positions of one automaton state:

    * **full transition table** — every ``(state, label)`` pair of the
      reachable state space, plus one ``other`` column standing for every
      label the alphabet does not mention;
    * **attribute acceptance** — per state, the attribute names that
      complete the path (the automaton state's ``attrs``);
    * **dead states** — states from which no element or attribute
      acceptance is reachable via *declared* labels (an undeclared label
      cannot occur in a DTD-obeying document).  :attr:`dead_states` is the
      specialization-only fact; arbitrary-document safety is what
      :func:`compile_plan` derives from the table itself.

    ``advance``/``accepts``/``attr_names`` agree with the base automaton
    for **every** label, declared or not — unmentioned labels all take the
    ``other`` column, which is exactly how the base automaton treats them.
    """

    __slots__ = (
        "length",
        "initial",
        "alphabet",
        "states",
        "dead_states",
        "_table",
        "_attr_names",
    )

    def __init__(self, path: PathExpression, dtd: Optional[DTD] = None) -> None:
        base = PathNFA([path])
        length = len(path.steps)
        self.length = length

        mentioned = {step.name for step in path.steps if step.kind is StepKind.LABEL}
        declared = set(dtd.elements) if dtd is not None else set()
        self.alphabet: Tuple[str, ...] = tuple(sorted(mentioned | declared))

        # --- full transition table over the reachable state space --------
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

        # --- dead states under the content-model alphabet -----------------
        live_columns: Tuple[str, ...] = (
            tuple(sorted(declared)) if dtd is not None else columns
        )
        live = {
            state
            for state in self.states
            if length in state or attr_names[state]
        }
        changed = True
        while changed:
            changed = False
            for state in self.states:
                if state in live:
                    continue
                for label in live_columns:
                    if table[(state, label)] in live:
                        live.add(state)
                        changed = True
                        break
        self.dead_states: FrozenSet[State] = frozenset(self.states - live)

    # ------------------------------------------------------------------
    def advance(self, state: State, tag: str) -> State:
        """Table-lookup transition; any unmentioned ``tag`` takes ``other``."""
        hit = self._table.get((state, tag))
        if hit is None:
            hit = self._table[(state, OTHER_LABEL)]
        return hit

    def accepts(self, state: State) -> bool:
        return self.length in state

    def attr_names(self, state: State) -> FrozenSet[str]:
        """Attribute names acceptable at ``state`` (empty set: none)."""
        return self._attr_names[state]

    def can_accept_attribute(self, state: State) -> bool:
        return bool(self._attr_names[state])

    def dead(self, state: State) -> bool:
        """No acceptance reachable from ``state`` under declared labels."""
        return state in self.dead_states


# ----------------------------------------------------------------------
# The skip set
# ----------------------------------------------------------------------
class SkipSet:
    """Which subtrees the string scanner may fast-forward, and how to verify.

    ``attempt`` holds the declared labels whose *entire* reachable content
    (per the DTD) is safe: opening such an element triggers a skip
    attempt.  ``verdicts`` maps labels to their safety; any other label
    takes ``other_safe`` (the verdict of the anonymous "any other label"
    column).  :attr:`unverified_tag` turns the verdicts into one search
    over the region a skip attempt matched: a hit refuses the skip, and
    the scanner tokenizes the element in full, so DTD-violating documents
    keep their exact answers.

    Instances are plain picklable values — they cross the process boundary
    of :mod:`repro.parallel` with the rest of the shard arguments.
    """

    def __init__(
        self,
        attempt: Iterable[str],
        verdicts: Dict[str, bool],
        other_safe: bool,
    ) -> None:
        self.attempt = frozenset(attempt)
        self.verdicts = dict(verdicts)
        self.other_safe = bool(other_safe)

    @classmethod
    def disabled(cls) -> "SkipSet":
        """The empty skip set: nothing attempted, nothing verified."""
        return cls((), {}, False)

    @functools.cached_property
    def unverified_tag(self) -> "re.Pattern[str]":
        """Finds a start tag whose label is not safe wherever it occurs.

        A label is safe when its verdict, or ``other_safe`` for a label
        without one, says no interesting path accepts on it.  Made for
        markup where every ``<`` starts a tag and every name ends at
        whitespace, ``/`` or ``>`` — a region the string scanner's skip
        has matched — so one C-level search verifies all of its labels at
        once.
        """
        labels = "|".join(
            re.escape(label)
            for label, ok in sorted(self.verdicts.items())
            if ok != self.other_safe
        )
        if self.other_safe:  # the labels listed are the rejected ones
            return re.compile(rf"<(?:{labels})[\s/>]" if labels else "(?!)")
        return re.compile(rf"<(?!/|(?:{labels})[\s/>])")  # the verified ones

    def __bool__(self) -> bool:
        return bool(self.attempt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        safe = sorted(label for label, ok in self.verdicts.items() if ok)
        return f"SkipSet(attempt={sorted(self.attempt)!r}, safe={safe!r})"


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------
class StaticPlan:
    """The compiled optimization plan for one (DTD, keys, rules) workload.

    Built by :func:`compile_plan`.  Consumers read:

    * :attr:`skipset` — passed to the tokenizers (``iter_events(skip=…)``)
      and through the parallel/incremental planes;
    * :attr:`specialized` — one :class:`SpecializedNFA` per interesting
      path, for table-driven matching and dead-state introspection;
    * :attr:`dead_keys` / :attr:`live_keys` — keys whose target can /
      cannot match under any DTD-obeying document;
    * :attr:`dead_anchors` — ``(relation, variable)`` pairs of rule
      anchors that can never bind.
    """

    def __init__(
        self,
        dtd: DTD,
        keys: Sequence[XMLKey],
        rules: Sequence[object],
        graph: LabelGraph,
        skipset: SkipSet,
        specialized: Dict[PathExpression, SpecializedNFA],
        dead_keys: Tuple[XMLKey, ...],
        dead_anchors: Tuple[Tuple[str, str], ...],
        skip_disabled_by_rules: bool,
    ) -> None:
        self.dtd = dtd
        self.keys = tuple(keys)
        self.rules = tuple(rules)
        self.graph = graph
        self.skipset = skipset
        self.specialized = specialized
        self.dead_keys = dead_keys
        self.live_keys = tuple(k for k in self.keys if k not in set(dead_keys))
        self.dead_anchors = dead_anchors
        #: True when element-capturing rule anchors forced the skip set off.
        self.skip_disabled_by_rules = skip_disabled_by_rules

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A short human-readable summary of the plan, for interactive use
        and debugging (no command prints it)."""
        declared = len(self.graph.labels)
        safe = sorted(
            label for label, ok in self.skipset.verdicts.items() if ok
        )
        lines = [
            f"static plan: {declared} declared labels, "
            f"{len(self.specialized)} specialized paths",
            f"  skippable labels: {len(self.skipset.attempt)} "
            f"({', '.join(sorted(self.skipset.attempt)) or '-'})",
            f"  safe labels: {len(safe)}"
            + (" (+ any undeclared label)" if self.skipset.other_safe else ""),
        ]
        if self.skip_disabled_by_rules:
            lines.append(
                "  subtree skipping disabled: a rule anchor captures element subtrees"
            )
        if self.dead_keys:
            names = ", ".join(k.name or k.text for k in self.dead_keys)
            lines.append(
                f"  statically dead keys (target unreachable under the DTD): {names}"
            )
        if self.dead_anchors:
            pairs = ", ".join(f"{rel}.{var}" for rel, var in self.dead_anchors)
            lines.append(f"  statically dead rule anchors: {pairs}")
        dead_states = sum(len(nfa.dead_states) for nfa in self.specialized.values())
        lines.append(f"  dead automaton states detected: {dead_states}")
        return "\n".join(lines)


def _path_live_under_dtd(spec: SpecializedNFA, graph: LabelGraph, dtd: DTD) -> bool:
    """Can ``spec``'s path accept in *some* document the DTD admits?

    A product walk of (document label, automaton state) pairs from each
    admissible root: element acceptance is checked on the node's state,
    attribute acceptance only against attributes actually declared for the
    node's label.
    """

    def node_accepts(label: str, state: State) -> bool:
        if spec.accepts(state):
            return True
        names = spec.attr_names(state)
        if names:
            for name in names:
                if (label, name) in dtd.attributes:
                    return True
        return False

    seen: Set[Tuple[str, State]] = set()
    pending: List[Tuple[str, State]] = []
    for root in graph.root_labels():
        pair = (root, spec.initial)
        if pair not in seen:
            seen.add(pair)
            pending.append(pair)
    while pending:
        label, state = pending.pop()
        if node_accepts(label, state):
            return True
        if spec.dead(state):
            continue
        for child in graph.children(label):
            succ = spec.advance(state, child)
            pair = (child, succ)
            if pair not in seen:
                seen.add(pair)
                pending.append(pair)
    return False


def compile_plan(
    dtd: DTD,
    keys: Iterable[XMLKey] = (),
    rules: Iterable[object] = (),
) -> StaticPlan:
    """Compile the static optimization plan for a workload.

    ``keys`` are :class:`~repro.keys.key.XMLKey` instances (the key-check
    side); ``rules`` are :class:`~repro.transform.rule.TableRule` /
    whole :class:`~repro.transform.rule.Transformation` objects (the
    shredding side).  Either may be empty.
    """
    keys = list(keys)
    rule_list: List[object] = []
    for entry in rules:
        # A Transformation is iterable over its TableRules.
        if hasattr(entry, "root_variable"):
            rule_list.append(entry)
        else:
            rule_list.extend(entry)  # type: ignore[arg-type]

    graph = LabelGraph(dtd)

    # ---- the interesting paths --------------------------------------
    # Keys contribute their context (context matches can open records and
    # flag missing attributes on their own) and the composed
    # context·target path (anything a record's target automaton could
    # reach).  Rules contribute their anchor paths.
    paths: List[PathExpression] = []
    seen_paths: Set[PathExpression] = set()

    def add_path(path: PathExpression) -> None:
        if path not in seen_paths:
            seen_paths.add(path)
            paths.append(path)

    for key in keys:
        add_path(key.context)
        add_path(key.context_target)

    anchor_specs: List[Tuple[str, str, PathExpression]] = []
    rules_capture_elements = False
    for rule in rule_list:
        from repro.transform.table_tree import TableTree  # avoid import cycle

        table_tree = TableTree(rule)  # type: ignore[arg-type]
        root = rule.root_variable  # type: ignore[attr-defined]
        if rule.fields_of_variable(root):  # type: ignore[attr-defined]
            # Root fields serialize value(root): the whole document is
            # captured, nothing can be skipped.
            rules_capture_elements = True
        for variable in table_tree.children(root):
            path = table_tree.path_from_parent(variable)
            add_path(path)
            anchor_specs.append(
                (getattr(rule, "relation", "?"), variable, path)
            )

    specialized = {path: SpecializedNFA(path, dtd) for path in paths}

    # ---- per-label safety over arbitrary documents -------------------
    candidates: Set[str] = set(graph.labels)
    for spec in specialized.values():
        candidates.update(spec.alphabet)
    verdicts: Dict[str, bool] = {label: True for label in candidates}
    other_safe = True

    for relation, variable, path in anchor_specs:
        spec = specialized[path]
        for state in spec.states:
            for label in spec.alphabet:
                if spec.accepts(spec.advance(state, label)):
                    # An element anchor can bind a <label> node somewhere:
                    # its whole subtree would be captured.
                    rules_capture_elements = True
            if spec.accepts(spec.advance(state, OTHER_LABEL)):
                rules_capture_elements = True
        if spec.accepts(spec.initial):
            # The anchor binds the document root itself.
            rules_capture_elements = True

    for spec in specialized.values():
        for state in spec.states:
            for label in spec.alphabet:
                succ = spec.advance(state, label)
                if spec.accepts(succ) or spec.can_accept_attribute(succ):
                    verdicts[label] = False
            succ = spec.advance(state, OTHER_LABEL)
            if spec.accepts(succ) or spec.can_accept_attribute(succ):
                other_safe = False

    # ---- the skip attempt set ----------------------------------------
    if rules_capture_elements:
        skipset = SkipSet.disabled()
    else:
        attempt = set()
        for label in graph.labels:
            if not verdicts.get(label, other_safe):
                continue
            if all(
                verdicts.get(inner, other_safe) for inner in graph.reachable(label)
            ):
                attempt.add(label)
        skipset = SkipSet(attempt, verdicts, other_safe)

    # ---- liveness of keys and anchors under the DTD -------------------
    dead_keys = tuple(
        key
        for key in keys
        if not _path_live_under_dtd(specialized[key.context_target], graph, dtd)
    )
    dead_anchors = tuple(
        (relation, variable)
        for relation, variable, path in anchor_specs
        if not _path_live_under_dtd(specialized[path], graph, dtd)
    )

    return StaticPlan(
        dtd=dtd,
        keys=keys,
        rules=rule_list,
        graph=graph,
        skipset=skipset,
        specialized=specialized,
        dead_keys=dead_keys,
        dead_anchors=dead_anchors,
        skip_disabled_by_rules=rules_capture_elements,
    )
