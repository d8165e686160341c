"""Schema-guided static optimization: DTD-driven planning for the data plane.

The propagation algorithms of the paper assume the document's structure is
known — keys are stated *against* a DTD or XML Schema — yet the data plane
(streaming shredder, key checker, parallel shards, incremental deltas)
scans every event of every subtree regardless of whether the schema proves
it irrelevant.  This module closes that gap: it compiles a
:class:`~repro.xmlmodel.dtd.DTD` together with the keys and table rules of
a run into a :class:`StaticPlan` holding a :class:`SkipSet`, which tells
the string scanner which subtrees can be fast-forwarded, and how to
*verify* that decision over a whole region with one search.  Two pieces
go into it:

* a **label-reachability graph** (:class:`LabelGraph`) over the declared
  element names, derived from the content models;
* per-label **safety verdicts**, read off each interesting path's own
  :class:`~repro.xmlmodel.matching.PathNFA` — the automaton the key
  checker and the shredder step on-line — stepped ahead of time from
  every reachable state over the finite label alphabet.

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
skipping altogether (the :class:`SkipSet` is empty).  Key-only passes
(``check-doc``) and rules anchored purely on attributes keep the full
skipping plane.

The plan trusts the DTD for nothing else: a key whose target no
DTD-obeying document can reach is still checked, and its paths stay in
the safety computation, so the skip plane never hides its matches.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.keys.key import XMLKey
from repro.xmlmodel.dtd import DTD
from repro.xmlmodel.matching import PathNFA
from repro.xmlmodel.paths import PathExpression, StepKind

#: Stands for every label a path does not mention: no XML name holds a
#: NUL, and the automaton treats all unmentioned labels alike, so one step
#: on this label answers for the lot.
_UNMENTIONED = "\x00"


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

    Built by :func:`compile_plan`.  Consumers read :attr:`skipset`, which
    goes to the tokenizers (``iter_events(skip=…)``) and through the
    parallel and incremental planes.
    """

    def __init__(
        self,
        dtd: DTD,
        keys: Iterable[XMLKey],
        rules: Iterable[object],
        skipset: SkipSet,
    ) -> None:
        self.dtd = dtd
        self.keys = tuple(keys)
        self.rules = tuple(rules)
        self.skipset = skipset


def _completions(path: PathExpression, alphabet: FrozenSet[str]) -> Tuple[Set[str], bool]:
    """Step ``path``'s automaton from every reachable state on every label
    of ``alphabet`` and on :data:`_UNMENTIONED`.

    Returns the labels on which some step completes the path, at the
    element or at one of its attributes, and whether the path can match
    an element at all (the anchor node itself included).
    """
    nfa = PathNFA([path])
    labels = (*alphabet, _UNMENTIONED)
    completing: Set[str] = set()
    binds = bool(nfa.initial.accepts)
    seen = {nfa.initial}
    pending = [nfa.initial]
    while pending:
        state = pending.pop()
        for label in labels:
            succ = nfa.move(state, label)
            if succ.accepts or succ.attrs:
                completing.add(label)
                binds = binds or bool(succ.accepts)
            if succ not in seen:
                seen.add(succ)
                pending.append(succ)
    return completing, binds


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

    # ---- the interesting paths, each marked when it anchors a rule ---
    # Keys contribute their context (context matches can open records and
    # flag missing attributes on their own) and the composed
    # context·target path (anything a record's target automaton could
    # reach).  Rules contribute their anchor paths.
    paths: Dict[PathExpression, bool] = {}
    for key in keys:
        paths.setdefault(key.context, False)
        paths.setdefault(key.context_target, False)
    captures = False
    for rule in rule_list:
        from repro.transform.table_tree import TableTree  # avoid import cycle

        table_tree = TableTree(rule)  # type: ignore[arg-type]
        root = rule.root_variable  # type: ignore[attr-defined]
        if rule.fields_of_variable(root):  # type: ignore[attr-defined]
            # Root fields serialize value(root): the whole document is
            # captured, nothing can be skipped.
            captures = True
        for variable in table_tree.children(root):
            paths[table_tree.path_from_parent(variable)] = True

    # ---- per-label safety over arbitrary documents -------------------
    graph = LabelGraph(dtd)
    verdicts: Dict[str, bool] = dict.fromkeys(graph.labels, True)
    other_safe = True
    for path, anchor in paths.items():
        alphabet = graph.labels | {
            step.name for step in path.steps if step.kind is StepKind.LABEL
        }
        completing, binds = _completions(path, alphabet)
        for label in alphabet:
            verdicts[label] = verdicts.get(label, True) and label not in completing
        other_safe = other_safe and _UNMENTIONED not in completing
        # An element anchor that can bind a node captures its whole subtree.
        captures = captures or (anchor and binds)

    # ---- the skip attempt set ----------------------------------------
    if captures:
        skipset = SkipSet.disabled()
    else:
        attempt = {
            label
            for label in graph.labels
            if verdicts[label] and all(verdicts[inner] for inner in graph.reachable(label))
        }
        skipset = SkipSet(attempt, verdicts, other_safe)
    return StaticPlan(dtd=dtd, keys=keys, rules=rule_list, skipset=skipset)
