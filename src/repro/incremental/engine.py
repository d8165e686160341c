"""The incremental constraint plane: subtree deltas over a live document.

The batch planes answer "does this document satisfy Σ, and what does it
shred to?" by consuming the whole document.  For an *evolving* document —
an editor session, a feed of record updates — re-running them costs
O(corpus) per edit.  This module keeps a long-lived
:class:`IncrementalEngine` whose state is the document cut at its finest
anchor granularity (:func:`repro.xmlmodel.shards.split_subtrees`: one
piece per top-level child of the root), with one mergeable shard state
per piece:

* per table rule, the piece's :class:`~repro.transform.stream.RuleShardResult`
  (its per-anchor row blocks);
* per key set, the piece's :class:`~repro.keys.stream.CheckerShardResult`
  (its flushed contexts and root hash-index contributions, in shard-local
  node ids).

A delta — insert / delete / replace of one top-level subtree — then only
touches the states it names: the new fragment is tokenized and fed through
*fresh* consumers (O(fragment), the document is never re-read), the old
state is dropped, and answers re-merge from the per-piece states exactly
as the parallel plane merges its shards.  The merge guarantees of
:mod:`repro.parallel` carry over unchanged — node ids rebase by prefix
sums, root hash indexes concatenate associatively — so violations,
witnesses, detail strings, rows and row order are byte-identical to a
from-scratch re-run on the edited text (pinned by
``tests/property/test_incremental_differential.py``).

Cost model: applying a delta is O(fragment) to build the new state plus
O(constraint state) to re-merge answers — the latter proportional to the
number of violations and open root-index entries, never to the document.
The answer is re-merged as *raw* violations (key index, context id,
kind, node ids, key values: :data:`~repro.keys.stream.RawViolation`),
and the before/after bag differences compare those tuples directly, so
a delta renders only the violations it reports (``appeared`` and
``disappeared``); :meth:`violations` materializes the whole answer only
when asked.  The engine retains the current answer and nothing per
delta.  Materializing :meth:`instances` re-concatenates the row blocks
(O(output)); a database attached through
:class:`~repro.incremental.storage.DeltaStore` avoids even that on the
common path, receiving only the delta rows, encoded once by the shared
:func:`~repro.relational.sql.encode_row`.

Measured on the ~104k-node gate document (120 top-level pieces, 24 keys,
a log-mode sqlite store, 400 mixed deltas, 2-CPU container): the median
delta takes ~7 ms, of which building the fragment's state (tokenize plus
fresh consumers) is about half, the store's deletes, inserts and commit
about a quarter and the re-merge ~1 ms; the bag differences and the
store's row encoding take ~0.1 ms each (they took ~1.5 ms and ~0.6 ms
when every violation's key text and detail string was rendered to be
compared and every row was encoded value by value, and the median delta
was ~9 ms).  With
telemetry on, ``delta.apply`` splits into three spans per delta:
``delta.fragment`` (validate, tokenize, build the fresh states),
``delta.sync`` (plan and apply the store's changes; only with a store)
and ``delta.merge`` (re-merge and both bag differences).

Failure atomicity: a malformed fragment (the tokenizer's
:exc:`~repro.xmlmodel.parser.XMLSyntaxError` surfaces while the fresh
consumers drain it) or a rejected database sync raises *before* the
engine splices its state — the engine, and any attached database, stay on
the pre-delta document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Counter as CounterType, Dict, List, Optional, Sequence, Tuple, Union
)

from collections import Counter

from repro import obs
from repro.keys.key import XMLKey
from repro.keys.satisfaction import KeyViolation
from repro.keys.stream import (
    CheckerShardResult,
    RawViolation,
    context_buckets,
    materialize_violation,
    merge_raw_violations,
)
from repro.parallel import feed_shard
from repro.relational.instance import RelationInstance
from repro.relational.schema import DatabaseSchema
from repro.relational.sql import encode_row
from repro.transform.rule import TableRule, Transformation
from repro.transform.stream import (
    RuleShardResult,
    RuleStreamer,
    merge_rule_shards,
    relation_schema,
    root_attr_parts,
)
from repro.xmlmodel.events import Event
from repro.xmlmodel.parser import XMLSyntaxError
from repro.xmlmodel.shards import _scan_structure, fragment_events, split_subtrees

from repro.incremental.storage import Change, DeltaStore, Params


# ----------------------------------------------------------------------
# Deltas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Delta:
    """One subtree-level edit, addressed by top-level child position.

    ``position`` counts the root's element children in document order
    (the slice index of :func:`~repro.xmlmodel.shards.split_subtrees`).
    ``fragment`` is raw document text: exactly one element subtree,
    optionally followed by trailing text/comments (which ride with it, as
    slice boundaries always sit at a child's ``<``).
    """

    kind: str  # "insert" | "delete" | "replace"
    position: int
    fragment: Optional[str] = None


def insert(position: int, fragment: str) -> Delta:
    """A new subtree before the current ``position``-th child (``position ==
    subtree count`` appends)."""
    return Delta("insert", position, fragment)


def delete(position: int) -> Delta:
    """Remove the ``position``-th subtree (any text riding with it goes too)."""
    return Delta("delete", position)


def replace(position: int, fragment: str) -> Delta:
    """Swap the ``position``-th subtree for ``fragment``."""
    return Delta("replace", position, fragment)


@dataclass
class DeltaReport:
    """What one applied delta changed."""

    delta: Delta
    #: Top-level subtree count after the delta.
    subtrees: int
    #: Violations present after but not before the delta (bag difference).
    appeared: List[KeyViolation] = field(default_factory=list)
    #: Violations present before but not after.
    disappeared: List[KeyViolation] = field(default_factory=list)
    #: Total violations after the delta.
    violations: int = 0
    #: Rows the attached database inserted / deleted, per table (empty
    #: without an attached store).
    rows_inserted: Dict[str, int] = field(default_factory=dict)
    rows_deleted: Dict[str, int] = field(default_factory=dict)
    #: This delta's telemetry snapshot (``None`` when the observability
    #: plane is disabled).  Snapshots subtract exactly —
    #: ``merge(a, b).subtract(b) == a`` — so a cumulative registry minus
    #: one report's snapshot is the cumulative state without that delta.
    metrics: Optional[obs.MetricsSnapshot] = None


class _SubtreeState:
    """One top-level piece: its text, its mergeable per-consumer states and
    the gauge levels building it recorded."""

    __slots__ = ("fragment", "rules", "checker", "levels")

    def __init__(
        self,
        fragment: str,
        rules: List[RuleShardResult],
        checker: Optional[CheckerShardResult],
        levels: Optional[obs.MetricsSnapshot] = None,
    ) -> None:
        self.fragment = fragment
        self.rules = rules
        self.checker = checker
        self.levels = levels


def _recording_levels(build: Callable) -> Tuple[object, Optional[obs.MetricsSnapshot]]:
    """Run ``build()``; return its result and the gauges it recorded.

    Gauges are index sizes: the engine takes a piece's levels back
    (:func:`_take_back`) when the piece goes, so they describe the indexed
    document, not the history of its deltas.
    """
    if not obs.enabled():
        return build(), None
    ambient = obs.metrics()
    with obs.collect() as registry:
        try:
            result = build()
        finally:
            recorded = registry.snapshot()
            ambient.merge_snapshot(recorded)
    return result, obs.MetricsSnapshot(gauges=recorded.gauges)


def _take_back(levels: Optional[obs.MetricsSnapshot]) -> None:
    if levels is not None:
        obs.metrics().merge_snapshot(obs.MetricsSnapshot().subtract(levels))


def _bag_difference(
    after: Sequence[RawViolation], before: Sequence[RawViolation]
) -> List[RawViolation]:
    """Violations of ``after`` not matched (as a bag) in ``before``.

    Raw tuples compare in C: key index, context, kind, node ids and key
    values together determine the materialized violation, detail string
    included, so nothing is rendered to be compared.
    """
    counts: CounterType[RawViolation] = Counter(before)
    result: List[RawViolation] = []
    for violation in after:
        if counts.get(violation, 0) > 0:
            counts[violation] -= 1
        else:
            result.append(violation)
    return result


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class IncrementalEngine:
    """Maintain shredding and key satisfaction under subtree deltas.

    Construct with a transformation and/or keys (as the batch planes),
    :meth:`load` a document, then :meth:`apply` deltas.  :meth:`violations`,
    :meth:`instances` and :meth:`text` always describe the *current*
    document; :meth:`attach_store` keeps a database in step, receiving only
    delta rows.
    """

    def __init__(
        self,
        transformation: Optional[Union[Transformation, Sequence[TableRule]]] = None,
        keys: Optional[Sequence[XMLKey]] = None,
        schema: Optional[DatabaseSchema] = None,
        deduplicate: bool = True,
        plan=None,
    ) -> None:
        self.rules: List[TableRule] = (
            list(transformation) if transformation is not None else []
        )
        self.keys: List[XMLKey] = list(keys) if keys is not None else []
        if not self.rules and not self.keys:
            raise ValueError("IncrementalEngine needs a transformation, keys, or both")
        self._schema = schema
        self.deduplicate = deduplicate
        #: Optional :class:`~repro.xmlmodel.static.StaticPlan`; its skip set
        #: (compiled over at least these keys and rules — empty whenever a
        #: rule captures element values) fast-forwards schema-invisible
        #: subtrees when fragments are tokenized, states unchanged.
        self._skip = plan.skipset if plan is not None and plan.skipset else None
        #: One shard-mode template per rule; also the shardability gate.
        self._templates: List[RuleStreamer] = []
        for rule in self.rules:
            template = RuleStreamer(rule, shard_mode=True)
            if template.anchors_root_bound:
                raise ValueError(
                    f"rule for table {rule.relation!r} anchors at the document "
                    "root; such a rule needs the whole document as one subtree "
                    "and cannot be maintained incrementally"
                )
            self._templates.append(template)
        # Document state (set by load()).
        self._loaded = False
        self._header = ""
        self._footer = ""
        self._root_tag = ""
        self._prologue_events: Tuple[Event, ...] = ()
        self._prologue_ids = 0
        self._root_attr_parts: List[str] = []
        self._root_rules: List[RuleShardResult] = []
        self._root_checker: Optional[CheckerShardResult] = None
        self._states: List[_SubtreeState] = []
        # Gauges recorded by the root state and by the last checker merge.
        self._root_levels: Optional[obs.MetricsSnapshot] = None
        self._merge_levels: Optional[obs.MetricsSnapshot] = None
        #: Key indexes per context bucket: all the merge needs of the keys.
        self._buckets = context_buckets(self.keys)
        # Query caches, invalidated per delta.  The raw answer is the one
        # deltas diff against; materialized violations only exist while
        # someone asks for them.
        self._raw_cache: Optional[List[RawViolation]] = None
        self._violations_cache: Optional[List[KeyViolation]] = None
        self._instances_cache: Optional[Dict[str, RelationInstance]] = None
        self._store: Optional[DeltaStore] = None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, text: str) -> int:
        """Index a document for incremental maintenance; returns the number
        of top-level subtrees.

        The document must be sliceable at top-level child boundaries
        (:func:`~repro.xmlmodel.shards.split_subtrees`); anything the
        structural scan cannot cut with confidence — malformed markup, a
        childless root — raises :exc:`ValueError`, and the batch planes
        remain the right tool.
        """
        shards = split_subtrees(text)
        if shards is None:
            raise ValueError(
                "document cannot be incrementally indexed: the root has no "
                "element children or the structural scan rejected the markup"
            )
        self._header = text[: shards.content_start]
        self._footer = text[shards.content_end :]
        self._root_tag = shards.root_tag
        self._prologue_events = shards.prologue_events
        self._prologue_ids = shards.prologue_ids
        self._root_attr_parts = root_attr_parts(self._prologue_events)
        # The root's own state is shard 0 of the parallel worker protocol
        # with an empty slice: the rule streamers see the root ``attr``
        # events, the checker keeps its prologue effects, and its id
        # consumption equals the prologue — the fold's left identity.
        root, root_levels = _recording_levels(
            lambda: feed_shard(self._prologue_events, (), self.rules, self.keys, first=True)
        )
        states = []
        for index, piece in enumerate(shards.slices):
            try:
                states.append(self._process_fragment(shards.slice_text(index)))
            except XMLSyntaxError as error:
                # Report the offset in the document, as the batch planes do.
                raise error.shifted(piece.start) from None
        # A re-load replaces the whole index, gauge levels included.
        for levels in [self._root_levels, self._merge_levels] + [
            state.levels for state in self._states
        ]:
            _take_back(levels)
        self._root_rules, self._root_checker = root.rules, root.checker
        self._root_levels, self._merge_levels = root_levels, None
        self._states = states
        self._loaded = True
        self._invalidate()
        return len(self._states)

    def _process_fragment(self, fragment: str) -> _SubtreeState:
        """Build one piece's state by replaying prologue + fragment events.

        A non-first shard of the parallel worker protocol
        (:func:`repro.parallel.feed_shard`), so the root's contributions
        stay with the root state exactly once.  Fresh consumers each time:
        a tokenizer error raises here, before any engine state is spliced,
        at its offset in ``fragment``.
        """
        output, levels = _recording_levels(
            lambda: feed_shard(
                self._prologue_events,
                fragment_events(self._root_tag, fragment, skip=self._skip),
                self.rules,
                self.keys,
                first=False,
                skipping=self._skip is not None,
            )
        )
        return _SubtreeState(fragment, output.rules, output.checker, levels)

    def _validate_fragment(self, fragment: str) -> None:
        """Reject a delta fragment that is not one clean subtree.

        The fragment must scan exactly like a slice: a single top-level
        element starting at offset 0 (trailing text/comments may follow).
        Scanning the wrapped fragment with the same structural scanner
        that cut the document guarantees a future re-load of
        :meth:`text` slices at the same boundaries the engine maintains.
        """
        scan = _scan_structure(f"<{self._root_tag}>{fragment}</{self._root_tag}>")
        if scan is None:
            raise ValueError(
                "delta fragment is not well-formed content for this document"
            )
        _, _, content_start, _, child_offsets = scan
        if len(child_offsets) != 1:
            raise ValueError(
                f"delta fragment must contain exactly one top-level element, "
                f"found {len(child_offsets)}"
            )
        if child_offsets[0] != content_start:
            raise ValueError(
                "delta fragment must start at its element's '<' (leading text "
                "belongs to the preceding subtree)"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def subtree_count(self) -> int:
        return len(self._states)

    def fragment(self, position: int) -> str:
        """The raw text of one top-level piece."""
        return self._states[position].fragment

    def text(self) -> str:
        """The current document, byte-exact (header + pieces + footer)."""
        self._require_loaded()
        return self._header + "".join(s.fragment for s in self._states) + self._footer

    def _require_loaded(self) -> None:
        if not self._loaded:
            raise ValueError("no document loaded; call load() first")

    def _checker_results(self) -> List[CheckerShardResult]:
        results = [self._root_checker]
        results.extend(state.checker for state in self._states)
        return [result for result in results if result is not None]

    def _raw_violations(self) -> List[RawViolation]:
        """The current answer as raw violations, re-merged from the
        per-piece states when a delta invalidated it."""
        if not self.keys:
            return []
        if self._raw_cache is None:
            _take_back(self._merge_levels)
            self._raw_cache, self._merge_levels = _recording_levels(
                lambda: merge_raw_violations(
                    self._buckets, self._checker_results(), self._prologue_ids
                )
            )
        return self._raw_cache

    def _materialize(self, raws: Sequence[RawViolation]) -> List[KeyViolation]:
        keys = self.keys
        return [materialize_violation(keys[raw[0]], raw) for raw in raws]

    def violations(self) -> List[KeyViolation]:
        """All key violations of the current document — the serial checker's
        list, re-merged from the per-piece states."""
        self._require_loaded()
        if not self.keys:
            return []
        if self._violations_cache is None:
            self._violations_cache = self._materialize(self._raw_violations())
        return list(self._violations_cache)

    def _merge_rule(self, index: int, states: Sequence[_SubtreeState]) -> List[Dict]:
        shard_results = [self._root_rules[index]]
        shard_results.extend(state.rules[index] for state in states)
        return merge_rule_shards(
            self.rules[index],
            shard_results,
            deduplicate=self.deduplicate,
            root_attr_parts=self._root_attr_parts,
        )

    def instances(self) -> Dict[str, RelationInstance]:
        """The shredded relation instances of the current document."""
        self._require_loaded()
        if self._instances_cache is None:
            instances: Dict[str, RelationInstance] = {}
            for index, rule in enumerate(self.rules):
                instance = RelationInstance(relation_schema(rule, self._schema))
                for row in self._merge_rule(index, self._states):
                    instance.add_row(row)
                instances[rule.relation] = instance
            self._instances_cache = instances
        return dict(self._instances_cache)

    def _invalidate(self) -> None:
        self._raw_cache = None
        self._violations_cache = None
        self._instances_cache = None

    # ------------------------------------------------------------------
    # Database attachment
    # ------------------------------------------------------------------
    def attach_store(self, store: DeltaStore) -> Dict[str, int]:
        """Load the current document into ``store`` and keep it in step.

        Every subsequent :meth:`apply` sends the store its delta rows
        inside one savepoint; a rejected sync (strict-mode constraints)
        rolls the delta back everywhere.  Returns rows loaded per table.
        """
        self._require_loaded()
        if store.loader.deduplicate != self.deduplicate:
            raise ValueError(
                "the store's loader and the engine disagree on deduplicate; "
                "their row semantics must match"
            )
        bags: Dict[str, List[Params]] = {}
        finals: Dict[str, CounterType[Params]] = {}
        for index, rule in enumerate(self.rules):
            schema = relation_schema(rule, self._schema)
            if self._templates[index].single_anchor:
                rows: List[Params] = []
                for result in [self._root_rules[index]] + [
                    state.rules[index] for state in self._states
                ]:
                    rows.extend(
                        encode_row(schema, row) for row in result.anchor_rows[0]
                    )
                bags[rule.relation] = rows
            else:
                finals[rule.relation] = Counter(
                    encode_row(schema, row)
                    for row in self._merge_rule(index, self._states)
                )
        counts = store.initialize(self.instances(), bags, finals)
        self._store = store
        return counts

    def _plan_changes(
        self,
        old_state: Optional[_SubtreeState],
        new_state: Optional[_SubtreeState],
        candidate_states: List[_SubtreeState],
    ) -> Dict[str, Change]:
        changes: Dict[str, Change] = {}
        for index, rule in enumerate(self.rules):
            schema = relation_schema(rule, self._schema)
            if self._templates[index].single_anchor:
                removed = (
                    [encode_row(schema, row) for row in old_state.rules[index].anchor_rows[0]]
                    if old_state is not None
                    else []
                )
                added = (
                    [encode_row(schema, row) for row in new_state.rules[index].anchor_rows[0]]
                    if new_state is not None
                    else []
                )
                null_params: Params = (None,) * len(schema.attributes)
                changes[rule.relation] = ("bag", removed, added, null_params)
            else:
                changes[rule.relation] = (
                    "full",
                    Counter(
                        encode_row(schema, row)
                        for row in self._merge_rule(index, candidate_states)
                    ),
                )
        return changes

    # ------------------------------------------------------------------
    # Applying deltas
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> DeltaReport:
        """Apply one subtree delta; returns what changed.

        Order of operations keeps every failure mode atomic: the fragment
        is validated and fully tokenized into a fresh state first (syntax
        errors leave the engine untouched), the attached store syncs next
        (a rejection rolls its savepoint back and leaves the engine on the
        old document), and only then does the engine splice its state.

        With the observability plane enabled, everything the delta does
        is captured in its own registry; the snapshot lands on
        :attr:`DeltaReport.metrics` *and* merges into the ambient
        registry, so cumulative totals and per-delta views stay
        consistent (cumulative minus one snapshot == cumulative without
        that delta, exactly).
        """
        if not obs.enabled():
            return self._apply(delta)
        ambient = obs.metrics()
        with obs.collect() as registry:
            with obs.trace("delta.apply", kind=delta.kind):
                report = self._apply(delta)
        snapshot = registry.snapshot()
        ambient.merge_snapshot(snapshot)
        report.metrics = snapshot
        return report

    def _apply(self, delta: Delta) -> DeltaReport:
        self._require_loaded()
        count = len(self._states)
        if delta.kind == "insert":
            if not 0 <= delta.position <= count:
                raise IndexError(
                    f"insert position {delta.position} outside 0..{count}"
                )
        elif delta.kind in ("delete", "replace"):
            if not 0 <= delta.position < count:
                raise IndexError(
                    f"{delta.kind} position {delta.position} outside 0..{count - 1}"
                )
        else:
            raise ValueError(f"unknown delta kind {delta.kind!r}")

        new_state: Optional[_SubtreeState] = None
        with obs.trace("delta.fragment"):
            if delta.kind in ("insert", "replace"):
                if delta.fragment is None:
                    raise ValueError(f"{delta.kind} delta needs a fragment")
                self._validate_fragment(delta.fragment)
                new_state = self._process_fragment(delta.fragment)

        old_state: Optional[_SubtreeState] = None
        candidate = list(self._states)
        if delta.kind == "insert":
            candidate.insert(delta.position, new_state)  # type: ignore[arg-type]
        elif delta.kind == "delete":
            old_state = candidate.pop(delta.position)
        else:
            old_state = candidate[delta.position]
            candidate[delta.position] = new_state  # type: ignore[assignment]

        rows_inserted: Dict[str, int] = {}
        rows_deleted: Dict[str, int] = {}
        if self._store is not None:
            with obs.trace("delta.sync"):
                changes = self._plan_changes(old_state, new_state, candidate)
                rows_inserted, rows_deleted = self._store.apply(changes)

        with obs.trace("delta.merge"):
            before = self._raw_violations()
            # The point of no return: everything fallible has succeeded.
            if old_state is not None:
                _take_back(old_state.levels)
            self._states = candidate
            self._invalidate()
            after = self._raw_violations()
            appeared = self._materialize(_bag_difference(after, before))
            disappeared = self._materialize(_bag_difference(before, after))
        if obs.enabled():
            registry = obs.metrics()
            registry.inc("delta.applied", kind=delta.kind)
            if appeared:
                registry.inc("delta.violations_appeared", len(appeared))
            if disappeared:
                registry.inc("delta.violations_disappeared", len(disappeared))
            for table, count in rows_inserted.items():
                registry.inc("delta.rows_inserted", count, table=table)
            for table, count in rows_deleted.items():
                registry.inc("delta.rows_deleted", count, table=table)
        return DeltaReport(
            delta=delta,
            subtrees=len(self._states),
            appeared=appeared,
            disappeared=disappeared,
            violations=len(after),
            rows_inserted=rows_inserted,
            rows_deleted=rows_deleted,
        )
