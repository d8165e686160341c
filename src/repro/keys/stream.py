"""Single-pass streaming key satisfaction (Definition 2.1 over events).

:func:`repro.keys.satisfaction.violations` needs a full DOM and re-walks it
once per key: every context node is found by evaluating ``C`` from the root,
then ``T`` is evaluated under every context.  For the data-plane workloads
this module checks *all* keys in one pass over the event stream of
:mod:`repro.xmlmodel.events`:

* keys are bucketed by their (interned) context path, and every bucket's
  context is a slot of one context :class:`~repro.xmlmodel.matching.PathNFA`:
  the per-element context work is one memoised transition, whose state
  names the buckets matching the element (and the attribute names that
  complete a context);
* each bucket owns one more :class:`PathNFA` over its member keys' target
  paths (slot = key) — ten keys under the same context advance as one
  memoised transition, not ten;
* every context match opens a *context record* carrying a hash index from
  ``(key, attribute-value tuple)`` to the target nodes seen so far — the
  grouping Definition 2.1 quantifies over, built once instead of per pair;
* records flush when their context element closes: value groups with two or
  more targets become ``duplicate-value`` violations, targets lacking a key
  attribute were recorded as ``missing-attribute`` when they closed.

Node identifiers are assigned by counting events in document order —
element, then its attributes, then its content — which is exactly the
pre-order numbering of ``XMLTree.reindex`` (Figure 1), so the reported
``context_node_id``/``node_ids`` agree with the DOM checker verbatim.  The
agreement (same verdicts, same violation kinds, same witnesses) is pinned by
``tests/property/test_shred_differential.py``.

Sharded execution (the parallel plane of :mod:`repro.parallel`)
---------------------------------------------------------------

Violations are accumulated internally as *raw* tuples — ``(kind, node
ids, key values)`` — and only materialized into :class:`KeyViolation`
objects (with their human-readable details) by :meth:`finish`.  That makes
the per-document state mergeable: a checker fed one shard of the document
(:mod:`repro.xmlmodel.shards`) exports a :class:`CheckerShardResult`
holding its locally flushed contexts plus the partial hash indexes of the
one context that spans shards — the root — and
:func:`merge_shard_results` recombines any shard partition by rebasing the
shard-local node ids to absolute ones (prefix sums of per-shard id
consumption) and merging the root indexes associatively.  Duplicate values
whose witnesses live in *different* shards are therefore detected exactly
as in the serial pass, with DOM-identical witnesses, node ids and
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.keys.key import XMLKey
from repro.keys.satisfaction import KeyViolation
from repro.xmlmodel.events import (
    ATTR,
    END,
    SKIP,
    START,
    TEXT,
    Event,
    EventSource,
)
from repro.xmlmodel.matching import NFAState, PathNFA
from repro.xmlmodel.paths import PathExpression


class _KeyMachine:
    """One key of the checked set: its slot in its context bucket plus the
    precomputed pieces the hot loop needs."""

    __slots__ = ("index", "key", "attributes")

    def __init__(self, index: int, key: XMLKey) -> None:
        self.index = index
        self.key = key
        self.attributes = key.attribute_list


class _ContextBucket:
    """All keys sharing one context path.

    ``targets`` is one :class:`PathNFA` over the member keys' target paths
    (slot ``i`` is ``machines[i]``), so advancing *all* member targets below
    a context node costs one dictionary hit per element.
    """

    __slots__ = ("machines", "members", "targets")

    def __init__(self, machines: List[_KeyMachine]) -> None:
        self.machines = machines
        #: The member keys' indexes in the checked set, by slot.
        self.members = [machine.index for machine in machines]
        self.targets = PathNFA([machine.key.target for machine in machines])


def context_buckets(keys: Sequence[XMLKey]) -> List[List[int]]:
    """The checked set's key indexes grouped by context path — one list
    per context bucket, in bucket order, slot order within a bucket.

    This is the whole layout :func:`merge_raw_violations` needs to close
    the root's records, so a merge never compiles an automaton.
    """
    by_context: Dict[PathExpression, List[int]] = {}
    for index, key in enumerate(keys):
        by_context.setdefault(key.context, []).append(index)
    return list(by_context.values())


#: A violation of one context before materialization: ``(kind, node ids,
#: key values)``.  Kept raw (no :class:`KeyViolation`, no detail string)
#: so that node ids can still be rebased when shard-local results are
#: merged.
_ContextViolation = Tuple[str, Tuple[int, ...], Optional[Tuple[str, ...]]]

#: One flushed context: ``(key index, context node id, raw violations)``.
_FlushEntry = Tuple[int, int, List[_ContextViolation]]

#: A whole violation before materialization: ``(key index, context node
#: id, kind, node ids, key values)``.  Hashable and compared in C — the
#: form the incremental engine diffs answers in — and it determines the
#: :class:`KeyViolation` (detail string included) given the checked keys.
RawViolation = Tuple[int, int, str, Tuple[int, ...], Optional[Tuple[str, ...]]]


def _flush_groups(
    members: Sequence[int],
    context_node_id: int,
    groups: Dict[Tuple[int, Tuple[str, ...]], List[int]],
    missing: List[Tuple[int, int]],
) -> List[_FlushEntry]:
    """One context's raw violations per member key: (key index, context
    id, raws) — targets lacking a key attribute, then value groups holding
    two or more targets."""
    per_slot: Dict[int, List[_ContextViolation]] = {}
    for slot, node_id in missing:
        per_slot.setdefault(slot, []).append(("missing-attribute", (node_id,), None))
    for (slot, values), ids in groups.items():
        if len(ids) > 1:
            per_slot.setdefault(slot, []).append(("duplicate-value", tuple(ids), values))
    return [
        (members[slot], context_node_id, violations)
        for slot, violations in per_slot.items()
    ]


def _flatten(flushed: List[_FlushEntry]) -> List[RawViolation]:
    """Flushed contexts as raw violations, ordered by (key, context
    document order) — the order every checker reports in."""
    flushed.sort(key=lambda entry: (entry[0], entry[1]))
    return [
        (key_index, context_id, kind, node_ids, values)
        for key_index, context_id, violations in flushed
        for kind, node_ids, values in violations
    ]


def materialize_violation(key: XMLKey, raw: RawViolation) -> KeyViolation:
    """The user-facing violation of ``key`` (the checked set's key at
    ``raw[0]``) that a raw tuple stands for, detail string included."""
    _, context_id, kind, node_ids, values = raw
    if kind == "missing-attribute":
        detail = (
            f"target node {node_ids[0]} under context "
            f"{context_id} lacks one of the key attributes "
            f"{key.attribute_list}"
        )
    else:
        detail = (
            f"{len(node_ids)} distinct target nodes {node_ids} under context "
            f"{context_id} share the key value {values!r}"
        )
    return KeyViolation(
        key=key,
        context_node_id=context_id,
        kind=kind,
        detail=detail,
        node_ids=node_ids,
    )


class _ContextRecord:
    """One open context node of one bucket, with its target hash indexes."""

    __slots__ = ("bucket", "context_node_id", "groups", "missing")

    def __init__(self, bucket: _ContextBucket, context_node_id: int) -> None:
        self.bucket = bucket
        self.context_node_id = context_node_id
        #: (slot, key-attribute value tuple) → target node ids carrying it
        #: (the hash index replacing the pairwise scan of the DOM checker).
        self.groups: Dict[Tuple[int, Tuple[str, ...]], List[int]] = {}
        #: (slot, target node id) lacking a key attribute, in document order.
        self.missing: List[Tuple[int, int]] = []

    def add_target(self, slot: int, node_id: int, attrs: Optional[Dict[str, str]]) -> None:
        machine = self.bucket.machines[slot]
        values: Optional[Tuple[str, ...]]
        if attrs is None:
            # Attribute/text target nodes carry no attributes of their own.
            values = None if machine.attributes else ()
        else:
            collected: List[str] = []
            for name in machine.attributes:
                value = attrs.get(name)
                if value is None:
                    values = None
                    break
                collected.append(value)
            else:
                values = tuple(collected)
        if values is None:
            self.missing.append((slot, node_id))
            return
        self.groups.setdefault((slot, values), []).append(node_id)

    def flush(self) -> List[_FlushEntry]:
        """Raw violations per member key: (key index, context id, raws)."""
        return _flush_groups(
            self.bucket.members, self.context_node_id, self.groups, self.missing
        )


class _Frame:
    """Bookkeeping for one open element."""

    __slots__ = (
        "node_id",
        "attrs",
        "attr_ids",
        "context_state",
        "targets",
        "target_of",
        "records_here",
        "attrs_done",
    )

    def __init__(self, node_id: int, context_state: NFAState) -> None:
        self.node_id = node_id
        # Attribute maps are created lazily on the first attr event —
        # attribute-free elements (a majority in data-centric documents)
        # never allocate them.
        self.attrs: Optional[Dict[str, str]] = None
        self.attr_ids: Optional[Dict[str, int]] = None
        #: This element's state in the checker's context automaton.
        self.context_state = context_state
        #: Live (record, target state) pairs for the open context records
        #: whose targets can still reach below this element.
        self.targets: List[Tuple[_ContextRecord, NFAState]] = []
        #: (record, accepted slots) for which this *element* is a target
        #: (resolved once the attribute section is complete).
        self.target_of: List[Tuple[_ContextRecord, Tuple[int, ...]]] = []
        #: Records whose context node is this element (flushed at its end).
        self.records_here: List[_ContextRecord] = []
        self.attrs_done = False


class KeyStreamChecker:
    """Check a set of keys over an event stream in a single pass.

    Feed events with :meth:`feed`; :meth:`finish` returns every violation,
    ordered by (key, context document order).
    """

    def __init__(self, keys: Iterable[XMLKey]) -> None:
        keys = list(keys)
        self.machines = [_KeyMachine(index, key) for index, key in enumerate(keys)]
        self.buckets = [
            _ContextBucket([self.machines[index] for index in members])
            for members in context_buckets(keys)
        ]
        #: One automaton over every bucket's context path (slot = bucket).
        self.contexts = PathNFA([bucket.machines[0].key.context for bucket in self.buckets])
        self._frames: List[_Frame] = []
        self._next_id = 0
        self._flushed: List[_FlushEntry] = []
        self._bucket_index = {id(bucket): i for i, bucket in enumerate(self.buckets)}
        #: Node ids consumed by the shard prologue (set by begin_shard);
        #: ids below it are the root's own and are shard-invariant.
        self._prologue_ids = 0
        #: Depth inside a *dead region*: a subtree whose context state is
        #: dead and into which no open record's target automaton reaches.
        #: Nothing in such a region can match anything (an exact automaton
        #: fact — no schema trusted), so the checker only counts node ids
        #: until the region closes.
        self._dead_depth = 0
        self._dead_attrs: Optional[set] = None

    # ------------------------------------------------------------------
    def _open_record(self, bucket: _ContextBucket, frame: _Frame) -> None:
        record = _ContextRecord(bucket, frame.node_id)
        frame.records_here.append(record)
        state = bucket.targets.initial
        if not state.dead:
            frame.targets.append((record, state))
        if state.accepts:
            frame.target_of.append((record, state.accepts))

    def _resolve_attrs(self, frame: _Frame) -> None:
        """Process everything that had to wait for the attribute section.

        Runs when the first content event (or the end tag) of an element
        arrives: element targets read their key-attribute values, attribute
        nodes are matched as targets and as contexts.
        """
        frame.attrs_done = True
        # This element as a target.
        if frame.target_of:
            attrs = frame.attrs if frame.attrs is not None else {}
            for record, slots in frame.target_of:
                for slot in slots:
                    record.add_target(slot, frame.node_id, attrs)
        # Attribute nodes as targets / contexts — only where some state
        # can complete a path on an attribute.
        if frame.attr_ids:
            attr_targets = [
                (record, state.attrs) for record, state in frame.targets if state.attrs
            ]
            attr_contexts = frame.context_state.attrs
            if attr_targets or attr_contexts:
                for name, attr_id in frame.attr_ids.items():
                    for record, attrs in attr_targets:
                        for slot in attrs.get(name, ()):
                            record.add_target(slot, attr_id, None)
                    if attr_contexts is None:
                        continue
                    for bucket_index in attr_contexts.get(name, ()):
                        bucket = self.buckets[bucket_index]
                        record = _ContextRecord(bucket, attr_id)
                        for slot in bucket.targets.initial.accepts:
                            record.add_target(slot, attr_id, None)
                        self._flushed.extend(record.flush())

    # ------------------------------------------------------------------
    def feed(self, event: Event) -> None:
        kind = event.kind
        frames = self._frames
        if kind == START:
            if self._dead_depth:
                self._dead_depth += 1
                self._dead_attrs = None
                self._next_id += 1
                return
            node_id = self._next_id
            self._next_id += 1
            tag = event.name
            if frames:
                parent = frames[-1]
                if not parent.attrs_done:
                    self._resolve_attrs(parent)
                state = parent.context_state.moves.get(tag)
                if state is None:
                    state = self.contexts.move(parent.context_state, tag)
                if state.dead and not parent.targets:
                    # No context path can ever match at or below this
                    # element and no open record's targets reach into it:
                    # the subtree contributes node ids and nothing else.
                    self._dead_depth = 1
                    self._dead_attrs = None
                    return
                frame = _Frame(node_id, state)
                parent_targets = parent.targets
                if parent_targets:
                    frame_targets = frame.targets
                    frame_target_of = frame.target_of
                    for record, target in parent_targets:
                        advanced = target.moves.get(tag)
                        if advanced is None:
                            advanced = record.bucket.targets.move(target, tag)
                        if not advanced.dead:
                            frame_targets.append((record, advanced))
                            if advanced.accepts:
                                frame_target_of.append((record, advanced.accepts))
            else:
                state = self.contexts.initial
                frame = _Frame(node_id, state)
            for bucket_index in state.accepts:
                self._open_record(self.buckets[bucket_index], frame)
            frames.append(frame)
        elif kind == ATTR:
            if self._dead_depth:
                seen = self._dead_attrs
                if seen is None:
                    self._dead_attrs = {event.name}
                    self._next_id += 1
                elif event.name not in seen:
                    seen.add(event.name)
                    self._next_id += 1
                return
            frame = frames[-1]
            name = event.name
            attrs = frame.attrs
            if attrs is None:
                attrs = frame.attrs = {}
                frame.attr_ids = {}
            elif name in attrs:
                # XML allows at most one attribute per name; the DOM parser
                # replaces earlier occurrences, keeping the original slot.
                attrs[name] = event.value or ""
                return
            attrs[name] = event.value or ""
            frame.attr_ids[name] = self._next_id
            self._next_id += 1
        elif kind == TEXT:
            if self._dead_depth:
                self._next_id += 1
                return
            frame = frames[-1]
            if not frame.attrs_done:
                self._resolve_attrs(frame)
            self._next_id += 1  # text nodes occupy a document-order id
        elif kind == END:
            if self._dead_depth:
                self._dead_depth -= 1
                return
            frame = frames.pop()
            if not frame.attrs_done:
                self._resolve_attrs(frame)
            for record in frame.records_here:
                self._flushed.extend(record.flush())
        elif kind == SKIP:
            # The tokenizer fast-forwarded a whole subtree: advance the id
            # counter by the ids it would have consumed.
            if self._dead_depth:
                self._next_id += event.value
                return
            frame = frames[-1]
            if not frame.attrs_done:
                self._resolve_attrs(frame)
            self._next_id += event.value

    def finish(self) -> List[KeyViolation]:
        """All violations, ordered by key and context document order."""
        machines = self.machines
        found = [
            materialize_violation(machines[raw[0]].key, raw)
            for raw in _flatten(self._flushed)
        ]
        if obs.enabled():
            obs.metrics().inc("check.violations", len(found))
            self._record_index_sizes()
        return found

    def _record_index_sizes(self) -> None:
        """Index sizes are additive levels (gauges summed across shards and
        serial passes): flushed context records plus the memoised automaton
        transitions (at most ``MEMO_LIMIT`` per state)."""
        registry = obs.metrics()
        registry.gauge_add("check.flushed_contexts", len(self._flushed))
        registry.gauge_add(
            "check.nfa_memo_entries",
            self.contexts.memo_entries()
            + sum(bucket.targets.memo_entries() for bucket in self.buckets),
        )

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------
    def begin_shard(self, first: bool = True) -> None:
        """Mark the prologue/slice boundary of a shard replay.

        Call after feeding the shard prologue (the root ``start`` plus its
        ``attr`` events) and before the slice events.  Every shard replays
        the prologue so its automata and id counter line up, but its side
        effects — the root's own target entries, attribute-node contexts on
        the root — belong to the document once, so all shards except the
        first discard them here.
        """
        if not self._frames:
            raise ValueError("begin_shard() requires the prologue to be fed first")
        frame = self._frames[-1]
        if not frame.attrs_done:
            self._resolve_attrs(frame)
        self._prologue_ids = self._next_id
        if not first:
            for record in frame.records_here:
                record.groups.clear()
                record.missing.clear()
            self._flushed.clear()

    def shard_result(self) -> "CheckerShardResult":
        """Export this shard's mergeable state after its slice was fed.

        Locally flushed contexts keep their shard-local node ids (the merge
        rebases them); the still-open root records export their raw hash
        indexes so cross-shard duplicates are found at merge time.
        """
        if len(self._frames) != 1:
            raise ValueError("shard slice left a non-root element open")
        frame = self._frames[0]
        if not frame.attrs_done:
            self._resolve_attrs(frame)
        open_groups: Dict[int, Dict[Tuple[int, Tuple[str, ...]], List[int]]] = {}
        open_missing: Dict[int, List[Tuple[int, int]]] = {}
        for record in frame.records_here:
            bucket_index = self._bucket_index[id(record.bucket)]
            open_groups[bucket_index] = {k: list(v) for k, v in record.groups.items()}
            open_missing[bucket_index] = list(record.missing)
        if obs.enabled():
            self._record_index_sizes()
        return CheckerShardResult(
            flushed=list(self._flushed),
            open_groups=open_groups,
            open_missing=open_missing,
            consumed=self._next_id,
        )


@dataclass
class CheckerShardResult:
    """One shard's mergeable key-checking state (plain picklable values).

    ``flushed`` holds the contexts that opened *and* closed inside the
    shard; ``open_groups``/``open_missing`` hold, per context bucket, the
    partial hash indexes of the root record, which stays open across
    shards; ``consumed`` is the checker's final node-id counter (prologue
    included), from which the merge derives each shard's rebase offset.
    """

    flushed: List[_FlushEntry] = field(default_factory=list)
    open_groups: Dict[int, Dict[Tuple[int, Tuple[str, ...]], List[int]]] = field(
        default_factory=dict
    )
    open_missing: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    consumed: int = 0

    def merge(self, other: "CheckerShardResult", prologue_ids: int) -> "CheckerShardResult":
        """Append ``other``'s shard after this one's slices — in place.

        The binary, associative form of the :func:`merge_shard_results`
        rebase: ``other``'s shard-local node ids ``x`` become ``x`` when
        they name the root or one of its attributes (``x < prologue_ids``,
        shard-invariant) and ``x + delta`` otherwise, where ``delta`` is
        the ids this state's own slices consumed
        (``self.consumed - prologue_ids``).  Flushed contexts append,
        the root's partial hash indexes extend per group — exactly the
        serial accumulation order — and ``consumed`` adds up so further
        merges keep rebasing correctly.  ``other`` is left untouched.

        An "empty" state — ``CheckerShardResult(consumed=prologue_ids)`` —
        is the identity on the left: folding shard results into one in
        document order reproduces :func:`merge_shard_results`.
        """
        delta = self.consumed - prologue_ids
        if delta < 0:
            raise ValueError("merge target has consumed less than the prologue")

        def rebase(node_ids: Iterable[int]) -> List[int]:
            # One comprehension per id list, not a call per id: the
            # incremental engine folds every piece's state per delta.
            return [n if n < prologue_ids else n + delta for n in node_ids]

        self.flushed.extend(
            (
                key_index,
                context_id if context_id < prologue_ids else context_id + delta,
                [
                    (kind, tuple(rebase(node_ids)), values)
                    for kind, node_ids, values in violations
                ],
            )
            for key_index, context_id, violations in other.flushed
        )
        for bucket_index, groups in other.open_groups.items():
            target = self.open_groups.setdefault(bucket_index, {})
            for group_key, node_ids in groups.items():
                mine = target.get(group_key)
                if mine is None:
                    target[group_key] = rebase(node_ids)
                else:
                    mine.extend(rebase(node_ids))
        for bucket_index, missing in other.open_missing.items():
            self.open_missing.setdefault(bucket_index, []).extend(
                [(slot, n if n < prologue_ids else n + delta) for slot, n in missing]
            )
        self.consumed += other.consumed - prologue_ids
        return self

    def subtract(self, other: "CheckerShardResult", prologue_ids: int) -> "CheckerShardResult":
        """Retract ``other``'s shard from the tail — the inverse of merge.

        ``merge(a, b, p).subtract(b, p)`` restores ``a``: ``other`` must be
        the most recently merged shard, so its entries — rebased with the
        delta the merge used (recovered as ``self.consumed -
        other.consumed``) — are the suffixes of this state's flushed list
        and per-group root indexes.  Every suffix is verified before it is
        dropped (a state that was never merged raises), and group/missing
        lists that empty out disappear so the subtracted state is
        structurally identical to the pre-merge one.  Cost is proportional
        to ``other``'s entries, not to the document.
        """
        delta = self.consumed - other.consumed
        if delta < 0:
            raise ValueError(
                "cannot subtract a shard that consumed more ids than this state"
            )

        def rebase(node_id: int) -> int:
            return node_id if node_id < prologue_ids else node_id + delta

        count = len(other.flushed)
        if count:
            expected = [
                (
                    key_index,
                    rebase(context_id),
                    [
                        (kind, tuple(rebase(n) for n in node_ids), values)
                        for kind, node_ids, values in violations
                    ],
                )
                for key_index, context_id, violations in other.flushed
            ]
            if len(self.flushed) < count or self.flushed[-count:] != expected:
                raise ValueError(
                    "subtracted shard is not the flushed suffix of this state"
                )
            del self.flushed[-count:]
        for bucket_index, groups in other.open_groups.items():
            target = self.open_groups.get(bucket_index)
            if target is None and groups:
                raise ValueError(
                    "subtracted shard names a context bucket absent from this state"
                )
            for group_key, node_ids in groups.items():
                expected_ids = [rebase(n) for n in node_ids]
                mine = target.get(group_key) if target is not None else None
                if mine is None or len(mine) < len(expected_ids) or (
                    mine[len(mine) - len(expected_ids):] != expected_ids
                ):
                    raise ValueError(
                        "subtracted shard is not the open-group suffix of this state"
                    )
                del mine[len(mine) - len(expected_ids):]
                if not mine:
                    del target[group_key]
        for bucket_index, missing in other.open_missing.items():
            if not missing:
                continue
            mine = self.open_missing.get(bucket_index)
            expected_missing = [(slot, rebase(n)) for slot, n in missing]
            if mine is None or len(mine) < len(expected_missing) or (
                mine[len(mine) - len(expected_missing):] != expected_missing
            ):
                raise ValueError(
                    "subtracted shard is not the open-missing suffix of this state"
                )
            del mine[len(mine) - len(expected_missing):]
        self.consumed = delta + prologue_ids
        return self


def merge_raw_violations(
    buckets: Sequence[Sequence[int]],
    results: Sequence[CheckerShardResult],
    prologue_ids: int,
) -> List[RawViolation]:
    """Merge per-shard checker states into the serial checker's answer,
    as raw violations (see :func:`merge_shard_results`).

    ``buckets`` is :func:`context_buckets` of the checked keys; the root's
    records close here, in no shard.
    """
    # Fold the binary, associative merge in document order; an "empty"
    # state whose counter sits right after the prologue is the identity.
    merged = CheckerShardResult(consumed=prologue_ids)
    for result in results:
        merged.merge(result, prologue_ids)
    flushed = merged.flushed
    in_shards = len(flushed)
    for bucket_index in sorted(set(merged.open_groups) | set(merged.open_missing)):
        flushed.extend(
            _flush_groups(
                buckets[bucket_index],
                0,
                merged.open_groups.get(bucket_index, {}),
                merged.open_missing.get(bucket_index, []),
            )
        )
    if obs.enabled():
        # The root's context records close here, in no shard: their
        # flushes complete the serial pass's ``check.flushed_contexts``.
        obs.metrics().gauge_add("check.flushed_contexts", len(flushed) - in_shards)
    return _flatten(flushed)


def merge_shard_results(
    keys: Iterable[XMLKey],
    results: Sequence[CheckerShardResult],
    prologue_ids: int,
) -> List[KeyViolation]:
    """Merge per-shard checker states into the serial checker's output.

    ``results`` must be in document (shard) order.  Shard-local node ids
    are rebased to absolute ones — id ``x`` of shard ``k`` becomes ``x``
    if it names the root or one of its attributes (``x < prologue_ids``),
    else ``x`` plus the ids consumed by the preceding slices — and the
    root's partial hash indexes are merged in order, so value groups keep
    their first-occurrence order and cross-shard duplicates surface with
    exactly the witnesses the serial pass reports.
    """
    keys = list(keys)
    return [
        materialize_violation(keys[raw[0]], raw)
        for raw in merge_raw_violations(context_buckets(keys), results, prologue_ids)
    ]


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def stream_violations(
    source: EventSource,
    keys: Union[XMLKey, Iterable[XMLKey]],
    jobs: Optional[int] = None,
    plan=None,
) -> List[KeyViolation]:
    """All violations of ``keys`` on the document, in one streaming pass.

    ``keys`` may be a single key or any iterable of keys; the stream is
    consumed exactly once regardless of how many keys are checked.
    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, else 1)
    selects the executor of :func:`repro.parallel.run_pipeline`: values
    above 1 shard text and path sources onto a process pool with identical
    output, falling back to the serial pass whenever the document cannot
    be sharded.
    ``plan`` is an optional :class:`~repro.xmlmodel.static.StaticPlan`
    compiled over (at least) these keys: its skip set lets the tokenizer
    fast-forward subtrees no key path can reach, with identical output —
    the skip plane verifies every skipped tag, so the guarantee holds on
    documents that violate the plan's DTD too.
    """
    if isinstance(keys, XMLKey):
        keys = [keys]
    from repro.parallel import run_pipeline

    return run_pipeline(source, keys=keys, jobs=jobs, plan=plan).violations


def stream_satisfies(
    source: EventSource,
    keys: Union[XMLKey, Iterable[XMLKey]],
    jobs: Optional[int] = None,
    plan=None,
) -> bool:
    """``T ⊨ Σ`` decided in a single pass over the event stream."""
    return not stream_violations(source, keys, jobs=jobs, plan=plan)
