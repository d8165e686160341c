"""The parallel execution plane: shard → map → merge over process workers.

The data-level pipeline (shred a document under a transformation, check key
satisfaction) is embarrassingly parallel at anchor-subtree granularity:
:mod:`repro.xmlmodel.shards` cuts a document into self-contained event
slices, each worker runs the ordinary streaming consumers
(:class:`~repro.transform.stream.RuleStreamer` in shard mode,
:class:`~repro.keys.stream.KeyStreamChecker`) over its slice, and the
per-shard states merge associatively back into the serial answer —
byte-identical rows, verdicts, witnesses and node ids, pinned by
``tests/property/test_parallel_differential.py``.

This module is the thin coordinator on top of those mergeable states:

* :func:`resolve_jobs` — the ``jobs=`` / ``REPRO_JOBS`` switch (1 = the
  serial plane, 0 = one worker per CPU);
* :func:`run_sharded` — the end-to-end pipeline: split, map the shards
  onto a :class:`~concurrent.futures.ProcessPoolExecutor` (shredding and
  key checking share one pass per shard), merge.  It degrades to the
  serial single-pass plane whenever sharding is impossible (non-string
  source, a childless root, a rule whose anchor binds the document root,
  fewer than two shards) — parallelism is an executor choice, never a
  semantics change.

Worker protocol
---------------

Shard ``k`` replays the shared prologue (the root element's ``start`` and
``attr`` events) so its automata stacks and node-id counter start exactly
where the serial pass would be, then feeds its slice.  Prologue *side
effects* (rows from attribute-anchored variables on the root, the root as
its own key target) belong to the document once: the rule streamers of
shards ``k > 0`` skip the prologue ``attr`` events, and the key checker
discards its prologue effects in :meth:`KeyStreamChecker.begin_shard`.
Workers are initialized once per process with the pickled payload
(document text, rules, keys); each task then returns one picklable
:class:`ShardOutput`.  When the coordinator is handed a *path* to an
ASCII document, the payload carries the path and the slice table instead
of the text (:class:`~repro.xmlmodel.shards.MappedDocumentShards`): each
worker ``mmap``-s the file and feeds its byte range to the tokenizer as a
:class:`memoryview` — zero-copy sharding; document bytes are never
pickled or duplicated per worker.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro import obs
from repro.keys.key import XMLKey
from repro.keys.satisfaction import KeyViolation
from repro.keys.stream import (
    CheckerShardResult,
    KeyStreamChecker,
    merge_shard_results,
)
from repro.relational.instance import RelationInstance
from repro.relational.schema import DatabaseSchema
from repro.transform.rule import TableRule
from repro.transform.stream import (
    RuleShardResult,
    RuleStreamer,
    StreamShredder,
    merge_rule_shards,
    record_shred_rows,
)
from repro.xmlmodel.events import ATTR, SKIP, iter_events
from repro.xmlmodel.shards import (
    DocumentShards,
    MappedDocumentShards,
    map_document_shards,
    split_document,
)

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"

#: Shards per worker: slightly over-decomposing smooths the load when
#: top-level subtrees have uneven sizes.
SHARD_FACTOR = 2


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1.

    ``0`` means "one worker per CPU"; negative values are rejected.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class ShardOutput:
    """Everything one shard contributes: per-rule states + checker state.

    ``skipped_subtrees`` counts the subtrees the skip plane fast-forwarded
    inside this shard — pure telemetry for the static-optimization plane.
    ``metrics`` is the shard's telemetry snapshot when the coordinator ran
    with the observability plane enabled (``None`` otherwise); snapshots
    merge associatively, so the coordinator folds them into totals
    identical to a serial pass.
    """

    rules: List[RuleShardResult]
    checker: Optional[CheckerShardResult]
    skipped_subtrees: int = 0
    metrics: Optional[obs.MetricsSnapshot] = None


class _ShardWorker:
    """Per-process state: the payload plus the shard-processing loop."""

    def __init__(
        self,
        shards: Union[DocumentShards, MappedDocumentShards],
        rules: Sequence[TableRule],
        keys: Sequence[XMLKey],
        strip_whitespace: bool,
        engine: Optional[str] = None,
        skip=None,
        metrics_enabled: bool = False,
    ) -> None:
        self.shards = shards
        self.rules = list(rules)
        self.keys = list(keys)
        self.strip_whitespace = strip_whitespace
        self.engine = engine
        #: Optional :class:`~repro.xmlmodel.static.SkipSet`; plain picklable
        #: data, shipped to the workers with the rest of the payload.
        self.skip = skip
        #: Telemetry travels in the payload, not the environment: a child
        #: process spawned without ``REPRO_METRICS`` still collects when
        #: the coordinator had the plane enabled.
        self.metrics_enabled = metrics_enabled

    def run(self, index: int) -> ShardOutput:
        if not self.metrics_enabled:
            return self._run(index)
        with obs.collect() as registry:
            output = self._run(index)
        output.metrics = registry.snapshot()
        return output

    def _run(self, index: int) -> ShardOutput:
        first = index == 0
        streamers = [RuleStreamer(rule, shard_mode=True) for rule in self.rules]
        checker = KeyStreamChecker(self.keys) if self.keys else None
        skipped = 0
        events = 0
        elided = 0
        for event in self.shards.prologue_events:
            if checker is not None:
                checker.feed(event)
            if first or event.kind != ATTR:
                for streamer in streamers:
                    streamer.feed(event)
        if checker is not None:
            checker.begin_shard(first=first)
        if first:
            # The prologue belongs to the document once; shards k > 0
            # replay it for automaton state only, so only shard 0 counts
            # its events — summed shard counters then equal one serial
            # pass exactly.
            events = len(self.shards.prologue_events)
        for event in self.shards.shard_events(
            index,
            strip_whitespace=self.strip_whitespace,
            engine=self.engine,
            skip=self.skip,
        ):
            events += 1
            if event.kind == SKIP:
                skipped += 1
                elided += event.value
            for streamer in streamers:
                streamer.feed(event)
            if checker is not None:
                checker.feed(event)
        if self.metrics_enabled:
            registry = obs.metrics()
            registry.inc("pipeline.events", events)
            if skipped:
                registry.inc("pipeline.skips", skipped)
                registry.inc("pipeline.elided_ids", elided)
        return ShardOutput(
            rules=[streamer.shard_result() for streamer in streamers],
            checker=checker.shard_result() if checker is not None else None,
            skipped_subtrees=skipped,
        )


_WORKER: Optional[_ShardWorker] = None


def _init_worker(worker: _ShardWorker) -> None:
    global _WORKER
    _WORKER = worker


def _run_shard(index: int) -> ShardOutput:
    assert _WORKER is not None, "worker process was not initialized"
    return _WORKER.run(index)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class ShardedRun:
    """The merged result of one pipeline run.

    ``instances`` is ``None`` when no transformation was given,
    ``violations`` is ``None`` when no keys were given.  ``shards`` is the
    number of shards actually executed (1 = the serial fallback ran).
    ``skipped_subtrees`` counts the subtrees the static-plane skip set
    fast-forwarded across all shards (0 when no plan was given).
    """

    instances: Optional[Dict[str, RelationInstance]]
    violations: Optional[List[KeyViolation]]
    shards: int = 1
    skipped_subtrees: int = 0


def _relation_schema(rule: TableRule, schema: Optional[DatabaseSchema]):
    if schema is not None and rule.relation in schema:
        return schema.relation(rule.relation)
    return rule.schema()


def _run_serial(
    source,
    rules: Sequence[TableRule],
    keys: Sequence[XMLKey],
    schema: Optional[DatabaseSchema],
    deduplicate: bool,
    strip_whitespace: bool,
    engine: Optional[str] = None,
    skip=None,
) -> ShardedRun:
    """The PR-3 single-pass plane: shredder and checker share one walk."""
    shredder = (
        StreamShredder(rules if isinstance(rules, list) else list(rules),
                       schema=schema, deduplicate=deduplicate)
        if rules
        else None
    )
    checker = KeyStreamChecker(keys) if keys else None
    skipped = 0
    events = 0
    elided = 0
    for event in iter_events(
        source, strip_whitespace=strip_whitespace, engine=engine, skip=skip
    ):
        events += 1
        if event.kind == SKIP:
            skipped += 1
            elided += event.value
        if shredder is not None:
            shredder.feed(event)
        if checker is not None:
            checker.feed(event)
    if obs.enabled():
        registry = obs.metrics()
        registry.inc("pipeline.events", events)
        if skipped:
            registry.inc("pipeline.skips", skipped)
            registry.inc("pipeline.elided_ids", elided)
    return ShardedRun(
        instances=shredder.finish() if shredder is not None else None,
        violations=checker.finish() if checker is not None else None,
        shards=1,
        skipped_subtrees=skipped,
    )


def run_sharded(
    source,
    transformation: Optional[Iterable[TableRule]] = None,
    keys: Optional[Iterable[XMLKey]] = None,
    schema: Optional[DatabaseSchema] = None,
    deduplicate: bool = True,
    strip_whitespace: bool = True,
    jobs: Optional[int] = None,
    use_processes: Optional[bool] = None,
    engine: Optional[str] = None,
    executor=None,
    plan=None,
) -> ShardedRun:
    """Shred and/or key-check a document on the sharded execution plane.

    ``source`` is the document text, or a filesystem path
    (:class:`os.PathLike`) — the zero-copy path: the coordinator scans the
    document once to build the slice table, but ships only the path and
    byte ranges to the workers, which ``mmap`` the file themselves and
    feed their slice to the tokenizer without copying it (ASCII documents
    only; byte/character offsets must agree.  Non-ASCII files degrade to
    the in-memory text plane).  ``transformation`` is any iterable of
    table rules (a :class:`~repro.transform.rule.Transformation` works
    as-is); ``keys`` any iterable of XML keys; both are optional and share
    one pass per shard.  ``jobs`` picks the worker count
    (:func:`resolve_jobs`); ``use_processes=False`` runs the shard tasks
    in-process — the same shard/map/merge code path without the pool,
    which is what the differential test suite exercises at scale.
    ``engine`` selects the tokenizer backend per
    :func:`repro.xmlmodel.events.iter_events`.  ``executor`` reuses an
    existing :class:`concurrent.futures.Executor` for the shard tasks
    instead of spinning up (and tearing down) a process pool per call —
    the shape a long-lived service wants; the worker payload is shipped
    with each task, so any executor whose workers can unpickle it works
    (including a thread pool).  ``plan`` is an optional compiled
    :class:`~repro.xmlmodel.static.StaticPlan`; it must have been compiled
    over (at least) these keys and rules — its skip set then fast-forwards
    schema-invisible subtrees inside every shard, output unchanged
    (:func:`repro.xmlmodel.static.compile_plan` empties the skip set itself
    whenever any rule captures element values).

    The output is byte-identical to the serial streaming plane (and hence
    to the DOM plane): same rows in the same order, same verdicts, same
    witness node ids and detail strings.
    """
    rules = list(transformation) if transformation is not None else []
    key_list = list(keys) if keys is not None else []
    if not rules and not key_list:
        raise ValueError("run_sharded() needs a transformation, keys, or both")
    skip = plan.skipset if plan is not None and plan.skipset else None

    path: Optional[str] = None
    if hasattr(source, "__fspath__"):
        path = os.fspath(source)
        with open(path, "rb") as handle:
            raw = handle.read()
        if raw.isascii():
            source = raw.decode("ascii")
        else:
            # Byte slice offsets would not match the structural scan's
            # character offsets: fall back to shipping text slices.
            source = raw.decode("utf-8")
            path = None
        del raw

    worker_count = resolve_jobs(jobs)
    shards: Optional[Union[DocumentShards, MappedDocumentShards]] = None
    if worker_count > 1 and isinstance(source, str):
        shards = split_document(source, worker_count * SHARD_FACTOR)
    if shards is not None and any(
        RuleStreamer(rule, shard_mode=True).anchors_root_bound for rule in rules
    ):
        # An anchor binding the document root needs the whole document as
        # one subtree; semantics before parallelism.
        shards = None
    if shards is None:
        return _run_serial(
            source, rules, key_list, schema, deduplicate, strip_whitespace, engine,
            skip,
        )
    if path is not None:
        shards = map_document_shards(shards, path)

    worker = _ShardWorker(
        shards, rules, key_list, strip_whitespace, engine, skip,
        metrics_enabled=obs.enabled(),
    )
    indices = range(len(shards))
    if use_processes is None:
        use_processes = True
    if executor is not None:
        outputs = list(executor.map(worker.run, indices))
    elif use_processes:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(worker_count, len(shards)),
            initializer=_init_worker,
            initargs=(worker,),
        ) as pool:
            outputs = list(pool.map(_run_shard, indices))
    else:
        outputs = [worker.run(index) for index in indices]

    if obs.enabled():
        # Worker snapshots merge associatively into the coordinator's
        # registry — identical totals to one serial pass for every
        # deterministic counter (events, skips, elided ids).
        registry = obs.metrics()
        for output in outputs:
            if output.metrics is not None:
                registry.merge_snapshot(output.metrics)
        # The document's closing root END never reaches a worker (the
        # merge closes the root logically); count it here so the shard
        # totals equal the serial pass event-for-event.
        registry.inc("pipeline.events", 1)

    instances: Optional[Dict[str, RelationInstance]] = None
    if rules:
        # One part per distinct attribute name, last value winning — the
        # state the DOM holds after parsing a duplicated attribute.
        root_attrs: Dict[str, Optional[str]] = {}
        for event in shards.prologue_events:
            if event.kind == ATTR:
                root_attrs[event.name] = event.value
        root_attr_parts = [
            f"@{name}:{value}" for name, value in root_attrs.items()
        ]
        instances = {}
        for rule_index, rule in enumerate(rules):
            rows = merge_rule_shards(
                rule,
                [output.rules[rule_index] for output in outputs],
                deduplicate=deduplicate,
                root_attr_parts=root_attr_parts,
            )
            instance = RelationInstance(_relation_schema(rule, schema))
            for row in rows:
                instance.add_row(row)
            instances[rule.relation] = instance
        # The sharded plane only knows the final rows after the merge, and
        # the byte-identical-output guarantee makes them the serial counts.
        record_shred_rows(instances)

    violations: Optional[List[KeyViolation]] = None
    if key_list:
        violations = merge_shard_results(
            key_list,
            [output.checker for output in outputs if output.checker is not None],
            prologue_ids=shards.prologue_ids,
        )
        if obs.enabled():
            obs.metrics().inc("check.violations", len(violations))

    return ShardedRun(
        instances=instances,
        violations=violations,
        shards=len(shards),
        skipped_subtrees=sum(output.skipped_subtrees for output in outputs),
    )
