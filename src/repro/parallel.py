"""The pipeline driver: one event loop for the data level, serial or sharded.

The paper's data level is one job: a transformation σ shreds a document
into relations while the XML keys Σ are checked on the same document.
:func:`run_pipeline` drives that job for every caller — ``check-doc``,
``shred`` and ``load``, :func:`~repro.keys.stream.stream_violations`,
:meth:`~repro.transform.stream.StreamShredder.run`,
:meth:`~repro.storage.loader.BulkLoader.load_document` and
:func:`~repro.xmlmodel.dtd.stream_dtd_violations`.  It tokenizes the
document once, feeds the rule streamers, the key checker and the
streaming DTD validator from one loop (:func:`_pump`, the only recorder
of ``pipeline.*`` telemetry), and picks the executor:

* ``jobs=1`` (:func:`resolve_jobs`: explicit ``jobs``, else
  ``REPRO_JOBS``, else 1) is the serial arm — a path goes straight to the
  tokenizer, never read into memory here;
* ``jobs > 1`` is the shard → map → merge arm: the document is cut at
  top-level anchor boundaries (:mod:`repro.xmlmodel.shards`), every shard
  runs the same consumers in shard mode (:func:`feed_shard`) on a
  process pool, and the shard states merge associatively into the serial
  answer — byte-identical rows, verdicts, witnesses, node ids, counters
  and syntax errors, pinned by ``tests/property/test_parallel_differential.py``.
  It degrades to the serial arm whenever sharding is impossible (a source
  that is neither text nor a path, a childless root, a rule whose anchor
  binds the document root, fewer than two shards).  Streaming DTD
  validation is single-pass by nature: a DTD with ``jobs > 1`` is a
  :exc:`ValueError`.

Worker protocol: shard ``k`` replays the shared prologue (the root's
``start`` and ``attr`` events) so its automata and node-id counter start
where the serial pass would be, then feeds its slice.  Prologue side
effects belong to the document once: the rule streamers of shards
``k > 0`` skip the prologue ``attr`` events and the key checker discards
its prologue effects in :meth:`KeyStreamChecker.begin_shard`.  The
incremental engine (:mod:`repro.incremental.engine`) builds its
per-subtree states with the same :func:`feed_shard`.  Workers are
initialized once per process with the payload, the document text and its
slice table (:class:`~repro.xmlmodel.shards.DocumentShards`) whatever the
source's encoding; under the ``fork`` start method they inherit it
without pickling.  Each worker replays its slice as text.  A slice that is
not well-formed raises the tokenizer's
:exc:`~repro.xmlmodel.parser.XMLSyntaxError`, rebased from the slice to
the document offset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

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
    merge_rule_shards,
    record_shred_rows,
    relation_schema,
    root_attr_parts,
)
from repro.xmlmodel.events import ATTR, SKIP, Event, as_events, read_document
from repro.xmlmodel.parser import XMLSyntaxError
from repro.xmlmodel.shards import DocumentShards, cut_document

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"

#: Shards per worker: slightly over-decomposing smooths the load when
#: top-level subtrees have uneven sizes.
SHARD_FACTOR = 2

#: A row consumer: called once per shredded row, in serial row order.
RowSink = Callable[[Dict], object]

#: Metrics whose values depend on how a run was cut: one tokenizer call
#: per shard, automaton memo tables grown separately in every shard, and
#: the number of shards itself.  Every other counter and gauge a run
#: records is identical on the serial and the sharded arm
#: (``tests/test_parallel.py::TestMetricParity`` reads this tuple).
SHARD_DEPENDENT_METRICS = ("tokenizer.calls", "check.nfa_memo_entries", "shard.count")

#: ``reason`` labels of ``shard.fallback``, counted each time a run asked
#: for ``jobs > 1`` executes on the serial arm: the source is neither text
#: nor a path, a rule's anchor binds the document root, or the splitter
#: declined (:data:`~repro.xmlmodel.shards.UNSLICEABLE`,
#: :data:`~repro.xmlmodel.shards.ONE_SLICE`).
FALLBACK_SOURCE = "source"
FALLBACK_ROOT_ANCHOR = "root-anchor"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1.

    ``0`` means "one worker per CPU this process may run on"; negative
    values are rejected.
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
        # The CPUs this process may run on (a container or ``taskset``
        # limit shows in the affinity mask, not in ``os.cpu_count()``).
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# The event loop
# ----------------------------------------------------------------------
def _record_events(events: int, skips: int = 0, elided: int = 0) -> None:
    if obs.enabled():
        registry = obs.metrics()
        registry.inc("pipeline.events", events)
        if skips:
            registry.inc("pipeline.skips", skips)
            registry.inc("pipeline.elided_ids", elided)


def _pump(
    stream: Iterable[Event],
    feeds: Sequence[Callable[[Event], None]],
    skipping: bool,
    counted: int = 0,
) -> int:
    """Feed every event to every consumer; return the skipped subtrees.

    The loop variant is chosen once, outside the loop: a bare loop over
    the bound ``feed`` without telemetry or skip set, one increment per
    event with telemetry, the ``skip``-event tally with a skip set.
    ``counted`` replayed events (a shard prologue) join ``pipeline.events``.
    """
    if len(feeds) == 1:
        feed = feeds[0]
    else:
        def feed(event: Event) -> None:
            for consumer in feeds:
                consumer(event)
    events = skips = elided = 0
    if skipping:
        for event in stream:
            events += 1
            if event.kind == SKIP:
                skips += 1
                elided += event.value
            feed(event)
    elif obs.enabled():
        for event in stream:
            events += 1
            feed(event)
    else:
        for event in stream:
            feed(event)
    _record_events(events + counted, skips, elided)
    return skips


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class ShardOutput:
    """Everything one shard contributes: per-rule states + checker state.

    ``metrics`` is the shard's telemetry snapshot when the coordinator had
    the plane enabled; snapshots merge associatively into serial totals.
    """

    rules: List[RuleShardResult]
    checker: Optional[CheckerShardResult]
    skipped_subtrees: int = 0
    metrics: Optional[obs.MetricsSnapshot] = None


def feed_shard(
    prologue_events: Sequence[Event],
    events: Iterable[Event],
    rules: Sequence[TableRule],
    keys: Sequence[XMLKey],
    first: bool,
    skipping: bool = False,
) -> ShardOutput:
    """Replay the shared prologue, then feed one slice: one shard's state.

    Only the ``first`` shard keeps (and counts) the prologue's side
    effects, so summed shard states and counters equal one serial pass.
    """
    streamers = [RuleStreamer(rule, shard_mode=True) for rule in rules]
    checker = KeyStreamChecker(keys) if keys else None
    for event in prologue_events:
        if checker is not None:
            checker.feed(event)
        if first or event.kind != ATTR:
            for streamer in streamers:
                streamer.feed(event)
    feeds = [streamer.feed for streamer in streamers]
    if checker is not None:
        checker.begin_shard(first=first)
        feeds.append(checker.feed)
    skipped = _pump(events, feeds, skipping, len(prologue_events) if first else 0)
    return ShardOutput(
        rules=[streamer.shard_result() for streamer in streamers],
        checker=checker.shard_result() if checker is not None else None,
        skipped_subtrees=skipped,
    )


@dataclass
class _ShardWorker:
    """Per-process payload.  Telemetry travels here, not in the
    environment: a worker spawned without ``REPRO_METRICS`` still collects
    when the coordinator had the plane enabled."""

    shards: DocumentShards
    rules: Sequence[TableRule]
    keys: Sequence[XMLKey]
    skip: object = None  # an optional, picklable SkipSet
    metrics_enabled: bool = False

    def run(self, index: int) -> ShardOutput:
        if not self.metrics_enabled:
            return self._run(index)
        with obs.collect() as registry:
            output = self._run(index)
        output.metrics = registry.snapshot()
        return output

    def _run(self, index: int) -> ShardOutput:
        shards = self.shards
        slice_events = shards.shard_events(index, skip=self.skip)
        try:
            return feed_shard(
                shards.prologue_events, slice_events, self.rules, self.keys,
                first=index == 0, skipping=self.skip is not None,
            )
        except XMLSyntaxError as error:
            # The slice was tokenized inside a synthetic ``<root>`` wrapper.
            wrapper = len(shards.root_tag) + 2
            raise error.shifted(shards.slices[index].start - wrapper) from None


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

    ``instances`` is ``None`` without rules or when rows went to sinks,
    ``violations`` without keys, ``dtd_violations`` without a DTD.
    ``shards`` counts the shards executed (1 = the serial arm ran);
    ``skipped_subtrees`` the subtrees a plan's skip set fast-forwarded.
    """

    instances: Optional[Dict[str, RelationInstance]]
    violations: Optional[List[KeyViolation]]
    shards: int = 1
    skipped_subtrees: int = 0
    dtd_violations: Optional[list] = None


def _split(source, num_shards: int, rules: Sequence[TableRule]):
    """Cut ``source`` into shards: ``(source, shards or None, size)``.

    A path is read once here and the text returned, so a serial fallback
    does not read it again.  ``size`` is what the serial arm would count
    as ``tokenizer.bytes`` for ``source``.  Each refusal counts one
    ``shard.fallback`` with its reason.
    """
    size = None
    if hasattr(source, "__fspath__"):
        text = read_document(source)
        size = os.path.getsize(source)
        source = text
    if not isinstance(source, str):
        reason = FALLBACK_SOURCE
    elif any(RuleStreamer(rule, shard_mode=True).anchors_root_bound for rule in rules):
        # An anchor binding the document root needs the whole document as
        # one subtree; semantics before parallelism.
        reason = FALLBACK_ROOT_ANCHOR
    else:
        shards, reason = cut_document(source, num_shards)
        if shards is not None:
            return source, shards, len(source) if size is None else size
    if obs.enabled():
        obs.metrics().inc("shard.fallback", reason=reason)
    return source, None, size


def run_pipeline(
    source,
    rules: Optional[Iterable[TableRule]] = None,
    keys: Optional[Iterable[XMLKey]] = None,
    dtd=None,
    sinks: Optional[Mapping[str, RowSink]] = None,
    schema: Optional[DatabaseSchema] = None,
    deduplicate: bool = True,
    jobs: Optional[int] = None,
    plan=None,
    use_processes: bool = True,
) -> ShardedRun:
    """Shred, key-check and/or DTD-validate a document in one pass.

    ``source`` is anything :func:`~repro.xmlmodel.events.as_events`
    accepts (text and paths can be sharded).  At least one of ``rules``
    (table rules; a :class:`~repro.transform.rule.Transformation` works
    as-is), ``keys`` (XML keys; an empty iterable checks none) and ``dtd``
    is required.  Rows go to ``sinks[rule.relation]`` when given — as they
    complete on the serial arm, after the merge on the sharded one, in the
    same order — and into fresh relation instances (``schema``'s relations
    where it has them) otherwise.  ``jobs`` picks the arm;
    ``use_processes=False`` runs the shard tasks in-process (the same
    shard/map/merge path, as the differential suites exercise it).
    Which tokenizer backend turns text into events is
    :mod:`repro.xmlmodel`'s decision alone; a caller that needs a
    particular one passes its :class:`~repro.xmlmodel.events.Event`
    stream (e.g. ``iter_events(text, engine="pure")``) as ``source``,
    which always runs the serial arm.  ``plan`` is an optional
    :class:`~repro.xmlmodel.static.StaticPlan` compiled over (at least)
    these keys and rules: its skip set fast-forwards schema-invisible
    subtrees, output unchanged.
    """
    rules = list(rules) if rules is not None else []
    keys = list(keys) if keys is not None else None
    if not rules and keys is None and dtd is None:
        raise ValueError("run_pipeline() needs rules, keys or a DTD")
    skip = plan.skipset if plan is not None and plan.skipset else None
    worker_count = resolve_jobs(jobs)
    shards = None
    if worker_count > 1:
        if dtd is not None:
            raise ValueError(
                "streaming DTD validation is a single-pass check and cannot "
                "be sharded; run it with one job or without the DTD"
            )
        source, shards, size = _split(source, worker_count * SHARD_FACTOR, rules)
    instances: Optional[Dict[str, RelationInstance]] = None
    if sinks is None and rules:
        instances = {
            rule.relation: RelationInstance(relation_schema(rule, schema))
            for rule in rules
        }
        sinks = {name: instance.add_row for name, instance in instances.items()}
    row_sinks = [sinks[rule.relation] for rule in rules]

    if shards is None:
        streamers = [
            RuleStreamer(rule, deduplicate=deduplicate, sink=sink)
            for rule, sink in zip(rules, row_sinks)
        ]
        feeds = [streamer.feed for streamer in streamers]
        checker = KeyStreamChecker(keys) if keys is not None else None
        if checker is not None:
            feeds.append(checker.feed)
        validator = None
        if dtd is not None:
            from repro.xmlmodel.dtd import DTDStreamValidator

            validator = DTDStreamValidator(dtd)
            feeds.append(validator.feed)
        events = as_events(source, skip=skip)
        skipped = _pump(events, feeds, skip is not None)
        if obs.enabled():
            obs.metrics().gauge_add("shard.count", 1)
        for streamer in streamers:
            streamer.finish()
        if instances is not None:
            record_shred_rows(instances)
        return ShardedRun(
            instances=instances,
            violations=checker.finish() if checker is not None else None,
            skipped_subtrees=skipped,
            dtd_violations=validator.finish() if validator is not None else None,
        )

    worker = _ShardWorker(shards, rules, keys or (), skip, obs.enabled())
    indices = range(len(shards))
    if use_processes:
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
        registry = obs.metrics()
        for output in outputs:
            if output.metrics is not None:
                registry.merge_snapshot(output.metrics)
        registry.gauge_add("shard.count", len(shards))
        # The shards counted their slices; the document's bytes outside
        # them (prolog, root start tag, root end tag, epilog) count here.
        registry.inc(
            "tokenizer.bytes", size - (shards.content_end - shards.content_start)
        )
    # The closing root END never reaches a worker (the merge closes the
    # root logically): count it here, event-for-event with the serial arm.
    _record_events(1)
    parts = root_attr_parts(shards.prologue_events)
    for index, (rule, sink) in enumerate(zip(rules, row_sinks)):
        for row in merge_rule_shards(
            rule,
            [output.rules[index] for output in outputs],
            deduplicate=deduplicate,
            root_attr_parts=parts,
        ):
            sink(row)
    if instances is not None:
        record_shred_rows(instances)
    violations: Optional[List[KeyViolation]] = None
    if keys is not None:
        violations = merge_shard_results(
            keys,
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


def run_sharded(
    source,
    transformation: Optional[Iterable[TableRule]] = None,
    keys: Optional[Iterable[XMLKey]] = None,
    schema: Optional[DatabaseSchema] = None,
    deduplicate: bool = True,
    jobs: Optional[int] = None,
    use_processes: Optional[bool] = None,
    plan=None,
) -> ShardedRun:
    """:func:`run_pipeline` under its original name and argument order
    (``transformation`` is ``rules``; empty ``keys`` check nothing)."""
    return run_pipeline(
        source,
        rules=transformation,
        keys=(list(keys) or None) if keys is not None else None,
        schema=schema,
        deduplicate=deduplicate,
        jobs=jobs,
        plan=plan,
        use_processes=use_processes is not False,
    )
