"""The traced run: a per-layer ledger of the whole system.

Each layer's public functions are called from here on inputs that were
materialized beforehand (event lists, row lists, cover FDs), one span per
call.  Each layer is timed once (``REPEATS``); per-operation layers
(deltas, uploads) report the median over many calls.  The same run also times every user-facing command once from
outside, so each command can be compared with the layers it is made of
(``cli.<command>.unaccounted_share``), and runs each document command
once more with ``--stats-json`` to cross-check the system's own counters
against the counts measured here (``obs.count_mismatches``).

The ledger is the same for every workload: it is the whole system's
ledger on the seed's inputs, so every per-layer metric exists on every
traced run.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from checks import Outcome, parse_design
from inputs import (
    GATE,
    UPLOAD_RULE,
    UPLOAD_SCHEMA,
    UPLOAD_TENANT,
    UploadSource,
    gate_inputs,
    mondial_inputs,
    schema_inputs,
)
from spans import Tracer
from system import REPRO, Context, Repl, Server
from workloads import EditModel, Result, _apply_delta, _upload

REPEATS = 1
#: Deltas and uploads timed per ledger (in-process and end to end).
EDIT_OPS = 100
UPLOADS = 60
#: Alternating untraced/traced pairs behind bench.trace_overhead_share.
OVERHEAD_PAIRS = 3
#: A command whose layers explain less than this share is flagged.
ACCOUNTED_FLOOR = 0.9

#: Per-layer metrics and their units (BENCHMARK.json lists the same).
COMMANDS = [
    "check_doc", "shred", "shred_stream", "load", "check_doc_mondial",
    "check_doc_prune", "check_doc_jobs2", "delta", "upload", "cover", "design",
]
UNITS: Dict[str, str] = {
    "cli.import_s": "s",
    "xmlmodel.read_s": "s",
    "xmlmodel.accel.tokenize_s": "s",
    "xmlmodel.accel.events_per_s": "1/s",
    "xmlmodel.events.tokenize_s": "s",
    "xmlmodel.events.events": "count",
    "xmlmodel.parser.parse_s": "s",
    "transform.evaluate.evaluate_s": "s",
    "xmlmodel.static.compile_plan_s": "s",
    "xmlmodel.static.skipped_subtrees": "count",
    "xmlmodel.static.elided_share": "ratio",
    "xmlmodel.shards.split_s": "s",
    "xmlmodel.shards.shards": "count",
    "parallel.run_sharded_jobs1_s": "s",
    "parallel.run_sharded_jobs2_s": "s",
    "keys.stream.feed_s": "s",
    "keys.stream.finish_s": "s",
    "keys.stream.violations": "count",
    "transform.stream.feed_s": "s",
    "transform.stream.finish_s": "s",
    "transform.stream.rows": "count",
    "relational.sql.copy_render_s": "s",
    "storage.ddl.compile_s": "s",
    "storage.loader.load_s": "s",
    "storage.loader.rows": "count",
    "storage.loader.batches": "count",
    "storage.verify.check_keys_s": "s",
    "storage.verify.witnesses": "count",
    "incremental.engine.load_s": "s",
    "incremental.engine.apply_p50_ms": "ms",
    "incremental.storage.sync_p50_ms": "ms",
    "service.server.upload_p50_ms": "ms",
    "service.server.rejections": "count",
    "core.minimum_cover_s": "s",
    "relational.fd.minimize_s": "s",
    "core.generated_fds": "count",
    "core.cover_fds": "count",
    "relational.normalization.project_fds_s": "s",
    "relational.normalization.bcnf_decompose_s": "s",
    "relational.normalization.fragments": "count",
}
for _command in COMMANDS:
    UNITS[f"cli.{_command}.wall_s"] = "s"
    UNITS[f"cli.{_command}.unaccounted_share"] = "ratio"
UNITS["obs.count_mismatches"] = "count"
UNITS["bench.trace_overhead_share"] = "ratio"

#: The layer spans each command is made of: (span name, attributes).
LAYERS_OF = {
    "check_doc": [("cli.import", {}), ("xmlmodel.accel.tokenize", {"doc": "gate"}),
                  ("keys.stream.feed", {"doc": "gate"}), ("keys.stream.finish", {"doc": "gate"})],
    "shred": [("cli.import", {}), ("xmlmodel.read", {}), ("xmlmodel.parser.parse", {}),
              ("transform.evaluate.evaluate", {}), ("relational.sql.copy_render", {})],
    "shred_stream": [("cli.import", {}), ("xmlmodel.accel.tokenize", {"doc": "gate"}),
                     ("transform.stream.feed", {}), ("transform.stream.finish", {}),
                     ("relational.sql.copy_render", {})],
    "load": [("cli.import", {}), ("core.minimum_cover", {"problem": "gate"}),
             ("storage.ddl.compile", {}), ("xmlmodel.accel.tokenize", {"doc": "gate"}),
             ("transform.stream.feed", {}), ("transform.stream.finish", {}),
             ("storage.loader.load", {}), ("storage.verify.check_keys", {})],
    "check_doc_mondial": [("cli.import", {}), ("xmlmodel.accel.tokenize", {"doc": "mondial"}),
                          ("keys.stream.feed", {"doc": "mondial"}),
                          ("keys.stream.finish", {"doc": "mondial"})],
    "check_doc_prune": [("cli.import", {}), ("xmlmodel.static.compile_plan", {}),
                        ("xmlmodel.accel.tokenize", {"doc": "mondial-pruned"}),
                        ("keys.stream.feed", {"doc": "mondial-pruned"}),
                        ("keys.stream.finish", {"doc": "mondial-pruned"})],
    "check_doc_jobs2": [("cli.import", {}), ("parallel.run_sharded", {"jobs": 2})],
    "cover": [("cli.import", {}), ("core.minimum_cover", {"problem": "cover"})],
    "design": [("cli.import", {}), ("core.minimum_cover", {"problem": "design"}),
               ("relational.normalization.bcnf_decompose", {})],
}
#: Known gaps between a command and its layers, named when it is flagged.
KNOWN_GAPS = {
    "check_doc": "tokenizer/checker interleaving (generator overhead), report rendering",
    "shred": "CREATE TABLE rendering and writing stdout",
    "shred_stream": "tokenizer/shredder interleaving, writing stdout",
    "load": "sqlite file creation, DDL execution, load_corpus's own shred pass",
    "check_doc_mondial": "tokenizer/checker interleaving (generator overhead)",
    "check_doc_prune": "DTD parsing, reading the file for the skip scanner",
    "check_doc_jobs2": "process-pool start-up and pickling shard results",
    "delta": "REPL line parsing, report rendering, pipe round trip",
    "upload": "TCP round trip, JSON framing, asyncio queueing",
    "cover": "parsing 2000-field inputs, printing the cover",
    "design": "per-fragment FD projection (design_from_scratch), SQL rendering",
}
#: ``--stats-json`` counters cross-checked per command.
STATS_CHECKS = {
    "check_doc": ["pipeline.events", "check.violations"],
    "shred": ["shred.rows"],
    "shred_stream": ["pipeline.events", "shred.rows"],
    "load": ["pipeline.events", "load.rows"],
    "check_doc_mondial": ["pipeline.events", "check.violations"],
    "check_doc_prune": ["pipeline.events", "pipeline.skips", "check.violations"],
    "check_doc_jobs2": ["pipeline.events", "check.violations"],
}


class Ledger:
    def __init__(self, run_id: str, ctx: Context) -> None:
        self.tracer = Tracer(run_id)
        self.ctx = ctx
        self.workdir = ctx.workdir
        self.outcome = Outcome()
        self.metrics: Dict[str, float] = {}
        self.counts: Dict[str, Dict[str, float]] = {}
        self.notes: List[str] = []
        #: Attribute sets of the BCNF fragments bcnf_decompose returned.
        self.design_fragments: set = set()

    def timed(self, name: str, fn, repeats: int = REPEATS, **attrs):
        """Call ``fn`` ``repeats`` times, one span each; return its result."""
        result = None
        for _ in range(repeats):
            with self.tracer.span(name, **attrs):
                result = fn()
        return result

    def self_s(self, name: str, **attrs) -> float:
        return self.tracer.median_self(name, **attrs)

    def check(self, ok: bool, what: str) -> None:
        self.outcome.record(bool(ok), what)


def _drain(events) -> None:
    deque(events, maxlen=0)


def _id_events(events) -> int:
    """Events that allocate a node id (elements, attributes, texts)."""
    from repro.xmlmodel.events import ATTR, START, TEXT

    return sum(1 for event in events if event.kind in (START, ATTR, TEXT))


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _document_layers(ledger: Ledger, gate, mondial) -> Dict:
    from repro.keys import KeyStreamChecker, parse_keys
    from repro.parallel import SHARD_FACTOR, run_sharded
    from repro.relational.sql import copy_statement
    from repro.transform import StreamShredder, evaluate_transformation, parse_transformation
    from repro.xmlmodel import iter_events, parse_document
    from repro.xmlmodel.dtd import parse_dtd
    from repro.xmlmodel.events import SKIP
    from repro.xmlmodel.shards import split_document
    from repro.xmlmodel.static import compile_plan

    timed, metrics = ledger.timed, ledger.metrics
    gate_keys = parse_keys(gate.keys.read_text())
    transformation = parse_transformation(gate.transform.read_text())
    mondial_keys = parse_keys(mondial.keys.read_text())

    timed("xmlmodel.read", lambda: gate.xml.read_text(encoding="utf-8"))
    timed("xmlmodel.accel.tokenize", lambda: _drain(iter_events(gate.xml)), doc="gate")
    gate_events = list(iter_events(gate.xml))
    tree = timed("xmlmodel.parser.parse", lambda: parse_document(gate.text))
    dom = timed("transform.evaluate.evaluate", lambda: evaluate_transformation(transformation, tree))
    del tree

    def key_check(keys, events, doc):
        checker = None

        def feed():
            nonlocal checker
            checker = KeyStreamChecker(keys)
            for event in events:
                checker.feed(event)

        found = None
        for _ in range(REPEATS):
            with ledger.tracer.span("keys.stream.feed", doc=doc):
                feed()
            with ledger.tracer.span("keys.stream.finish", doc=doc):
                found = checker.finish()
        return found

    gate_found = key_check(gate_keys, gate_events, "gate")

    instances = None
    for _ in range(REPEATS):
        with ledger.tracer.span("transform.stream.feed"):
            shredder = StreamShredder(transformation)
            for event in gate_events:
                shredder.feed(event)
        with ledger.tracer.span("transform.stream.finish"):
            instances = shredder.finish()
    instance = instances["U"]
    ledger.check(
        [tuple(r.get_value(a) for a in instance.schema.attributes) for r in instance.rows]
        == [tuple(r.get_value(a) for a in instance.schema.attributes) for r in dom["U"].rows],
        "streaming shred rows differ from the DOM plane",
    )
    timed("relational.sql.copy_render", lambda: copy_statement(instance.schema, instance.rows))

    # Mondial: plain, pruned by the DTD's static plan, sharded.
    timed("xmlmodel.accel.tokenize", lambda: _drain(iter_events(mondial.xml)), doc="mondial")
    mondial_events = list(iter_events(mondial.xml))
    mondial_found = key_check(mondial_keys, mondial_events, "mondial")
    timed("xmlmodel.events.tokenize", lambda: _drain(iter_events(mondial.text, engine="pure")))
    pure_events = sum(1 for _ in iter_events(mondial.text, engine="pure"))
    ledger.check(pure_events == len(mondial_events), "pure and accelerated event counts differ")

    dtd = parse_dtd(mondial.dtd.read_text())
    plan = timed("xmlmodel.static.compile_plan", lambda: compile_plan(dtd, keys=mondial_keys))
    skip = plan.skipset if plan.skipset else None
    timed("xmlmodel.accel.tokenize", lambda: _drain(iter_events(mondial.xml, skip=skip)),
          doc="mondial-pruned")
    pruned_events = list(iter_events(mondial.xml, skip=skip))
    pruned_found = key_check(mondial_keys, pruned_events, "mondial-pruned")
    skips = [event for event in pruned_events if event.kind == SKIP]
    elided = sum(event.value for event in skips)
    all_ids = _id_events(mondial_events)
    ledger.check(
        _id_events(pruned_events) + elided == all_ids,
        "pruned stream's ids plus elided ids differ from the full stream's",
    )
    ledger.check(
        [str(v) for v in pruned_found] == [str(v) for v in mondial_found],
        "pruning changed the violations",
    )

    shards = timed("xmlmodel.shards.split", lambda: split_document(mondial.text, 2 * SHARD_FACTOR))
    runs = {}
    for jobs in (1, 2):
        runs[jobs] = timed(
            "parallel.run_sharded",
            lambda jobs=jobs: run_sharded(mondial.xml, keys=mondial_keys, jobs=jobs),
            jobs=jobs,
        )
        ledger.check(
            [str(v) for v in runs[jobs].violations] == [str(v) for v in mondial_found],
            f"run_sharded(jobs={jobs}) differs from the serial checker",
        )

    gate_tokenize = ledger.self_s("xmlmodel.accel.tokenize", doc="gate")
    metrics.update({
        "xmlmodel.read_s": ledger.self_s("xmlmodel.read"),
        "xmlmodel.accel.tokenize_s": gate_tokenize,
        "xmlmodel.accel.events_per_s": len(gate_events) / gate_tokenize,
        "xmlmodel.events.tokenize_s": ledger.self_s("xmlmodel.events.tokenize"),
        "xmlmodel.events.events": pure_events,
        "xmlmodel.parser.parse_s": ledger.self_s("xmlmodel.parser.parse"),
        "transform.evaluate.evaluate_s": ledger.self_s("transform.evaluate.evaluate"),
        "xmlmodel.static.compile_plan_s": ledger.self_s("xmlmodel.static.compile_plan"),
        "xmlmodel.static.skipped_subtrees": len(skips),
        "xmlmodel.static.elided_share": elided / all_ids,
        "xmlmodel.shards.split_s": ledger.self_s("xmlmodel.shards.split"),
        "xmlmodel.shards.shards": len(shards) if shards is not None else 1,
        "parallel.run_sharded_jobs1_s": ledger.self_s("parallel.run_sharded", jobs=1),
        "parallel.run_sharded_jobs2_s": ledger.self_s("parallel.run_sharded", jobs=2),
        "keys.stream.feed_s": ledger.self_s("keys.stream.feed", doc="gate"),
        "keys.stream.finish_s": ledger.self_s("keys.stream.finish", doc="gate"),
        "keys.stream.violations": len(gate_found),
        "transform.stream.feed_s": ledger.self_s("transform.stream.feed"),
        "transform.stream.finish_s": ledger.self_s("transform.stream.finish"),
        "transform.stream.rows": len(instance.rows),
        "relational.sql.copy_render_s": ledger.self_s("relational.sql.copy_render"),
    })
    ledger.counts.update({
        "check_doc": {"pipeline.events": len(gate_events), "check.violations": len(gate_found)},
        "shred": {"shred.rows": len(instance.rows)},
        "shred_stream": {"pipeline.events": len(gate_events), "shred.rows": len(instance.rows)},
        "load": {"pipeline.events": len(gate_events), "load.rows": len(instance.rows)},
        "check_doc_mondial": {"pipeline.events": len(mondial_events),
                              "check.violations": len(mondial_found)},
        "check_doc_prune": {"pipeline.events": len(pruned_events), "pipeline.skips": len(skips),
                            "check.violations": len(pruned_found)},
        "check_doc_jobs2": {"pipeline.events": len(mondial_events),
                            "check.violations": len(mondial_found)},
    })
    return {"gate_keys": gate_keys, "transformation": transformation, "instance": instance,
            "gate_events": gate_events}


def _storage_layers(ledger: Ledger, gate, materialized) -> Dict:
    from repro import obs
    from repro.core import minimum_cover_from_keys
    from repro.storage import BulkLoader, SQLiteBackend, SQLVerifier, StorageDDL, compile_table_ddl

    keys, instance = materialized["gate_keys"], materialized["instance"]
    rule = next(iter(materialized["transformation"]))
    cover = ledger.timed(
        "core.minimum_cover", lambda: minimum_cover_from_keys(keys, rule).cover, problem="gate"
    )

    def ddl_for(mode):
        tables = {rule.relation: compile_table_ddl(rule.schema(), cover, mode=mode,
                                                   if_not_exists=True)}
        return StorageDDL(mode=mode, tables=tables, provenance_column=None)

    ddl = ledger.timed("storage.ddl.compile", lambda: ddl_for("log"))
    db = ledger.workdir / "ledger-load.db"
    loaded = witnesses = batches = 0
    for repeat in range(REPEATS):
        db.unlink(missing_ok=True)
        backend = SQLiteBackend(str(db))
        try:
            loader = BulkLoader(backend, ddl)
            loader.create_schema()
            with ledger.tracer.span("storage.loader.load"):
                with backend.transaction():
                    loaded = loader.load_instance(instance)
            with ledger.tracer.span("storage.verify.check_keys"):
                found = SQLVerifier(backend, ddl).check_keys()
            witnesses = sum(len(v) for v in found.values())
            if repeat == 0:
                # Counts come from one extra, untimed load with telemetry on.
                with backend.transaction():
                    backend.execute(f'DELETE FROM "{rule.relation}"')
                with obs.collect() as registry:
                    with backend.transaction():
                        loader.load_instance(instance)
                batches = sum(
                    value for (name, _), value in registry.snapshot().counters.items()
                    if name == "load.batches"
                )
        finally:
            backend.close()
    ledger.check(loaded == len(instance.rows), "the loader accepted a different row count")
    ledger.check(witnesses > 0, "the verifier found no key conflicts in the gate document")
    ledger.metrics.update({
        "storage.ddl.compile_s": ledger.self_s("storage.ddl.compile"),
        "storage.loader.load_s": ledger.self_s("storage.loader.load"),
        "storage.loader.rows": loaded,
        "storage.loader.batches": batches,
        "storage.verify.check_keys_s": ledger.self_s("storage.verify.check_keys"),
        "storage.verify.witnesses": witnesses,
    })
    return {"rule": rule, "cover": cover, "ddl_for": ddl_for}


def _incremental_layers(ledger: Ledger, gate, seed: int, materialized, storage) -> None:
    from repro.incremental import Delta, DeltaStore, IncrementalEngine
    from repro.storage import BulkLoader, SQLiteBackend

    transformation, keys = materialized["transformation"], materialized["gate_keys"]
    rows_per_subtree = GATE["fanout"] ** (GATE["depth"] - 1)
    engine = ledger.timed(
        "incremental.engine.load",
        lambda: _loaded(IncrementalEngine(transformation, keys), gate.text),
    )
    model = EditModel(gate.header, gate.subtrees, gate.footer, rows_per_subtree, seed)
    ops = [model.next() for _ in range(EDIT_OPS)]
    for op in ops:
        with ledger.tracer.span("incremental.engine.apply", store="none"):
            engine.apply(Delta(op.kind, op.pos, op.fragment))
    ledger.check(engine.text() == model.text(), "the engine's text differs from the edit model")

    db = ledger.workdir / "ledger-delta.db"
    db.unlink(missing_ok=True)
    backend = SQLiteBackend(str(db))
    try:
        stored = _loaded(IncrementalEngine(transformation, keys), gate.text)
        stored.attach_store(DeltaStore(BulkLoader(backend, storage["ddl_for"]("log"))))
        for op in ops:
            with ledger.tracer.span("incremental.engine.apply", store="sqlite"):
                stored.apply(Delta(op.kind, op.pos, op.fragment))
        ledger.check(
            backend.row_count("U") == len(stored.instances()["U"].rows),
            "the attached sqlite table disagrees with the engine's rows",
        )
        ledger.check(
            [str(v) for v in stored.violations()] == [str(v) for v in engine.violations()],
            "attaching a store changed the violations",
        )
    finally:
        backend.close()
    plain = statistics.median(s.duration for s in ledger.tracer.select(
        "incremental.engine.apply", store="none"))
    synced = statistics.median(s.duration for s in ledger.tracer.select(
        "incremental.engine.apply", store="sqlite"))
    ledger.metrics.update({
        "incremental.engine.load_s": ledger.self_s("incremental.engine.load"),
        "incremental.engine.apply_p50_ms": plain * 1000.0,
        "incremental.storage.sync_p50_ms": (synced - plain) * 1000.0,
    })


def _loaded(engine, text):
    engine.load(text)
    return engine


def _service_layer(ledger: Ledger, seed: int) -> None:
    from repro.service import IngestionService
    from repro.service.registry import rule_from_wire, schema_from_wire
    from repro.storage import LoadError

    db = ledger.workdir / "ledger-serve.db"
    db.unlink(missing_ok=True)
    source = UploadSource(seed)
    rejected = injected = 0

    async def session():
        nonlocal rejected, injected
        service = IngestionService(str(db), mode="strict", workers=2, pool_size=1)
        await service.start()
        try:
            service.register_tenant(
                UPLOAD_TENANT, [rule_from_wire(UPLOAD_RULE)],
                schema=[schema_from_wire(UPLOAD_SCHEMA)],
            )
            for _ in range(UPLOADS):
                upload = source.next()
                injected += upload.injected is not None
                with ledger.tracer.span("service.server.upload"):
                    try:
                        await service.upload(UPLOAD_TENANT, upload.text)
                    except LoadError:
                        rejected += 1
        finally:
            await service.stop()
            service.close()

    asyncio.run(session())
    ledger.check(rejected == injected, f"{rejected} uploads rejected, {injected} injected")
    ledger.metrics.update({
        "service.server.upload_p50_ms": ledger.self_s("service.server.upload") * 1000.0,
        "service.server.rejections": rejected,
    })


def _schema_layers(ledger: Ledger, cover_in, design_in) -> None:
    from repro.core import minimum_cover_from_keys
    from repro.keys import parse_keys
    from repro.relational.fd import minimize
    from repro.relational.normalization import bcnf_decompose, project_fds
    from repro.transform import parse_transformation

    def problem(inputs):
        return (parse_keys(inputs.keys.read_text()),
                parse_transformation(inputs.transform.read_text()).rule("U"))

    keys, rule = problem(cover_in)
    result = ledger.timed(
        "core.minimum_cover", lambda: minimum_cover_from_keys(keys, rule), problem="cover"
    )
    ledger.timed("relational.fd.minimize", lambda: minimize(result.generated))
    keys, rule = problem(design_in)
    design_cover = ledger.timed(
        "core.minimum_cover", lambda: minimum_cover_from_keys(keys, rule).cover, problem="design"
    )
    ledger.timed(
        "relational.normalization.project_fds",
        lambda: project_fds(rule.field_names, design_cover),
    )
    fragments = ledger.timed(
        "relational.normalization.bcnf_decompose",
        lambda: bcnf_decompose(rule.relation, rule.field_names, design_cover),
    )
    ledger.metrics.update({
        "core.minimum_cover_s": ledger.self_s("core.minimum_cover", problem="cover"),
        "relational.fd.minimize_s": ledger.self_s("relational.fd.minimize"),
        "core.generated_fds": len(result.generated),
        "core.cover_fds": len(result.cover),
        "relational.normalization.project_fds_s": ledger.self_s(
            "relational.normalization.project_fds"),
        "relational.normalization.bcnf_decompose_s": ledger.self_s(
            "relational.normalization.bcnf_decompose"),
        "relational.normalization.fragments": len(fragments),
    })
    ledger.design_fragments = {frozenset(f.attributes) for f in fragments}


def _command_runs(ledger: Ledger, seed: int, gate) -> None:
    """Every user-facing command once from outside, then once more with
    ``--stats-json`` for the telemetry cross-check."""
    gate_cmd = ["--keys", "gate.keys", "--xml", "gate.xml"]
    mondial_cmd = ["check-doc", "--keys", "mondial.keys", "--xml", "mondial.xml"]
    commands = {
        "check_doc": ["check-doc"] + gate_cmd,
        "shred": ["shred", "--transform", "gate.dsl", "--xml", "gate.xml", "--sql", "--copy"],
        "shred_stream": ["shred", "--stream", "--transform", "gate.dsl", "--xml", "gate.xml",
                         "--sql", "--copy"],
        "load": ["load", "--transform", "gate.dsl", "--keys", "gate.keys", "--xml", "gate.xml",
                 "--db", "cmd-load.db", "--mode", "log", "--verify"],
        "check_doc_mondial": mondial_cmd,
        "check_doc_prune": mondial_cmd + ["--dtd", "mondial.dtd", "--prune"],
        "check_doc_jobs2": mondial_cmd + ["--jobs", "2"],
        "cover": ["cover", "--keys", "cover.keys", "--transform", "cover.dsl", "--relation", "U"],
        "design": ["design", "--keys", "design.keys", "--transform", "design.dsl",
                   "--relation", "U", "--normal-form", "BCNF", "--sql"],
    }
    mismatches = 0
    for name, args in commands.items():
        db = ledger.workdir / "cmd-load.db"
        db.unlink(missing_ok=True)
        with ledger.tracer.span("cli.command", command=name) as span:
            result = ledger.ctx.launcher.run(args, ledger.workdir)
        span.attrs["wall_s"] = result.seconds
        ledger.metrics[f"cli.{name}.wall_s"] = result.seconds
        ledger.check(result.code in (0, 1) and not result.traceback,
                     f"{name}: exit {result.code}")
        if name == "design":
            _, fragments, _ = parse_design(result.stdout)
            ledger.check(set(fragments) == ledger.design_fragments,
                         "design printed other fragments than bcnf_decompose returns")
        if name not in STATS_CHECKS:
            continue
        db.unlink(missing_ok=True)
        stats = ledger.ctx.launcher.run(args + ["--stats-json"], ledger.workdir)
        ledger.check(stats.code == result.code, f"{name} --stats-json changed the exit code")
        counters: Dict[str, float] = {}
        try:
            payload = json.loads(stats.stderr.strip().splitlines()[-1])
            for entry in payload.get("counters", []):
                counters[entry["name"]] = counters.get(entry["name"], 0) + entry["value"]
        except (ValueError, IndexError, KeyError):
            ledger.check(False, f"{name} --stats-json printed no telemetry")
        for counter in STATS_CHECKS[name]:
            expected = ledger.counts[name][counter]
            got = counters.get(counter)
            if got != expected:
                mismatches += 1
                ledger.notes.append(
                    f"obs mismatch: {name} {counter} = {got} (benchmark counted {expected})"
                )
    ledger.metrics["obs.count_mismatches"] = mismatches

    # Deltas and uploads end to end: the REPL and the server, closed loop.
    workdir = ledger.workdir
    for stale in ("cmd-delta.db", "cmd-serve.db"):
        (workdir / stale).unlink(missing_ok=True)
    rows_per_subtree = GATE["fanout"] ** (GATE["depth"] - 1)
    repl = Repl(["apply-delta", "--xml", "gate.xml", "--transform", "gate.dsl", "--keys",
                 "gate.keys", "--db", "cmd-delta.db", "--mode", "log", "--repl"],
                workdir, workdir / "cmd-repl.err")
    server = Server(["serve", "--db", "cmd-serve.db", "--mode", "strict", "--workers", "2",
                     "--pool-size", "1"], workdir, workdir / "cmd-serve.log")
    deltas: List[float] = []
    uploads: List[float] = []
    try:
        repl.readline()
        repl.readline()
        server.connect()
        server.request({"op": "register", "tenant": UPLOAD_TENANT, "rules": [UPLOAD_RULE],
                        "schema": [UPLOAD_SCHEMA]})
        model = EditModel(gate.header, gate.subtrees, gate.footer, rows_per_subtree, seed)
        source = UploadSource(seed)
        for _ in range(UPLOADS):
            with ledger.tracer.span("cli.command", command="delta") as span:
                reason = _apply_delta(repl, model)
            deltas.append(span.duration)
            ledger.check(reason is None, reason or "")
            with ledger.tracer.span("cli.command", command="upload") as span:
                reason = _upload(server, source)
            uploads.append(span.duration)
            ledger.check(reason is None, reason or "")
    finally:
        repl.close(ledger.ctx.launcher)
        server.close(ledger.ctx.launcher)
    ledger.metrics["cli.delta.wall_s"] = statistics.median(deltas)
    ledger.metrics["cli.upload.wall_s"] = statistics.median(uploads)


def _accounting(ledger: Ledger) -> None:
    metrics = ledger.metrics
    for name in COMMANDS:
        wall = metrics[f"cli.{name}.wall_s"]
        if name == "delta":
            explained = (metrics["incremental.engine.apply_p50_ms"]
                         + metrics["incremental.storage.sync_p50_ms"]) / 1000.0
        elif name == "upload":
            explained = metrics["service.server.upload_p50_ms"] / 1000.0
        else:
            explained = sum(ledger.self_s(span, **attrs) for span, attrs in LAYERS_OF[name])
        share = 1.0 - explained / wall
        metrics[f"cli.{name}.unaccounted_share"] = share
        if share > 1.0 - ACCOUNTED_FLOOR:
            ledger.notes.append(
                f"flag: {name}: layers explain {100 * (1 - share):.0f}% of "
                f"{wall * 1000:.1f} ms; known gap: {KNOWN_GAPS[name]}"
            )


def _trace_overhead(ledger: Ledger, materialized) -> None:
    """Traced vs untraced time of the same layer block, alternating."""
    from repro.keys import KeyStreamChecker

    keys, events = materialized["gate_keys"], materialized["gate_events"]
    probe = Tracer("overhead")

    def block(tracer: Optional[Tracer]):
        begin = time.perf_counter()
        if tracer is None:
            checker = KeyStreamChecker(keys)
            for event in events:
                checker.feed(event)
            checker.finish()
        else:
            with tracer.span("keys.stream.feed"):
                checker = KeyStreamChecker(keys)
                for event in events:
                    checker.feed(event)
            with tracer.span("keys.stream.finish"):
                checker.finish()
        return time.perf_counter() - begin

    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        untraced = block(None)
        traced = block(probe)
        ratios.append(traced / untraced - 1.0)
    ledger.metrics["bench.trace_overhead_share"] = statistics.median(ratios)


def run_ledger(ctx: Context, workload: str, spans_path: Path) -> Result:
    seed, workdir = ctx.seed, ctx.workdir
    ledger = Ledger(f"{workload}-{seed}-{os.getpid()}", ctx)
    gate = gate_inputs(seed, workdir, ctx.smoke)
    mondial = mondial_inputs(seed, workdir, ctx.smoke)
    cover_in, design_in = schema_inputs(seed, workdir, ctx.smoke)
    with ledger.tracer.span("bench.ledger", workload=workload, seed=seed):
        # A fresh interpreter importing the CLI: the fixed cost of every command.
        ledger.timed(
            "cli.import",
            lambda: ctx.launcher.spawn([REPRO[0], "-c", "import repro.cli"], workdir),
        )
        ledger.metrics["cli.import_s"] = ledger.self_s("cli.import")
        with ledger.tracer.span("ledger.documents"):
            materialized = _document_layers(ledger, gate, mondial)
        with ledger.tracer.span("ledger.storage"):
            storage = _storage_layers(ledger, gate, materialized)
        with ledger.tracer.span("ledger.incremental"):
            _incremental_layers(ledger, gate, seed, materialized, storage)
        with ledger.tracer.span("ledger.service"):
            _service_layer(ledger, seed)
        with ledger.tracer.span("ledger.schema"):
            _schema_layers(ledger, cover_in, design_in)
        with ledger.tracer.span("ledger.commands"):
            _command_runs(ledger, seed, gate)
        _trace_overhead(ledger, materialized)
    _accounting(ledger)
    spans = ledger.tracer.flush(spans_path)
    missing = set(UNITS) - set(ledger.metrics)
    ledger.check(not missing, f"per-layer metrics not measured: {sorted(missing)}")
    return Result(
        outcome=ledger.outcome,
        metrics={name: ledger.metrics[name] for name in UNITS if name in ledger.metrics},
        units=dict(UNITS),
        provenance={"spans_file": str(spans_path.relative_to(spans_path.parents[2])),
                    "spans": spans, "notes": ledger.notes},
    )
