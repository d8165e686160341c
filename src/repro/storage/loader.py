"""Transactional bulk loading: documents and corpora into a real database.

:class:`BulkLoader` closes the loop from shredded rows to queryable
tables.  It consumes rows from *any* iterable — a
:class:`~repro.relational.instance.RelationInstance` or the lazy
:func:`~repro.transform.stream.iter_rule_rows` generator — or, for whole
documents, as the row sinks of :func:`repro.parallel.run_pipeline`, and
pushes them through the backend in parameterized ``executemany`` batches
(values never touch the SQL text; batch size mirrors
:func:`~repro.relational.sql.iter_insert_statements`).

Transactional structure:

* every *document* loads inside one savepoint — a rejected document rolls
  back completely, leaving previously loaded documents untouched;
* in **strict** mode (constraints live in the DDL), a failed
  ``executemany`` batch is rolled back and replayed row by row under
  per-row savepoints to pinpoint *exactly* the violating rows; the load
  then raises :exc:`LoadError` carrying those rows, and the document's
  savepoint unwinds.  Rows that only conflict with a row of the same
  rejected document are pinpointed relative to the rows accepted before
  them, in load order — the same first-occurrence-wins orientation the
  in-memory checkers use;
* in **log** mode there are no uniqueness constraints: everything stages,
  and :class:`~repro.storage.verify.SQLVerifier` finds the violations
  in-database afterwards.

Corpus ingestion (:meth:`BulkLoader.load_corpus`) loads many documents
into the same tables; when the DDL plan declares a provenance column,
every row is stamped with its document id, so cross-document duplicates
remain attributable after the fact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from itertools import islice

from repro import obs
from repro.relational.instance import RelationInstance, Value
from repro.relational.sql import encode_row, insert_template
from repro.storage.backend import Backend, IntegrityViolation, StorageError
from repro.storage.ddl import StorageDDL, TableDDL
from repro.transform.rule import TableRule, Transformation
from repro.xmlmodel.events import EventSource

log = obs.get_logger("storage.loader")


class LoadError(StorageError):
    """A strict-mode load was rejected; carries the exact violating rows."""

    def __init__(
        self,
        table: str,
        rows: List[Mapping[str, Value]],
        document: Optional[str] = None,
    ) -> None:
        self.table = table
        self.rows = rows
        self.document = document
        where = f" of document {document!r}" if document is not None else ""
        super().__init__(
            f"{len(rows)} row(s){where} violate the constraints of table {table!r}"
        )


@dataclass
class LoadReport:
    """What a (multi-document) load accomplished."""

    #: Rows accepted per table, summed over documents.
    rows: Dict[str, int] = field(default_factory=dict)
    #: Document ids loaded completely.
    documents: List[str] = field(default_factory=list)
    #: Document id → the LoadError that rolled it back (``on_error="skip"``).
    rejected: Dict[str, LoadError] = field(default_factory=dict)

    def merge_counts(self, counts: Mapping[str, int]) -> None:
        for table, count in counts.items():
            self.rows[table] = self.rows.get(table, 0) + count


class _TableSink:
    """Batched, pinpointing insert funnel for one table."""

    __slots__ = ("backend", "template", "schema", "extra", "batch_size",
                 "pending", "loaded", "rejected", "guarded", "columns",
                 "use_copy")

    def __init__(
        self,
        backend: Backend,
        table: TableDDL,
        provenance_column: Optional[str],
        document: Optional[str],
        batch_size: int,
        guarded: bool,
    ) -> None:
        self.backend = backend
        self.schema = table.schema
        extra_columns: Sequence[str] = ()
        self.extra: Tuple[Optional[str], ...] = ()
        if provenance_column is not None:
            extra_columns = (provenance_column,)
            self.extra = (document,)
        self.template = insert_template(
            self.schema,
            extra_columns=extra_columns,
            placeholder=backend.placeholder,
        )
        self.columns: List[str] = list(self.schema.attributes) + list(extra_columns)
        self.use_copy = backend.supports_copy
        self.batch_size = batch_size
        self.pending: List[Mapping[str, Value]] = []
        self.loaded = 0
        self.rejected: List[Mapping[str, Value]] = []
        #: Strict-mode plans guard every batch with a savepoint so a
        #: constraint failure can be replayed row by row; log-mode plans
        #: carry no uniqueness constraints, so the guard (and its per-batch
        #: statements) is skipped on the hot path.
        self.guarded = guarded

    def push(self, row: Mapping[str, Value]) -> None:
        self.pending.append(row)
        if len(self.pending) >= self.batch_size:
            self.flush()

    def _encode_batch(
        self, batch: Sequence[Mapping[str, Value]]
    ) -> List[Tuple[Optional[str], ...]]:
        # One parameter tuple per row from the shared encoder: NULL binds
        # as ``None`` and typed values (ints/floats from counter rules) as
        # their ``str()`` text, so every backend stores the same text —
        # SQLite's TEXT affinity would otherwise render ``1e20`` or
        # ``True`` differently from Python, and PostgreSQL would reject
        # the typed parameter against a TEXT column outright.
        schema, extra = self.schema, self.extra
        return [encode_row(schema, row, extra) for row in batch]

    def flush(self) -> None:
        if not self.pending:
            return
        batch, self.pending = self.pending, []
        self.flush_batch(batch)

    def _send_batch(self, parameters: Sequence[Tuple[Optional[str], ...]]) -> None:
        # The bulk channel (COPY) when the backend has one, parameterized
        # executemany otherwise; both raise IntegrityViolation on a
        # constraint failure, so the guarded replay below works unchanged.
        if not obs.enabled():
            if self.use_copy:
                self.backend.copy_rows(self.schema.name, self.columns, parameters)
            else:
                self.backend.executemany(self.template, parameters)
            return
        registry = obs.metrics()
        method = "copy" if self.use_copy else "executemany"
        started = time.perf_counter()
        try:
            if self.use_copy:
                self.backend.copy_rows(self.schema.name, self.columns, parameters)
            else:
                self.backend.executemany(self.template, parameters)
        finally:
            registry.observe(
                "load.batch_seconds",
                time.perf_counter() - started,
                method=method,
                table=self.schema.name,
            )
            registry.inc("load.batches", method=method, table=self.schema.name)

    def flush_batch(self, batch: Sequence[Mapping[str, Value]]) -> None:
        parameters = self._encode_batch(batch)
        if not self.guarded:
            self._send_batch(parameters)
            self.loaded += len(batch)
            return
        try:
            with self.backend.savepoint("repro_batch"):
                self._send_batch(parameters)
            self.loaded += len(batch)
            return
        except IntegrityViolation:
            pass
        # The batch contained at least one violating row: replay it row by
        # row under per-row savepoints so the rejection is exact — clean
        # rows land, violating rows are collected.
        for row, params in zip(batch, parameters):
            try:
                with self.backend.savepoint("repro_row"):
                    self.backend.execute(self.template, params)
                self.loaded += 1
            except IntegrityViolation:
                self.rejected.append(row)


class BulkLoader:
    """Load shredded rows into a database created from a DDL plan."""

    def __init__(
        self,
        backend: Backend,
        ddl: StorageDDL,
        batch_size: int = 500,
        deduplicate: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.backend = backend
        self.ddl = ddl
        self.batch_size = batch_size
        #: Row semantics of the streaming shred (matches ``StreamShredder``).
        self.deduplicate = deduplicate
        self._documents_loaded = 0

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def create_schema(self) -> None:
        """Execute the plan's DDL (idempotent when compiled with
        ``if_not_exists=True``)."""
        with self.backend.transaction():
            for statement in self.ddl.statements():
                self.backend.execute(statement)

    # ------------------------------------------------------------------
    # Row-level loading
    # ------------------------------------------------------------------
    def _sink(self, table: str, document: Optional[str]) -> _TableSink:
        if self.ddl.provenance_column is not None and document is None:
            raise ValueError(
                "this DDL plan has a provenance column "
                f"({self.ddl.provenance_column!r}); every load needs a "
                "document id"
            )
        return _TableSink(
            self.backend,
            self.ddl.table(table),
            self.ddl.provenance_column,
            document,
            self.batch_size,
            guarded=self.ddl.strict,
        )

    def load_rows(
        self,
        table: str,
        rows: Iterable[Mapping[str, Value]],
        document: Optional[str] = None,
    ) -> int:
        """Load any row iterable into ``table``; returns rows accepted.

        Constant-memory: at most ``batch_size`` rows are held.  In strict
        mode a violating iterable raises :exc:`LoadError` (after the whole
        iterable was scanned, so the error lists *all* violating rows);
        the clean rows of this call stay staged — wrap the call in a
        savepoint (as :meth:`load_document` does) for all-or-nothing.
        """
        sink = self._sink(table, document)
        iterator = iter(rows)
        while True:
            batch = list(islice(iterator, self.batch_size))
            if not batch:
                break
            sink.flush_batch(batch)
        return self._settle(table, sink, document)

    @staticmethod
    def _settle(table: str, sink: _TableSink, document: Optional[str]) -> int:
        """Flush ``sink``; raise :exc:`LoadError` if it rejected any row."""
        sink.flush()
        if sink.rejected:
            obs.metrics().inc(
                "load.rejected_rows", len(sink.rejected), table=table
            )
            raise LoadError(table, sink.rejected, document=document)
        return sink.loaded

    def load_instance(
        self, instance: RelationInstance, document: Optional[str] = None
    ) -> int:
        return self.load_rows(instance.schema.name, instance.rows, document=document)

    # ------------------------------------------------------------------
    # Document-level loading
    # ------------------------------------------------------------------
    def load_document(
        self,
        source: EventSource,
        transformation: Union[Transformation, Iterable[TableRule]],
        document: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> Dict[str, int]:
        """Shred one document and load every rule's rows, atomically.

        The whole document runs inside one savepoint: on a strict-mode
        violation the savepoint unwinds (no partial document remains) and
        :exc:`LoadError` reports the violating rows of the first violating
        table.  The document goes through :func:`repro.parallel.run_pipeline`
        with one insert funnel per rule as its row sink: on the serial arm
        (``jobs`` 1) every row streams into the insert batches as it
        completes — no materialized instance, memory bounded by the batch
        size; with ``jobs`` > 1 the document is shredded on the parallel
        plane and the merged rows go through the same funnels.
        """
        from repro.parallel import run_pipeline

        rules = list(transformation)
        if document is None and self.ddl.provenance_column is not None:
            document = f"doc{self._documents_loaded}"
        name = f"repro_doc_{self._documents_loaded}"
        self._documents_loaded += 1
        with self.backend.savepoint(name):
            sinks = {rule.relation: self._sink(rule.relation, document) for rule in rules}
            run_pipeline(
                source,
                rules=rules,
                sinks={table: sink.push for table, sink in sinks.items()},
                deduplicate=self.deduplicate,
                jobs=jobs,
            )
            counts = {
                rule.relation: self._settle(rule.relation, sinks[rule.relation], document)
                for rule in rules
            }
        if obs.enabled():
            registry = obs.metrics()
            registry.inc("load.documents")
            for table, count in counts.items():
                registry.inc("load.rows", count, table=table)
        log.debug(
            "loaded document %s: %d row(s) across %d table(s)",
            document, sum(counts.values()), len(counts),
        )
        return counts

    # ------------------------------------------------------------------
    # Corpus-level loading
    # ------------------------------------------------------------------
    def load_corpus(
        self,
        documents: Iterable[Union[EventSource, Tuple[str, EventSource]]],
        transformation: Union[Transformation, Iterable[TableRule]],
        jobs: Optional[int] = None,
        on_error: str = "raise",
    ) -> LoadReport:
        """Ingest many documents into the same tables.

        ``documents`` yields sources or ``(document_id, source)`` pairs
        (ids default to ``doc0``, ``doc1``, …).  Each document is atomic;
        ``on_error="skip"`` records a strict-mode rejection in the report
        (the document rolls back) and carries on with the next document,
        ``"raise"`` (the default) re-raises immediately.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        rules = list(transformation)
        report = LoadReport()
        for index, entry in enumerate(documents):
            if isinstance(entry, tuple):
                document_id, source = entry
            else:
                document_id, source = f"doc{index}", entry
            try:
                counts = self.load_document(
                    source, rules, document=document_id, jobs=jobs
                )
            except LoadError as error:
                if on_error == "raise":
                    raise
                log.info("document %s rejected: %s", document_id, error)
                report.rejected[document_id] = error
                continue
            report.documents.append(document_id)
            report.merge_counts(counts)
        return report
