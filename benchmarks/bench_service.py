"""PR-8 service-plane benchmarks: COPY vs executemany, concurrent ingestion.

Two questions, one per group:

* ``service-copy-vs-executemany`` — the PostgreSQL protocol's bulk paths
  over one ~60k-row shred: ``copy_rows`` against batched ``executemany``.
  On the in-process fake both run over sqlite, so the absolute numbers
  only track the translation overhead; the *gate*
  (``test_copy_speedup_report``: COPY ≥ 2× executemany) runs only when
  ``REPRO_PG_DSN`` points at a live server, where COPY's single-stream
  wire format is the whole point.

* ``service-ingestion-throughput`` — end-to-end document ingestion
  through :class:`~repro.service.server.IngestionService` (bounded queue
  → 8 workers → thread pool → connection pool → loader), 64 documents
  over 8 tenants, against the same corpus through a serial
  :class:`~repro.storage.loader.BulkLoader` loop.  On sqlite the pool
  serializes the loads (one connection), so this records the service
  plumbing's overhead/parallelism rather than gating a speedup.

Recorded into the ``BENCH_PR8.json`` CI artifact.
"""

import asyncio
import os
import time

import pytest

from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.service import IngestionService
from repro.storage import (
    BulkLoader,
    PostgresBackend,
    SQLiteBackend,
    compile_ddl,
)
from repro.transform.rule import TableRule

from tests.storage.fake_postgres import fake_postgres_backend

PG_DSN = os.environ.get("REPRO_PG_DSN")

REQUIRED_COPY_SPEEDUP = 2.0

ROWS = 60_000
BATCH_SIZE = 500

DOCUMENTS = 64
TENANTS = 8
ITEMS_PER_DOCUMENT = 200

RULES = [
    TableRule(
        "t",
        fields={"a": "xa", "b": "xb"},
        mappings=[("xi", "xr", "i"), ("xa", "xi", "a"), ("xb", "xi", "b")],
    )
]

SCHEMA = DatabaseSchema([RelationSchema("t", ["a", "b"])])


def _bulk_rows(count):
    return [(str(n), f"value-{n}") for n in range(count)]


def _document(seed, items):
    parts = [f"<i><a>{seed}-{n}</a><b>x{n}</b></i>" for n in range(items)]
    return "<r>" + "".join(parts) + "</r>"


def _pg_backend():
    return PostgresBackend(dsn=PG_DSN) if PG_DSN else fake_postgres_backend()


def _fresh_table(backend):
    with backend.transaction():
        backend.execute('DROP TABLE IF EXISTS "bench_copy"')
        backend.execute('CREATE TABLE "bench_copy" ("a" TEXT, "b" TEXT)')


def _load_executemany(backend, rows):
    sql = f'INSERT INTO "bench_copy" ("a", "b") VALUES ({backend.placeholder}, {backend.placeholder})'
    with backend.transaction():
        for start in range(0, len(rows), BATCH_SIZE):
            backend.executemany(sql, rows[start : start + BATCH_SIZE])


def _load_copy(backend, rows):
    with backend.transaction():
        backend.copy_rows("bench_copy", ["a", "b"], rows)


# ----------------------------------------------------------------------
# COPY vs executemany
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="service-copy-vs-executemany")
@pytest.mark.parametrize("path", ["executemany", "copy"])
def test_bulk_path_throughput(benchmark, path):
    backend = _pg_backend()
    rows = _bulk_rows(ROWS)
    load = _load_executemany if path == "executemany" else _load_copy

    def run():
        _fresh_table(backend)
        load(backend, rows)

    benchmark(run)
    assert backend.row_count("bench_copy") == ROWS
    backend.close()


@pytest.mark.skipif(not PG_DSN, reason="needs a live server (REPRO_PG_DSN)")
def test_copy_speedup_report(capsys):
    """Gate: against a real server, COPY must beat executemany >= 2x."""
    backend = PostgresBackend(dsn=PG_DSN)
    rows = _bulk_rows(ROWS)
    timings = {}
    for name, load in (("executemany", _load_executemany), ("copy", _load_copy)):
        best = float("inf")
        for _ in range(3):
            _fresh_table(backend)
            start = time.perf_counter()
            load(backend, rows)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
        assert backend.row_count("bench_copy") == ROWS
    backend.close()
    speedup = timings["executemany"] / timings["copy"]
    with capsys.disabled():
        print(
            f"\n[copy-speedup] executemany={timings['executemany']:.3f}s "
            f"copy={timings['copy']:.3f}s speedup={speedup:.1f}x "
            f"(required {REQUIRED_COPY_SPEEDUP}x)"
        )
    assert speedup >= REQUIRED_COPY_SPEEDUP


# ----------------------------------------------------------------------
# Concurrent ingestion throughput
# ----------------------------------------------------------------------
def _corpus():
    return [
        (f"tenant{n % TENANTS}", f"doc{n}", _document(n, ITEMS_PER_DOCUMENT))
        for n in range(DOCUMENTS)
    ]


def _serve_corpus(corpus):
    async def run():
        service = IngestionService(
            backend_factory=lambda: SQLiteBackend(check_same_thread=False),
            mode="log",
            workers=8,
            queue_size=32,
        )
        await service.start()
        tenants = sorted({tenant for tenant, _, _ in corpus})
        for tenant in tenants:
            service.register_tenant(tenant, RULES)
        results = await asyncio.gather(
            *(
                service.upload(tenant, text, document=document)
                for tenant, document, text in corpus
            )
        )
        await service.stop()
        service.close()
        return results

    return asyncio.run(run())


def _serial_corpus(corpus):
    backend = SQLiteBackend()
    ddl = compile_ddl(SCHEMA, mode="log", provenance_column="_doc", if_not_exists=True)
    loader = BulkLoader(backend, ddl)
    loader.create_schema()
    counts = []
    for _, document, text in corpus:
        counts.append(loader.load_document(text, RULES, document=document))
    backend.close()
    return counts


@pytest.mark.benchmark(group="service-ingestion-throughput")
@pytest.mark.parametrize("pipeline", ["serial-loader", "service-8-workers"])
def test_ingestion_throughput(benchmark, pipeline):
    corpus = _corpus()
    run = _serial_corpus if pipeline == "serial-loader" else _serve_corpus
    results = benchmark(run, corpus)
    assert len(results) == DOCUMENTS
    assert all(counts[next(iter(counts))] == ITEMS_PER_DOCUMENT for counts in results)


def test_service_matches_serial_loader_counts():
    """The service's per-document row counts equal the serial loader's."""
    corpus = _corpus()[:8]
    serial = _serial_corpus(corpus)
    served = _serve_corpus(corpus)
    assert [sum(c.values()) for c in served] == [sum(c.values()) for c in serial]
