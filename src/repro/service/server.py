"""The asyncio ingestion service and its NDJSON-over-TCP front door.

:class:`IngestionService` is the embeddable core: a bounded
:class:`asyncio.Queue` of pending uploads, a small set of worker tasks
draining it, a thread pool for the CPU-bound shred+load, and a
:class:`~repro.storage.pool.ConnectionPool` of backends underneath.  Per
tenant, uploads serialize behind an :class:`asyncio.Lock` — documents of
one tenant land in registration order against the same tables, which is
what keeps the provenance story and strict-mode first-occurrence
semantics identical to a serial :class:`~repro.storage.loader.BulkLoader`
run; *across* tenants, uploads overlap freely.  The queue bound is the
backpressure: when ``queue_size`` uploads are in flight, further
``upload()`` calls wait instead of buffering unboundedly.

Every load is transactional exactly as the storage plane promises: a
strict-mode rejection (:exc:`~repro.storage.loader.LoadError`) or an
injected/transient failure rolls the document back completely, the error
is reported on that upload's future, and the service keeps serving.

The wire protocol (``repro serve``) is newline-delimited JSON, one
request object per line, one response object per line, over TCP::

    {"op": "ping"}
    {"op": "register", "tenant": "t", "rules": [...], "schema": [...],
     "mode": "strict"}
    {"op": "upload", "tenant": "t", "text": "<doc…>", "document": "d1"}
    {"op": "verify", "tenant": "t"}
    {"op": "stats"}

Responses always carry ``"ok"``; failures carry ``"error"`` (and
``"rejected"`` row payloads for strict-mode violations).  A request line
longer than :data:`MAX_FRAME_BYTES` is discarded and answered with an
error; the connection keeps serving.  The codecs for rules and schemas live
in :mod:`repro.service.registry`.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.obs.render import render_prometheus
from repro.relational.instance import is_null
from repro.service.registry import (
    DEFAULT_PROVENANCE,
    SchemaRegistry,
    TenantConfig,
    rule_from_wire,
    schema_from_wire,
)
from repro.storage import (
    Backend,
    BulkLoader,
    ConnectionPool,
    LoadError,
    RetryingBackend,
    RetryPolicy,
    SQLVerifier,
    StorageError,
    open_backend,
)


log = obs.get_logger("service")

#: Longest NDJSON request line the server reads, in bytes; passed as the
#: stream ``limit`` of every connection.  Uploads carry whole documents
#: inline, so this is far above asyncio's 64 KiB default.
MAX_FRAME_BYTES = 16 * 1024 * 1024


def _plain_rows(rows: List) -> List[Dict]:
    """Violating rows as JSON-safe dicts (NULL sentinel → ``None``)."""
    return [
        {key: (None if is_null(value) else value) for key, value in row.items()}
        for row in rows
    ]


class IngestionService:
    """Concurrent document ingestion over one storage backend.

    ``database``/``backend`` select the engine exactly like the CLI
    (:func:`repro.storage.open_backend`); a custom ``backend_factory``
    overrides both (tests inject fakes and fault wrappers this way).
    ``pool_size`` bounds concurrent connections — the default of 1 is
    right for sqlite (including ``:memory:``, where separate connections
    would see separate databases); raise it for PostgreSQL.
    ``retry_policy`` wraps every pooled backend in a
    :class:`~repro.storage.retry.RetryingBackend`.
    """

    def __init__(
        self,
        database: str = ":memory:",
        backend: Optional[str] = None,
        mode: str = "strict",
        pool_size: int = 1,
        workers: int = 4,
        queue_size: int = 64,
        jobs: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        backend_factory: Optional[Callable[[], Backend]] = None,
    ) -> None:
        #: The service's own always-on registry: live introspection
        #: (``stats`` verb, Prometheus endpoint) must work regardless of
        #: the ``REPRO_METRICS`` switch, so the pool and retry layers get
        #: this registry explicitly instead of the ambient one.
        self.metrics = obs.MetricsRegistry()
        if backend_factory is None:
            backend_factory = lambda: open_backend(  # noqa: E731
                database, backend=backend, check_same_thread=False
            )
        if retry_policy is not None:
            inner_factory = backend_factory
            backend_factory = lambda: RetryingBackend(  # noqa: E731
                inner_factory(), retry_policy, metrics=self.metrics
            )
        self.pool = ConnectionPool(
            backend_factory, max_size=pool_size, metrics=self.metrics
        )
        # One probe connection decides the engine's ordinal-column needs
        # (and fails fast on a bad DSN); it goes straight back to the pool.
        probe = self.pool.acquire()
        try:
            ordinal = probe.ordinal_column
        finally:
            self.pool.release(probe)
        self.registry = SchemaRegistry(ordinal_column=ordinal)
        self.mode = mode
        self.jobs = jobs
        self.workers = workers
        self.queue_size = queue_size
        self._queue: Optional[asyncio.Queue] = None
        self._tasks: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._locks: Dict[str, asyncio.Lock] = {}
        self._doc_counter: Dict[str, int] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._queue = asyncio.Queue(self.queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-ingest"
        )
        self._tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(self.workers)
        ]
        self._started = True
        log.info(
            "service started: %d workers, queue %d, pool %d",
            self.workers, self.queue_size, self.pool._max_size,
        )

    async def stop(self) -> None:
        if not self._started:
            return
        assert self._queue is not None
        await self._queue.join()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False
        log.info("service stopped")

    def close(self) -> None:
        self.pool.close()

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        tenant: str,
        rules,
        schema=None,
        cover=(),
        mode: Optional[str] = None,
        provenance_column: Optional[str] = DEFAULT_PROVENANCE,
        replace: bool = False,
    ) -> TenantConfig:
        """Register a tenant and create its tables (idempotent DDL)."""
        config = self.registry.register(
            tenant,
            rules,
            schema=schema,
            cover=cover,
            mode=mode or self.mode,
            provenance_column=provenance_column,
            replace=replace,
        )
        with self.pool.connection() as backend:
            BulkLoader(backend, config.ddl).create_schema()
        log.info(
            "tenant %r registered: %d tables, mode %s",
            tenant, len(config.tables), config.ddl.mode,
        )
        return config

    def _lock_for(self, tenant: str) -> asyncio.Lock:
        lock = self._locks.get(tenant)
        if lock is None:
            lock = self._locks[tenant] = asyncio.Lock()
        return lock

    def _next_document_id(self, tenant: str) -> str:
        n = self._doc_counter.get(tenant, 0)
        self._doc_counter[tenant] = n + 1
        return f"doc{n}"

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def upload(
        self, tenant: str, text: str, document: Optional[str] = None
    ) -> Dict[str, int]:
        """Enqueue one document and await its per-table row counts.

        Raises :exc:`KeyError` for an unknown tenant,
        :exc:`~repro.storage.loader.LoadError` when strict-mode
        constraints reject the document (fully rolled back), and whatever
        storage-plane error a failing backend surfaced (ditto).
        """
        if not self._started:
            raise RuntimeError("the service is not started (call start())")
        self.registry.get(tenant)  # unknown tenants fail before queueing
        if document is None:
            document = self._next_document_id(tenant)
        assert self._queue is not None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # Queue depth counts accepted-but-unfinished uploads: +1 here,
        # -1 when the worker finishes (success or rejection alike).
        self.metrics.inc("service.uploads", tenant=tenant)
        self.metrics.gauge_add("service.queue_depth", 1, tenant=tenant)
        await self._queue.put((tenant, document, text, future))
        return await future

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            tenant, document, text, future = await self._queue.get()
            try:
                config = self.registry.get(tenant)
                async with self._lock_for(tenant):
                    loop = asyncio.get_running_loop()
                    counts = await loop.run_in_executor(
                        self._executor, self._load_sync, config, document, text
                    )
                config.merge_counts(counts)
                self.metrics.inc(
                    "service.loaded_rows", sum(counts.values()), tenant=tenant
                )
                log.debug(
                    "loaded %r for tenant %r: %d rows",
                    document, tenant, sum(counts.values()),
                )
                if not future.cancelled():
                    future.set_result(config.logical_counts(counts))
            except BaseException as error:  # report on the future, keep serving
                if isinstance(error, LoadError):
                    self.metrics.inc("service.rejections", tenant=tenant)
                    log.info(
                        "rejected %r for tenant %r: %s", document, tenant, error
                    )
                if not future.cancelled():
                    future.set_exception(error)
                if isinstance(error, asyncio.CancelledError):
                    raise
            finally:
                self.metrics.gauge_add("service.queue_depth", -1, tenant=tenant)
                self._queue.task_done()

    def _load_sync(
        self, config: TenantConfig, document: str, text: str
    ) -> Dict[str, int]:
        with self.pool.connection() as backend:
            loader = BulkLoader(backend, config.ddl)
            return loader.load_document(
                text, config.rules, document=document, jobs=self.jobs
            )

    # ------------------------------------------------------------------
    # Verification / stats
    # ------------------------------------------------------------------
    async def verify(self, tenant: str) -> Dict[str, List[str]]:
        """In-database key verification for one tenant (logical names)."""
        config = self.registry.get(tenant)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._verify_sync, config)

    def _verify_sync(self, config: TenantConfig) -> Dict[str, List[str]]:
        with self.pool.connection() as backend:
            verifier = SQLVerifier(backend, config.ddl)
            report = verifier.check_keys()
        reverse = {physical: logical for logical, physical in config.tables.items()}
        return {
            reverse.get(table, table): [violation.detail for violation in found]
            for table, found in report.items()
        }

    def stats(self) -> Dict[str, Dict]:
        """Per-tenant live counters: documents, rows, queue depth,
        rejections — read off the service's always-on registry."""
        snapshot = self.metrics.snapshot()
        out: Dict[str, Dict] = {}
        for tenant in self.registry.tenants():
            config = self.registry.get(tenant)
            out[tenant] = {
                "documents": config.documents,
                "rows": dict(config.loaded),
                "queue_depth": int(
                    snapshot.gauge("service.queue_depth", tenant=tenant)
                ),
                "uploads": int(snapshot.counter("service.uploads", tenant=tenant)),
                "loaded_rows": int(
                    snapshot.counter("service.loaded_rows", tenant=tenant)
                ),
                "rejections": int(
                    snapshot.counter("service.rejections", tenant=tenant)
                ),
            }
        return out

    # ------------------------------------------------------------------
    # NDJSON protocol
    # ------------------------------------------------------------------
    async def dispatch(self, request: Dict) -> Dict:
        """Handle one decoded request object; never raises."""
        try:
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "register":
                rules = [rule_from_wire(entry) for entry in request.get("rules", ())]
                schema = [
                    schema_from_wire(entry) for entry in request.get("schema", ())
                ]
                config = self.register_tenant(
                    request["tenant"],
                    rules,
                    schema=schema or None,
                    mode=request.get("mode"),
                    replace=bool(request.get("replace")),
                )
                return {
                    "ok": True,
                    "tenant": config.tenant,
                    "tables": sorted(config.tables),
                    "mode": config.ddl.mode,
                }
            if op == "upload":
                counts = await self.upload(
                    request["tenant"],
                    request["text"],
                    document=request.get("document"),
                )
                return {"ok": True, "rows": counts}
            if op == "verify":
                return {"ok": True, "violations": await self.verify(request["tenant"])}
            if op == "stats":
                return {"ok": True, "tenants": self.stats()}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except LoadError as error:
            return {
                "ok": False,
                "error": str(error),
                "table": error.table,
                "rejected": _plain_rows(error.rows),
            }
        except (KeyError, ValueError, StorageError, RuntimeError) as error:
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    # End of stream; an unterminated last line still counts.
                    line = error.partial
                    if not line:
                        break
                except asyncio.LimitOverrunError as error:
                    await _discard_frame(reader, error.consumed)
                    response = {
                        "ok": False,
                        "error": f"frame too large: a request line may hold "
                        f"at most {MAX_FRAME_BYTES} bytes",
                    }
                    await _send(writer, response)
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as error:
                    response = {"ok": False, "error": f"bad request: {error}"}
                else:
                    response = await self.dispatch(request)
                await _send(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Service shutdown mid-connection: end the handler task
            # normally so the stream machinery does not log the
            # cancellation, then let ``finally`` close the socket.
            pass
        finally:
            writer.close()

    async def serve_ndjson(
        self, host: str = "127.0.0.1", port: int = 8743
    ) -> asyncio.AbstractServer:
        """Start accepting NDJSON connections; returns the server (whose
        first socket carries the bound port — tests pass 0)."""
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=MAX_FRAME_BYTES
        )

    # ------------------------------------------------------------------
    # Prometheus text endpoint
    # ------------------------------------------------------------------
    async def _handle_metrics_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One minimal HTTP exchange: any request → the metrics page.

        A scrape endpoint needs exactly one route, so the request head is
        consumed and discarded and the response is always the Prometheus
        text rendering of the service registry.
        """
        try:
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = render_prometheus(self.metrics.snapshot()).encode("utf-8")
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii")
                + b"\r\nConnection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()

    async def serve_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Start the ``/metrics`` scrape endpoint; returns the server
        (whose first socket carries the bound port — tests pass 0)."""
        server = await asyncio.start_server(
            self._handle_metrics_connection, host, port
        )
        bound = server.sockets[0].getsockname()[1] if server.sockets else port
        log.info("metrics endpoint listening on %s:%d", host, bound)
        return server

    async def serve_forever(
        self,
        host: str = "127.0.0.1",
        port: int = 8743,
        metrics_port: Optional[int] = None,
    ) -> None:
        """Start workers and accept NDJSON connections until cancelled."""
        await self.start()
        server = await self.serve_ndjson(host, port)
        metrics_server = None
        if metrics_port is not None:
            metrics_server = await self.serve_metrics(host, metrics_port)
        try:
            async with server:
                await server.serve_forever()
        finally:
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            await self.stop()
            self.close()


async def _send(writer: asyncio.StreamWriter, response: Dict) -> None:
    writer.write(json.dumps(response).encode("utf-8") + b"\n")
    await writer.drain()


async def _discard_frame(reader: asyncio.StreamReader, consumed: int) -> None:
    """Drop the rest of an over-long line, through its newline.

    ``consumed`` is what the :exc:`asyncio.LimitOverrunError` reported:
    the bytes already buffered before the newline (or all of them, when
    the newline has not arrived yet).  The loop drops those and reads on,
    one buffer limit at a time, until the newline or the end of stream.
    """
    while True:
        try:
            await reader.readexactly(consumed)
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as error:
            consumed = error.consumed
        except asyncio.IncompleteReadError:
            return
