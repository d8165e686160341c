"""End-to-end tests of the asyncio ingestion service.

Each test drives the service inside ``asyncio.run`` — uploads travel the
real path: bounded queue → worker task → thread pool → connection pool →
:class:`~repro.storage.loader.BulkLoader`.
"""

import asyncio
import json

import pytest

from repro.relational.schema import RelationSchema
from repro.service import IngestionService
from repro.service.registry import rule_to_wire, schema_to_wire
from repro.storage import LoadError, SQLiteBackend
from repro.storage.backend import TransientError
from repro.transform.rule import TableRule

from tests.storage.faults import FaultInjectingBackend, FaultPlan

RULES = [
    TableRule(
        "t",
        fields={"a": "xa", "b": "xb"},
        mappings=[("xi", "xr", "i"), ("xa", "xi", "a"), ("xb", "xi", "b")],
    )
]

SCHEMA = [RelationSchema("t", ["a", "b"], keys=[frozenset({"a"})])]


def _doc(*pairs):
    items = "".join(f"<i><a>{a}</a><b>{b}</b></i>" for a, b in pairs)
    return f"<r>{items}</r>"


def run(coro):
    return asyncio.run(coro)


async def _with_service(body, **kwargs):
    service = IngestionService(**kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()
        service.close()


class TestIngestion:
    def test_upload_counts_rows(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA)
            return await service.upload("acme", _doc(("1", "x"), ("2", "y")))

        assert run(_with_service(body)) == {"t": 2}

    def test_concurrent_uploads_across_tenants(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA)
            service.register_tenant("beta", RULES, schema=SCHEMA)
            results = await asyncio.gather(
                service.upload("acme", _doc(("1", "x"))),
                service.upload("beta", _doc(("1", "x"), ("2", "y"))),
                service.upload("acme", _doc(("2", "y"))),
                service.upload("beta", _doc(("3", "z"))),
            )
            return results, service.stats()

        results, stats = run(_with_service(body, workers=4))
        assert results == [{"t": 1}, {"t": 2}, {"t": 1}, {"t": 1}]
        assert stats["acme"] == {
            "documents": 2, "rows": {"t": 2}, "queue_depth": 0,
            "uploads": 2, "loaded_rows": 2, "rejections": 0,
        }
        assert stats["beta"] == {
            "documents": 2, "rows": {"t": 3}, "queue_depth": 0,
            "uploads": 2, "loaded_rows": 3, "rejections": 0,
        }

    def test_unknown_tenant_fails_before_queueing(self):
        async def body(service):
            with pytest.raises(KeyError):
                await service.upload("ghost", _doc(("1", "x")))

        run(_with_service(body))

    def test_strict_rejection_rolls_back_the_document(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA, mode="strict")
            await service.upload("acme", _doc(("1", "x")))
            with pytest.raises(LoadError):
                await service.upload("acme", _doc(("2", "y"), ("1", "dup")))
            # The rejected document vanished entirely; the service keeps
            # serving and the next document lands.
            counts = await service.upload("acme", _doc(("3", "z")))
            assert counts == {"t": 1}
            return service.stats()

        stats = run(_with_service(body))
        assert stats["acme"] == {
            "documents": 2, "rows": {"t": 2}, "queue_depth": 0,
            "uploads": 3, "loaded_rows": 2, "rejections": 1,
        }

    def test_log_mode_stages_and_verify_reports(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA, mode="log")
            await service.upload("acme", _doc(("1", "x")))
            await service.upload("acme", _doc(("1", "conflict")))
            return await service.verify("acme")

        violations = run(_with_service(body))
        assert set(violations) == {"t"}
        assert violations["t"]  # logical, not physical, table names

    def test_strict_tenant_verifies_clean(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA)
            await service.upload("acme", _doc(("1", "x")))
            return await service.verify("acme")

        assert run(_with_service(body)) == {}

    def test_transient_fault_fails_one_upload_not_the_service(self, tmp_path):
        # File-backed: the pool discards the faulted backend (its
        # connection state is suspect) and the factory's replacement must
        # find the data again.
        database = str(tmp_path / "service.db")

        def factory():
            # Per-backend data-statement ordinals: 0-1 are the tenant's
            # CREATE TABLE/INDEX, 2 the first upload's batch — so 3
            # breaks exactly the second upload.
            backend = SQLiteBackend(database, check_same_thread=False)
            return FaultInjectingBackend(backend, FaultPlan.failing(3))

        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA)
            await service.upload("acme", _doc(("1", "x")))
            with pytest.raises(TransientError):
                await service.upload("acme", _doc(("2", "y")))
            counts = await service.upload("acme", _doc(("3", "z")))
            assert counts == {"t": 1}
            return service.stats()

        stats = run(_with_service(body, backend_factory=factory))
        assert stats["acme"]["documents"] == 2

    def test_upload_before_start_raises(self):
        service = IngestionService()
        service.register_tenant("acme", RULES, schema=SCHEMA)
        with pytest.raises(RuntimeError):
            run(service.upload("acme", _doc(("1", "x"))))
        service.close()


class TestDispatch:
    def _register_request(self, tenant="acme", mode="strict"):
        return {
            "op": "register",
            "tenant": tenant,
            "rules": [rule_to_wire(rule) for rule in RULES],
            "schema": [schema_to_wire(schema) for schema in SCHEMA],
            "mode": mode,
        }

    def test_ping(self):
        async def body(service):
            return await service.dispatch({"op": "ping"})

        assert run(_with_service(body)) == {"ok": True, "op": "ping"}

    def test_register_upload_verify_stats(self):
        async def body(service):
            out = []
            out.append(await service.dispatch(self._register_request(mode="log")))
            out.append(
                await service.dispatch(
                    {"op": "upload", "tenant": "acme", "text": _doc(("1", "x"))}
                )
            )
            out.append(await service.dispatch({"op": "verify", "tenant": "acme"}))
            out.append(await service.dispatch({"op": "stats"}))
            return out

        register, upload, verify, stats = run(_with_service(body))
        assert register == {
            "ok": True, "tenant": "acme", "tables": ["t"], "mode": "log",
        }
        assert upload == {"ok": True, "rows": {"t": 1}}
        assert verify == {"ok": True, "violations": {}}
        assert stats["tenants"]["acme"]["documents"] == 1

    def test_strict_rejection_carries_the_rows(self):
        async def body(service):
            await service.dispatch(self._register_request())
            await service.dispatch(
                {"op": "upload", "tenant": "acme", "text": _doc(("1", "x"))}
            )
            return await service.dispatch(
                {
                    "op": "upload",
                    "tenant": "acme",
                    "text": _doc(("1", "dup")),
                    "document": "d2",
                }
            )

        response = run(_with_service(body))
        assert response["ok"] is False
        assert response["table"] == "acme__t"
        # The pinpointed rows carry the relation's attributes (provenance
        # is bookkeeping, not part of the violating tuple).
        assert response["rejected"] == [{"a": "1", "b": "dup"}]

    def test_errors_never_escape_dispatch(self):
        async def body(service):
            return [
                await service.dispatch({"op": "warp"}),
                await service.dispatch({"op": "upload", "tenant": "ghost", "text": ""}),
                await service.dispatch({"op": "register", "tenant": "x", "rules": []}),
            ]

        unknown, ghost, empty = run(_with_service(body))
        assert not unknown["ok"] and "unknown op" in unknown["error"]
        assert not ghost["ok"] and "ghost" in ghost["error"]
        assert not empty["ok"]


class TestWireProtocol:
    def test_tcp_round_trip(self):
        async def body(service):
            server = await asyncio.start_server(
                service.handle_connection, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def ask(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            out = []
            out.append(await ask({"op": "ping"}))
            out.append(
                await ask(
                    {
                        "op": "register",
                        "tenant": "acme",
                        "rules": [rule_to_wire(rule) for rule in RULES],
                        "schema": [schema_to_wire(schema) for schema in SCHEMA],
                    }
                )
            )
            out.append(
                await ask({"op": "upload", "tenant": "acme", "text": _doc(("1", "x"))})
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            out.append(json.loads(await reader.readline()))
            writer.close()
            server.close()
            await server.wait_closed()
            return out

        ping, register, upload, garbage = run(_with_service(body))
        assert ping["ok"] and register["ok"]
        assert upload == {"ok": True, "rows": {"t": 1}}
        assert not garbage["ok"] and "bad request" in garbage["error"]


class TestFrameLimit:
    """Request lines longer than ``MAX_FRAME_BYTES`` are answered, not fatal."""

    @staticmethod
    async def _exchange(service, chunks, replies):
        server = await service.serve_ndjson("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 20
        )
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0.05)
        out = [
            json.loads(await asyncio.wait_for(reader.readline(), timeout=10))
            for _ in range(replies)
        ]
        writer.close()
        server.close()
        await server.wait_closed()
        return out

    @pytest.mark.parametrize("split", [False, True])
    def test_oversized_frame_is_answered_and_the_connection_survives(
        self, monkeypatch, split
    ):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", 1024)
        oversized = json.dumps({"op": "ping", "pad": "x" * 5000}).encode() + b"\n"
        stats = json.dumps({"op": "stats"}).encode() + b"\n"
        # Split: the first chunk overruns the limit before its newline has
        # arrived, so the rest of the frame must be discarded as it comes.
        chunks = [oversized[:3000], oversized[3000:] + stats] if split else [oversized + stats]

        too_large, answer = run(
            _with_service(lambda service: self._exchange(service, chunks, 2))
        )
        assert not too_large["ok"]
        assert too_large["error"].startswith("frame too large")
        assert answer == {"ok": True, "tenants": {}}

    def test_frames_above_the_asyncio_default_limit_are_served(self):
        frame = json.dumps({"op": "ping", "pad": "x" * 70_000}).encode() + b"\n"
        (reply,) = run(
            _with_service(lambda service: self._exchange(service, [frame], 1))
        )
        assert reply == {"ok": True, "op": "ping"}


class TestObservability:
    """The live-introspection surface: stats verb + Prometheus endpoint."""

    def test_stats_verb_carries_live_counters(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA, mode="strict")
            await service.upload("acme", _doc(("1", "x")))
            with pytest.raises(LoadError):
                await service.upload("acme", _doc(("1", "dup")))
            return await service.dispatch({"op": "stats"})

        response = run(_with_service(body))
        acme = response["tenants"]["acme"]
        assert acme["uploads"] == 2
        assert acme["loaded_rows"] == 1
        assert acme["rejections"] == 1
        assert acme["queue_depth"] == 0  # both uploads fully drained

    def test_queue_depth_counts_inflight_uploads(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA)
            # Uploads are enqueued but no worker has started yet (start()
            # ran, but we pause the loop before handing control over by
            # inspecting stats synchronously after put).
            task = asyncio.ensure_future(
                service.upload("acme", _doc(("1", "x")))
            )
            await asyncio.sleep(0)  # enqueue runs; the worker has not
            depth_mid = service.stats()["acme"]["queue_depth"]
            await task
            depth_after = service.stats()["acme"]["queue_depth"]
            return depth_mid, depth_after

        depth_mid, depth_after = run(_with_service(body))
        assert depth_mid == 1
        assert depth_after == 0

    def test_prometheus_endpoint_round_trip(self):
        async def body(service):
            service.register_tenant("acme", RULES, schema=SCHEMA)
            await service.upload("acme", _doc(("1", "x"), ("2", "y")))
            server = await service.serve_metrics("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            await writer.drain()
            payload = await reader.read()
            writer.close()
            server.close()
            await server.wait_closed()
            return payload.decode("utf-8")

        payload = run(_with_service(body))
        head, _, text = payload.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain" in head
        assert 'repro_service_uploads_total{tenant="acme"} 1' in text
        assert 'repro_service_loaded_rows_total{tenant="acme"} 2' in text
        assert 'repro_service_queue_depth{tenant="acme"} 0' in text
        # The pool counters land in the same always-on registry.
        assert "repro_pool_acquires_total" in text
