"""Fault injection and the chaos tests it enables.

The headline claims under test: a fault at *any* data statement inside a
document load leaves the database and the loader's counters exactly at
the pre-document state, on every backend, and the next document loads
cleanly afterwards.
"""

import pytest

from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.storage import BulkLoader, SQLiteBackend, StorageError, compile_ddl
from repro.storage.backend import TransientError
from repro.transform.rule import TableRule

from tests.storage.fake_postgres import fake_postgres_backend
from tests.storage.faults import FaultInjectingBackend, FaultPlan

RULES = [
    TableRule(
        "t",
        fields={"a": "xa", "b": "xb"},
        mappings=[("xi", "xr", "i"), ("xa", "xi", "a"), ("xb", "xi", "b")],
    )
]

SCHEMA = DatabaseSchema([RelationSchema("t", ["a", "b"], keys=[frozenset({"a"})])])


def _doc(*pairs):
    items = "".join(f"<i><a>{a}</a><b>{b}</b></i>" for a, b in pairs)
    return f"<r>{items}</r>"


def _loader(backend, mode="strict", batch_size=2):
    ddl = compile_ddl(
        SCHEMA, mode=mode, provenance_column="_doc",
        ordinal_column=backend.ordinal_column, if_not_exists=True,
    )
    return BulkLoader(backend, ddl, batch_size=batch_size)


class TestFaultPlan:
    def test_failing_builds_default_transient_errors(self):
        plan = FaultPlan.failing(2, 5)
        assert isinstance(plan.exception_for(2), TransientError)

    def test_custom_exception_instances_and_factories(self):
        boom = StorageError("boom")
        plan = FaultPlan(fail_at={0: boom, 1: lambda: StorageError("made")})
        assert plan.exception_for(0) is boom
        assert str(plan.exception_for(1)) == "made"


class TestFaultInjectingBackend:
    @pytest.fixture()
    def inner(self):
        b = SQLiteBackend()
        b.execute('CREATE TABLE "t" ("a" TEXT)')
        return b

    def test_fails_exactly_the_nth_data_statement(self, inner):
        backend = FaultInjectingBackend(inner, FaultPlan.failing(1))
        backend.execute('INSERT INTO "t" VALUES (?)', ("0",))
        with pytest.raises(TransientError):
            backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        backend.execute('INSERT INTO "t" VALUES (?)', ("2",))
        assert [e.action for e in backend.history] == ["ok", "fail", "ok"]
        assert backend.query('SELECT COUNT(*) FROM "t"') == [(2,)]

    def test_control_statements_are_never_counted_or_faulted(self, inner):
        backend = FaultInjectingBackend(inner, FaultPlan.failing(0))
        backend.begin()
        backend.execute("SAVEPOINT sp")
        backend.execute("RELEASE SAVEPOINT sp")
        backend.commit()
        # The first *data* statement still carries ordinal 0.
        with pytest.raises(TransientError):
            backend.execute('INSERT INTO "t" VALUES (?)', ("0",))

    def test_executescript_is_setup_not_chaos(self, inner):
        backend = FaultInjectingBackend(inner, FaultPlan.failing(0))
        backend.executescript('CREATE TABLE "u" ("x" TEXT);')
        assert backend.statements == 0

    def test_dropped_statements_vanish_silently(self, inner):
        backend = FaultInjectingBackend(inner, FaultPlan(drop_at={1}))
        backend.execute('INSERT INTO "t" VALUES (?)', ("0",))
        cursor = backend.execute('INSERT INTO "t" VALUES (?)', ("1",))
        assert cursor.fetchall() == []  # the null cursor
        backend.execute('INSERT INTO "t" VALUES (?)', ("2",))
        assert backend.query('SELECT COUNT(*) FROM "t"') == [(2,)]

    def test_delay_uses_injected_sleep(self, inner):
        slept = []
        backend = FaultInjectingBackend(
            inner, FaultPlan(delay_at={0: 1.5}), sleep=slept.append
        )
        backend.execute('INSERT INTO "t" VALUES (?)', ("0",))
        assert slept == [1.5]

    def test_executemany_counts_one_ordinal(self, inner):
        backend = FaultInjectingBackend(inner, FaultPlan.failing(1))
        backend.executemany('INSERT INTO "t" VALUES (?)', [("0",), ("1",)])
        with pytest.raises(TransientError):
            backend.executemany('INSERT INTO "t" VALUES (?)', [("2",)])


@pytest.mark.parametrize("make_backend", [SQLiteBackend, fake_postgres_backend])
class TestChaosAtomicity:
    """A mid-document fault leaves DB and counters at pre-document state."""

    def _fault_everywhere(self, make_backend, mode):
        """Load doc1 clean, then replay doc2 with a fault at every data
        ordinal it would otherwise produce; each replay must leave the
        database exactly as after doc1."""
        # Dry run counts doc2's data statements.
        inner = make_backend()
        loader = _loader(inner, mode=mode)
        loader.create_schema()
        loader.load_document(_doc(("1", "x")), RULES, document="d1")
        probe = FaultInjectingBackend(inner, FaultPlan())
        _loader(probe, mode=mode).load_document(
            _doc(("2", "y"), ("3", "z"), ("4", "w")), RULES, document="d2"
        )
        return probe.statements

    @pytest.mark.parametrize("mode", ["strict", "log"])
    def test_fault_at_every_ordinal_rolls_back_cleanly(self, make_backend, mode):
        total = self._fault_everywhere(make_backend, mode)
        assert total >= 1
        for ordinal in range(total):
            backend = make_backend()
            loader = _loader(backend, mode=mode)
            loader.create_schema()
            report = loader.load_corpus([("d1", _doc(("1", "x")))], RULES)
            before = backend.query('SELECT "a", "b" FROM "t"')
            faulty = FaultInjectingBackend(backend, FaultPlan.failing(ordinal))
            chaos_loader = _loader(faulty, mode=mode)
            with pytest.raises(TransientError):
                chaos_loader.load_document(
                    _doc(("2", "y"), ("3", "z"), ("4", "w")), RULES, document="d2"
                )
            # Database back at the pre-document state...
            assert backend.query('SELECT "a", "b" FROM "t"') == before
            # ...and the clean loader's counters never saw the document.
            assert report.rows == {"t": 1}
            assert list(report.documents) == ["d1"]
            # The plane recovers: the same document loads cleanly after.
            counts = loader.load_document(
                _doc(("2", "y"), ("3", "z"), ("4", "w")), RULES, document="d2"
            )
            assert counts == {"t": 3}
            backend.close()

    def test_clean_wrapper_is_transparent(self, make_backend):
        backend = make_backend()
        faulty = FaultInjectingBackend(backend, FaultPlan())
        loader = _loader(faulty)
        loader.create_schema()
        counts = loader.load_document(_doc(("1", "x"), ("2", "y")), RULES)
        assert counts == {"t": 2}
        assert all(event.action == "ok" for event in faulty.history)
        backend.close()
