"""Tests for the PostgreSQL backend over its in-process driver double.

Everything here runs without a server: the fake
(``tests/storage/fake_postgres.py``) reproduces the driver's
observable surface (``%s`` placeholders, COPY, savepoint-in-transaction
rules, error taxonomy) over stdlib sqlite.  The same contract runs
against a live server via ``REPRO_PG_DSN`` in
``test_backend_contract.py``.
"""

import pytest

from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.storage import (
    BulkLoader,
    IntegrityViolation,
    PostgresBackend,
    SQLVerifier,
    SQLiteBackend,
    StorageError,
    compile_ddl,
)
from repro.storage.backend import TransientError
from repro.storage.postgres import ORDINAL_COLUMN
from repro.transform.rule import TableRule

from tests.storage.fake_postgres import _translate_format_sql, fake_postgres_backend

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


class TestConstruction:
    def test_needs_exactly_one_of_dsn_or_connection(self):
        with pytest.raises(ValueError):
            PostgresBackend()

    def test_advertises_pg_protocol(self):
        backend = fake_postgres_backend()
        assert backend.placeholder == "%s"
        assert backend.supports_copy
        assert backend.flavor == "fake"

    def test_real_backend_defaults_to_the_ordinal_column(self):
        # The fake runs on sqlite and keeps its genuine rowid; a real
        # server needs the explicit insertion-order column.
        assert ORDINAL_COLUMN == "_rid"
        assert fake_postgres_backend().ordinal_column is None


class TestPlaceholderTranslation:
    def test_format_to_qmark(self):
        assert _translate_format_sql("VALUES (%s, %s)") == "VALUES (?, ?)"

    def test_double_percent_unescapes(self):
        assert _translate_format_sql('"a%%sb" = %s') == '"a%sb" = ?'

    def test_unparameterized_statements_keep_percent_signs(self):
        backend = fake_postgres_backend()
        backend.execute('CREATE TABLE "p" ("a" TEXT)')
        backend.execute("INSERT INTO \"p\" VALUES ('100%')")
        assert backend.query('SELECT "a" FROM "p"') == [("100%",)]

    def test_parameterized_statements_bind_by_format(self):
        backend = fake_postgres_backend()
        backend.execute('CREATE TABLE "p" ("a" TEXT, "b" TEXT)')
        backend.execute('INSERT INTO "p" VALUES (%s, %s)', ("1", "x"))
        backend.executemany('INSERT INTO "p" VALUES (%s, %s)', [("2", "y")])
        assert sorted(backend.query('SELECT "a" FROM "p"')) == [("1",), ("2",)]


class TestErrorTaxonomy:
    def test_duplicate_key(self):
        backend = fake_postgres_backend()
        backend.execute('CREATE TABLE "e" ("a" TEXT PRIMARY KEY)')
        backend.execute('INSERT INTO "e" VALUES (%s)', ("1",))
        with pytest.raises(IntegrityViolation):
            backend.execute('INSERT INTO "e" VALUES (%s)', ("1",))

    def test_missing_table_is_not_transient(self):
        backend = fake_postgres_backend()
        with pytest.raises(StorageError) as info:
            backend.query('SELECT * FROM "absent"')
        assert not isinstance(info.value, (IntegrityViolation, TransientError))

    def test_lock_contention_is_transient(self):
        import sqlite3

        backend = fake_postgres_backend()
        error = backend._connection._translate(
            sqlite3.OperationalError("database is locked")
        )
        assert backend._translate(error).__class__ is TransientError


class TestCopy:
    def test_copy_rows_loads_and_escapes(self):
        backend = fake_postgres_backend()
        backend.execute('CREATE TABLE "c" ("a" TEXT, "b" TEXT)')
        n = backend.copy_rows("c", ["a", "b"], [("1", "x\ty"), ("2", None)])
        assert n == 2
        assert backend.table_names() == ["c"]
        assert sorted(backend.query('SELECT "a", "b" FROM "c"')) == [
            ("1", "x\ty"),
            ("2", None),
        ]


class TestSavepointSemantics:
    def test_bare_savepoint_opens_and_closes_a_transaction(self):
        # sqlite allows SAVEPOINT outside a transaction; PostgreSQL does
        # not.  The backend reproduces the sqlite behaviour the loader
        # relies on by wrapping top-level savepoints in BEGIN/COMMIT.
        backend = fake_postgres_backend()
        backend.execute('CREATE TABLE "s" ("a" TEXT PRIMARY KEY)')
        with backend.savepoint("doc"):
            backend.execute('INSERT INTO "s" VALUES (%s)', ("1",))
        assert backend.query('SELECT "a" FROM "s"') == [("1",)]
        with pytest.raises(IntegrityViolation):
            with backend.savepoint("doc"):
                backend.execute('INSERT INTO "s" VALUES (%s)', ("2",))
                backend.execute('INSERT INTO "s" VALUES (%s)', ("1",))
        assert sorted(backend.query('SELECT "a" FROM "s"')) == [("1",)]


class TestLoaderParity:
    """The PG path must be witness-identical to the sqlite path."""

    def _load(self, backend, mode, docs):
        ddl = compile_ddl(
            SCHEMA, mode=mode, provenance_column="_doc",
            ordinal_column=backend.ordinal_column, if_not_exists=True,
        )
        loader = BulkLoader(backend, ddl)
        loader.create_schema()
        report = loader.load_corpus(docs, RULES)
        return ddl, report

    def test_loaded_values_are_identical(self):
        docs = [("d1", _doc(("1", "x"), ("2", "y")))]
        results = {}
        for name, backend in (
            ("sqlite", SQLiteBackend()),
            ("pg", fake_postgres_backend()),
        ):
            self._load(backend, "strict", docs)
            results[name] = sorted(
                backend.query('SELECT "a", "b", "_doc" FROM "t"')
            )
        assert results["sqlite"] == results["pg"]

    def test_verifier_witnesses_are_identical(self):
        docs = [("d1", _doc(("1", "x"), ("1", "y"), ("2", "z")))]
        witnesses = {}
        for name, backend in (
            ("sqlite", SQLiteBackend()),
            ("pg", fake_postgres_backend()),
        ):
            ddl, _ = self._load(backend, "log", docs)
            found = SQLVerifier(backend, ddl).check_keys()
            witnesses[name] = {
                table: [(v.kind, v.detail) for v in violations]
                for table, violations in found.items()
            }
        assert witnesses["sqlite"] == witnesses["pg"]
        assert witnesses["sqlite"]  # the duplicate really was caught

    def test_strict_rejection_is_identical(self):
        docs = [("d1", _doc(("1", "x"), ("1", "y")))]
        messages = {}
        for name, backend in (
            ("sqlite", SQLiteBackend()),
            ("pg", fake_postgres_backend()),
        ):
            from repro.storage import LoadError

            with pytest.raises(LoadError) as info:
                self._load(backend, "strict", docs)
            messages[name] = (str(info.value), info.value.rows)
        assert messages["sqlite"] == messages["pg"]


class TestOrdinalRecovery:
    def test_row_number_bridges_sequence_gaps(self):
        # Rolled-back savepoints leave gaps in a BIGSERIAL sequence; the
        # verifier's witness indexes must stay gapless insertion ordinals.
        backend = SQLiteBackend()
        backend.execute(
            'CREATE TABLE "g" ("a" TEXT, "b" TEXT, "_rid" INTEGER)'
        )
        rows = [("1", "x", 10), ("1", "y", 25), ("2", "z", 31), ("1", "w", 44)]
        backend.executemany('INSERT INTO "g" VALUES (?, ?, ?)', rows)
        schema = RelationSchema("g", ["a", "b"], keys=[frozenset({"a"})])
        verifier = SQLVerifier(backend, schema, ordinal_column="_rid")
        found = verifier.check_keys()
        details = [v.detail for v in found["g"]]
        assert details  # the conflict on a=1 was found
        text = " ".join(details)
        # Witness indexes are 0-based positions, not raw _rid values.
        assert "10" not in text and "44" not in text
