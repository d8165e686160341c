"""The backend conformance suite: one contract, every engine.

Each test runs against SQLite, the PostgreSQL backend over the
in-process driver double (``tests/storage/fake_postgres.py``), and — when ``REPRO_PG_DSN`` points at a live server — real PostgreSQL.
The contract is what :class:`~repro.storage.loader.BulkLoader` and
:class:`~repro.storage.verify.SQLVerifier` rely on: placeholder-shaped
parameter binding, savepoint atomicity, error translation into the
storage taxonomy, NULL round-tripping, and the optional COPY fast path.
"""

import os

import pytest

from repro.storage import (
    IntegrityViolation,
    PostgresBackend,
    SQLiteBackend,
    StorageError,
)

from tests.storage.fake_postgres import fake_postgres_backend

PG_DSN = os.environ.get("REPRO_PG_DSN")

BACKENDS = ["sqlite", "fake-postgres"] + (["postgres"] if PG_DSN else [])

TABLE = "contract_t"


def _open(kind):
    if kind == "sqlite":
        return SQLiteBackend()
    if kind == "fake-postgres":
        return fake_postgres_backend()
    return PostgresBackend(dsn=PG_DSN)


@pytest.fixture(params=BACKENDS)
def backend(request):
    b = _open(request.param)
    with b.transaction():
        b.execute(f'DROP TABLE IF EXISTS "{TABLE}"')
        b.execute(f'CREATE TABLE "{TABLE}" ("a" TEXT, "b" TEXT, PRIMARY KEY ("a"))')
    try:
        yield b
    finally:
        try:
            with b.transaction():
                b.execute(f'DROP TABLE IF EXISTS "{TABLE}"')
        except StorageError:
            pass
        b.close()


def _insert(backend):
    p = backend.placeholder
    return f'INSERT INTO "{TABLE}" ("a", "b") VALUES ({p}, {p})'


class TestExecution:
    def test_execute_and_query(self, backend):
        backend.execute(_insert(backend), ("1", "x"))
        assert backend.query(f'SELECT "a", "b" FROM "{TABLE}"') == [("1", "x")]

    def test_executemany_and_row_count(self, backend):
        backend.executemany(_insert(backend), [("1", "x"), ("2", "y")])
        assert backend.row_count(TABLE) == 2

    def test_null_round_trips(self, backend):
        backend.execute(_insert(backend), ("1", None))
        assert backend.query(f'SELECT "b" FROM "{TABLE}"') == [(None,)]

    def test_introspection(self, backend):
        assert TABLE in backend.table_names()
        columns = backend.column_names(TABLE)
        assert columns[:2] == ["a", "b"] or set(["a", "b"]) <= set(columns)


class TestErrorTaxonomy:
    def test_duplicate_key_is_integrity_violation(self, backend):
        backend.execute(_insert(backend), ("1", "x"))
        with pytest.raises(IntegrityViolation):
            backend.execute(_insert(backend), ("1", "y"))

    def test_missing_table_is_storage_error_not_integrity(self, backend):
        with pytest.raises(StorageError) as info:
            with backend.transaction():
                backend.query('SELECT * FROM "contract_absent"')
        assert not isinstance(info.value, IntegrityViolation)


class TestTransactions:
    def test_transaction_commit(self, backend):
        with backend.transaction():
            backend.execute(_insert(backend), ("1", "x"))
        assert backend.row_count(TABLE) == 1

    def test_transaction_rollback_on_error(self, backend):
        with pytest.raises(RuntimeError):
            with backend.transaction():
                backend.execute(_insert(backend), ("1", "x"))
                raise RuntimeError("boom")
        assert backend.row_count(TABLE) == 0

    def test_savepoint_rolls_back_atomically(self, backend):
        backend.begin()
        backend.execute(_insert(backend), ("1", "x"))
        with pytest.raises(IntegrityViolation):
            with backend.savepoint("sp"):
                backend.execute(_insert(backend), ("2", "y"))
                backend.execute(_insert(backend), ("1", "dup"))
        # Only the savepoint's work is gone; the outer row survives.
        backend.execute(_insert(backend), ("3", "z"))
        backend.commit()
        values = sorted(row[0] for row in backend.query(f'SELECT "a" FROM "{TABLE}"'))
        assert values == ["1", "3"]

    def test_savepoints_nest(self, backend):
        backend.begin()
        with backend.savepoint("outer"):
            backend.execute(_insert(backend), ("1", "x"))
            with pytest.raises(IntegrityViolation):
                with backend.savepoint("inner"):
                    backend.execute(_insert(backend), ("1", "y"))
            backend.execute(_insert(backend), ("2", "z"))
        backend.commit()
        assert backend.row_count(TABLE) == 2


class TestCopy:
    def test_copy_rows_matches_supports_copy(self, backend):
        rows = [("1", "x"), ("2", None)]
        if backend.supports_copy:
            with backend.transaction():
                backend.copy_rows(TABLE, ["a", "b"], rows)
            assert sorted(backend.query(f'SELECT "a", "b" FROM "{TABLE}"')) == [
                ("1", "x"),
                ("2", None),
            ]
        else:
            with pytest.raises(StorageError):
                backend.copy_rows(TABLE, ["a", "b"], rows)

    def test_copy_and_executemany_store_identical_values(self, backend):
        if not backend.supports_copy:
            pytest.skip("engine has no COPY path")
        with backend.transaction():
            backend.copy_rows(TABLE, ["a", "b"], [("1", "tab\tand\nnewline")])
            backend.execute(_insert(backend), ("2", "tab\tand\nnewline"))
        values = backend.query(f'SELECT "b" FROM "{TABLE}"')
        assert values[0] == values[1]
