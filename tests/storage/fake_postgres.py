"""An in-process PostgreSQL driver double for the storage and service tests.

:class:`FakePostgresConnection` is a psycopg-*shaped* connection over
stdlib sqlite3 — same cursor surface, same exception taxonomy, ``format``
paramstyle, a COPY entry point — so the protocol conformance of
everything above the driver (:class:`~repro.storage.postgres.PostgresBackend`,
the loader, the verifier, the service) is testable without a server.  It
plugs into the backend through the hooks ``PostgresBackend`` reads off any
connection: ``repro_flavor``, ``repro_errors`` and ``repro_ordinal_column``.

The fake advertises ``repro_ordinal_column = None`` (sqlite's real
``rowid`` serves), which is the one place it deliberately differs from a
real server, and answers the ``pg_catalog.pg_tables`` query from sqlite's
catalog.  Use :func:`fake_postgres_backend` for a ready backend, or
patch :func:`connect_fake_postgres` over
``repro.storage.postgres.connect_postgres`` to route ``--backend postgres``
to the fake.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.relational.sql import quote_identifier
from repro.storage.postgres import PostgresBackend, _ErrorNamespace

#: PostgreSQL's table catalog, which the fake answers from sqlite's.
_PG_TABLES = "pg_catalog.pg_tables"
_SQLITE_TABLES = (
    "SELECT name FROM sqlite_master WHERE type = 'table' "
    "AND name NOT LIKE 'sqlite_%' ORDER BY name"
)


class FakeError(Exception):
    """Root of the fake driver's exception taxonomy (mirrors psycopg)."""


class FakeIntegrityError(FakeError):
    pass


class FakeOperationalError(FakeError):
    pass


class FakeInterfaceError(FakeError):
    pass


_FAKE_ERRORS = _ErrorNamespace(
    Error=FakeError,
    IntegrityError=FakeIntegrityError,
    OperationalError=FakeOperationalError,
    InterfaceError=FakeInterfaceError,
)


def _translate_format_sql(sql: str) -> str:
    """``format`` paramstyle → ``qmark``: ``%s`` → ``?``, ``%%`` → ``%``.

    Deliberately quote-*unaware*, because psycopg's own ``%``
    interpolation is: a hostile column named ``a%sb`` must arrive here
    already escaped to ``a%%sb`` (``insert_template`` does that when
    building for a ``%``-style placeholder), and un-escaping it everywhere
    is exactly what the real driver would do.  Only applied to
    *parameterized* statements — psycopg performs no ``%`` processing when
    ``execute()`` is called without arguments, and neither does the fake.
    """
    out: List[str] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "%" and i + 1 < n:
            nxt = sql[i + 1]
            if nxt == "s":
                out.append("?")
                i += 2
                continue
            if nxt == "%":
                out.append("%")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


class _FakeCursor:
    """A psycopg-shaped cursor over a sqlite3 cursor."""

    def __init__(self, connection: "FakePostgresConnection") -> None:
        self._connection = connection
        self._cursor = None

    def _run(self, method: str, sql: str, *args):
        raw = self._connection._sqlite
        try:
            self._cursor = getattr(raw, method)(sql, *args)
        except Exception as error:
            raise self._connection._translate(error) from error
        return self

    def execute(self, sql: str, parameters: Sequence = ()):  # noqa: D102
        if _PG_TABLES in sql:
            return self._run("execute", _SQLITE_TABLES)
        if parameters:
            return self._run("execute", _translate_format_sql(sql), tuple(parameters))
        return self._run("execute", sql)

    def executemany(self, sql: str, seq_of_parameters: Iterable[Sequence]):
        return self._run(
            "executemany",
            _translate_format_sql(sql),
            [tuple(p) for p in seq_of_parameters],
        )

    def fetchall(self) -> List[Tuple]:
        return self._cursor.fetchall() if self._cursor is not None else []

    def fetchone(self) -> Optional[Tuple]:
        return self._cursor.fetchone() if self._cursor is not None else None

    @property
    def description(self):
        return self._cursor.description if self._cursor is not None else None

    @property
    def rowcount(self) -> int:
        return self._cursor.rowcount if self._cursor is not None else -1

    def copy_expert(self, sql: str, payload) -> None:
        """The psycopg2 COPY entry point, emulated over executemany.

        Parses the column list out of the generated ``COPY`` statement and
        decodes the tab-separated text payload with the inverse of
        :func:`repro.relational.sql.copy_literal`.
        """
        table, columns = _parse_copy_statement(sql)
        placeholders = ", ".join("?" for _ in columns)
        column_list = ", ".join(quote_identifier(c) for c in columns)
        insert = (
            f"INSERT INTO {quote_identifier(table)} ({column_list}) "
            f"VALUES ({placeholders})"
        )
        rows = [
            tuple(_decode_copy_field(field) for field in line.split("\t"))
            for line in payload.read().splitlines()
            if line
        ]
        try:
            self._connection._sqlite.executemany(insert, rows)
        except Exception as error:
            raise self._connection._translate(error) from error

    def close(self) -> None:
        if self._cursor is not None:
            self._cursor.close()


def _parse_copy_statement(sql: str) -> Tuple[str, List[str]]:
    """Recover ``(table, columns)`` from a generated ``COPY`` statement.

    Only the statements :meth:`PostgresBackend.copy_rows` builds are
    accepted — quoted identifiers, one ``(…)`` column list, ``FROM
    STDIN`` — which is all the fake ever needs to understand.
    """
    text = sql.strip()
    if not text.upper().startswith("COPY "):
        raise FakeError(f"fake COPY cannot parse: {sql!r}")
    rest = text[5:]
    table, rest = _read_quoted_identifier(rest)
    rest = rest.lstrip()
    if not rest.startswith("("):
        raise FakeError(f"fake COPY needs an explicit column list: {sql!r}")
    rest = rest[1:]
    columns: List[str] = []
    while True:
        rest = rest.lstrip()
        column, rest = _read_quoted_identifier(rest)
        columns.append(column)
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:]
            continue
        if rest.startswith(")"):
            break
        raise FakeError(f"fake COPY cannot parse column list: {sql!r}")
    return table, columns


def _read_quoted_identifier(text: str) -> Tuple[str, str]:
    text = text.lstrip()
    if not text.startswith('"'):
        raise FakeError(f"expected a quoted identifier at: {text!r}")
    out: List[str] = []
    i = 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            if i + 1 < len(text) and text[i + 1] == '"':
                out.append('"')
                i += 2
                continue
            return "".join(out), text[i + 1 :]
        out.append(ch)
        i += 1
    raise FakeError(f"unterminated identifier in: {text!r}")


def _decode_copy_field(field: str) -> Optional[str]:
    if field == "\\N":
        return None
    return (
        field.replace("\\r", "\r")
        .replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace("\\\\", "\\")
    )


class FakePostgresConnection:
    """A psycopg-shaped connection over stdlib sqlite3.

    Everything above the driver — placeholder style, savepoint discipline,
    error translation, the COPY loader path — runs against this double
    byte-for-byte as it would against a server, which keeps the tier-1
    suite hermetic.  Deliberate divergences from a real server, documented
    rather than papered over:

    * ``repro_ordinal_column`` is ``None`` — sqlite's genuine ``rowid``
      provides insertion order, so the DDL needs no ``BIGSERIAL`` column;
    * sqlite's SQL dialect accepts the generated DDL/DML verbatim (all
      ``TEXT`` columns; the ``BIGSERIAL`` type never appears for the
      reason above).
    """

    repro_flavor = "fake"
    repro_errors = _FAKE_ERRORS
    repro_ordinal_column: Optional[str] = None

    def __init__(self, database: str = ":memory:") -> None:
        import sqlite3

        # Cross-thread use mirrors a server connection: the service plane
        # acquires pooled connections from worker threads.
        self._sqlite = sqlite3.connect(
            database, isolation_level=None, check_same_thread=False
        )
        self._sqlite3 = sqlite3
        self.autocommit = True
        self.closed = False

    def _translate(self, error: Exception) -> FakeError:
        if isinstance(error, self._sqlite3.IntegrityError):
            return FakeIntegrityError(str(error))
        if isinstance(error, self._sqlite3.OperationalError) and "locked" in str(
            error
        ):
            # Lock contention is the one genuinely transient failure the
            # in-process engine produces; psycopg reserves
            # OperationalError for exactly that class of trouble.
            return FakeOperationalError(str(error))
        # sqlite files everything else (missing table, syntax) under
        # OperationalError; a real server raises ProgrammingError there —
        # a plain Error, a fact about the statement, never retried.
        return FakeError(str(error))

    def cursor(self) -> _FakeCursor:
        if self.closed:
            raise FakeInterfaceError("connection is closed")
        return _FakeCursor(self)

    def close(self) -> None:
        self.closed = True
        self._sqlite.close()


def fake_postgres_backend(database: str = ":memory:") -> PostgresBackend:
    """A :class:`PostgresBackend` over a :class:`FakePostgresConnection`."""
    return PostgresBackend(connection=FakePostgresConnection(database))


def connect_fake_postgres(dsn: str):
    """A stand-in for ``connect_postgres``: an in-memory fake, whatever ``dsn`` says."""
    return FakePostgresConnection(), FakePostgresConnection.repro_flavor
