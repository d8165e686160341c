"""The PostgreSQL storage backend (psycopg / psycopg2).

PostgreSQL is the first *out-of-process* engine behind the storage plane's
DB-API-shaped protocol (:mod:`repro.storage.backend`).  The protocol was
designed as the common denominator of DB-API drivers, so this adapter is
thin; the real work is in the places the two engines genuinely differ:

* **paramstyle** — psycopg speaks ``format`` (``%s``), sqlite3 ``qmark``
  (``?``).  The backend advertises ``placeholder = "%s"`` and the loader
  builds its templates against it; identifier text is ``%``-escaped at
  template build time (:func:`repro.relational.sql.insert_template`).
* **bulk loading** — :meth:`PostgresBackend.copy_rows` streams rows over
  the native ``COPY … FROM STDIN`` channel (text format, the
  :func:`~repro.relational.sql.copy_literal` escaping), the fastest load
  path PostgreSQL has.  Constraint failures surface as
  :exc:`~repro.storage.backend.IntegrityViolation` exactly like
  ``executemany``, so the loader's savepoint-guarded pinpoint replay
  works unchanged.
* **error translation** — driver ``IntegrityError`` →
  :exc:`IntegrityViolation`; ``OperationalError`` (connection loss,
  deadlock, statement timeout) → :exc:`~repro.storage.backend.TransientError`,
  the class :mod:`repro.storage.retry` retries.
* **insertion order** — PostgreSQL has no addressable ``rowid``, so DDL
  compiled for this backend declares a ``BIGSERIAL`` ordinal column
  (:attr:`PostgresBackend.ordinal_column`, see ``compile_ddl``'s
  ``ordinal_column=``) and the verifier recovers witness indexes with
  ``ROW_NUMBER() OVER (ORDER BY ordinal)`` — gapless by construction, so
  sequence gaps from rolled-back savepoints cannot skew the indexes.

Transactions are explicit: the connection runs in autocommit mode and the
backend issues ``BEGIN`` / ``COMMIT`` / ``SAVEPOINT`` itself, mirroring
the sqlite backend's ``isolation_level=None`` discipline.  Note that a
failed statement leaves a PostgreSQL transaction in an aborted state
until a rollback — which is precisely why the loader wraps every batch in
a savepoint: ``ROLLBACK TO SAVEPOINT`` is legal in the aborted state and
restores the transaction, so the row-by-row pinpoint replay proceeds.

No driver is imported at module import time.  :func:`connect_postgres`
probes ``psycopg`` (v3) then ``psycopg2`` lazily and raises a clean
:exc:`StorageError` when neither is installed.  A connection passed in
directly may carry ``repro_flavor`` / ``repro_errors`` /
``repro_ordinal_column`` attributes, which override the flavor probe, the
driver's exception taxonomy and the ordinal column; that is how the test
suite runs this backend over an in-process double
(``tests/storage/fake_postgres.py``).
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.relational.instance import is_null
from repro.relational.sql import copy_literal, quote_identifier
from repro.storage.backend import (
    Backend,
    IntegrityViolation,
    StorageError,
    TransientError,
)

#: The ordinal column real-server DDL declares (``BIGSERIAL``); see
#: ``compile_ddl(ordinal_column=...)`` and ``verify.row_ordinal_expression``.
ORDINAL_COLUMN = "_rid"


def _encode_parameters(parameters: Sequence) -> Tuple[Optional[str], ...]:
    """Canonical driver-ready parameters: NULL → ``None``, rest → text.

    PostgreSQL drivers type-check parameters against column types, so the
    repository's ``NULL`` sentinel and any typed values must be resolved
    *before* the driver sees them (sqlite3 solves the same problem with a
    registered adapter).  The text rendering is ``str()`` — the same
    canonical encoding as :func:`repro.relational.sql.encode_value` — so
    both backends store byte-identical values.
    """
    return tuple(
        None
        if value is None or is_null(value)
        else (value if type(value) is str else str(value))
        for value in parameters
    )


def connect_postgres(dsn: str):
    """Open a psycopg (v3) or psycopg2 connection in autocommit mode.

    Returns ``(connection, flavor)`` where ``flavor`` is ``"psycopg3"`` or
    ``"psycopg2"``.  Raises :exc:`StorageError` when no driver is
    installed — the container does not bake one in, so this path is only
    reachable when the environment provides it (``REPRO_PG_DSN`` CI leg,
    a production deployment).
    """
    try:
        import psycopg  # type: ignore[import-not-found]
    except ImportError:
        pass
    else:
        connection = psycopg.connect(dsn, autocommit=True)
        return connection, "psycopg3"
    try:
        import psycopg2  # type: ignore[import-not-found]
    except ImportError:
        pass
    else:
        connection = psycopg2.connect(dsn)
        connection.autocommit = True
        return connection, "psycopg2"
    raise StorageError(
        "no PostgreSQL driver is installed (tried psycopg and psycopg2); "
        "install one, or select the sqlite backend"
    )


class PostgresBackend(Backend):
    """A :class:`~repro.storage.backend.Backend` over one psycopg connection.

    Construct with a ``dsn`` (a real server; driver probed lazily) or an
    explicit ``connection`` — any psycopg-shaped object.  Such a connection
    may set ``repro_flavor``, ``repro_errors`` (the module-shaped exception
    taxonomy) and ``repro_ordinal_column``; the tests inject their
    PostgreSQL double that way.
    """

    placeholder = "%s"
    supports_copy = True

    def __init__(self, dsn: Optional[str] = None, connection=None) -> None:
        if (dsn is None) == (connection is None):
            raise ValueError("provide exactly one of dsn= or connection=")
        self.dsn = dsn
        if connection is None:
            connection, flavor = connect_postgres(dsn)
        else:
            flavor = getattr(connection, "repro_flavor", None) or (
                "psycopg2" if hasattr(connection.cursor(), "copy_expert") else "psycopg3"
            )
        self._connection = connection
        self.flavor = flavor
        #: Exception taxonomy of the underlying driver (module-shaped:
        #: ``Error`` / ``IntegrityError`` / ``OperationalError``).
        self._errors = getattr(connection, "repro_errors", None) or _driver_errors(
            type(connection).__module__.split(".")[0]
        )
        self.ordinal_column = getattr(connection, "repro_ordinal_column", ORDINAL_COLUMN)
        self._in_transaction = False

    # ------------------------------------------------------------------
    # Transactions.  sqlite lets a SAVEPOINT outside any transaction start
    # one implicitly (and RELEASE of the outermost savepoint commit it);
    # PostgreSQL rejects SAVEPOINT outside a transaction block.  The
    # loader's savepoint-per-document structure relies on the sqlite
    # semantics, so this backend tracks transaction state and reproduces
    # them: a top-level savepoint opens a real transaction and closes it
    # on exit, nested savepoints pass through unchanged.
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self.execute("BEGIN")
        self._in_transaction = True

    def commit(self) -> None:
        self.execute("COMMIT")
        self._in_transaction = False

    def rollback(self) -> None:
        self.execute("ROLLBACK")
        self._in_transaction = False

    @contextmanager
    def savepoint(self, name: str = "repro_sp"):
        if self._in_transaction:
            with super().savepoint(name):
                yield self
            return
        self.begin()
        try:
            with super().savepoint(name):
                yield self
        except BaseException:
            # The base handler already rolled back to (and released) the
            # savepoint; end the implicitly opened transaction too.
            self.rollback()
            raise
        self.commit()

    # ------------------------------------------------------------------
    def _translate(self, error: BaseException) -> StorageError:
        if isinstance(error, self._errors.IntegrityError):
            return IntegrityViolation(str(error))
        if isinstance(error, (self._errors.OperationalError, self._errors.InterfaceError)):
            return TransientError(str(error))
        return StorageError(str(error))

    def execute(self, sql: str, parameters: Sequence = ()):
        cursor = self._connection.cursor()
        try:
            if parameters:
                cursor.execute(sql, _encode_parameters(parameters))
            else:
                cursor.execute(sql)
            return cursor
        except self._errors.Error as error:
            raise self._translate(error) from error

    def executemany(self, sql: str, seq_of_parameters: Iterable[Sequence]) -> None:
        cursor = self._connection.cursor()
        try:
            cursor.executemany(
                sql, [_encode_parameters(parameters) for parameters in seq_of_parameters]
            )
        except self._errors.Error as error:
            raise self._translate(error) from error

    def executescript(self, script: str) -> None:
        # Both psycopg generations accept several ``;``-separated
        # statements in one unparameterized execute (simple-query mode).
        cursor = self._connection.cursor()
        try:
            cursor.execute(script)
        except self._errors.Error as error:
            raise self._translate(error) from error

    def close(self) -> None:
        self._connection.close()

    # ------------------------------------------------------------------
    # COPY
    # ------------------------------------------------------------------
    def copy_rows(
        self, table: str, columns: Sequence[str], rows: Iterable[Sequence]
    ) -> int:
        column_list = ", ".join(quote_identifier(column) for column in columns)
        statement = (
            f"COPY {quote_identifier(table)} ({column_list}) FROM STDIN"
        )
        cursor = self._connection.cursor()
        try:
            if hasattr(cursor, "copy_expert"):  # psycopg2
                count = 0
                lines: List[str] = []
                for row in rows:
                    lines.append("\t".join(copy_literal(value) for value in row))
                    count += 1
                if not count:
                    return 0
                payload = io.StringIO("\n".join(lines) + "\n")
                cursor.copy_expert(statement, payload)
                return count
            # psycopg3: the streaming copy context manager.
            count = 0
            with cursor.copy(statement) as copy:
                for row in rows:
                    copy.write_row(_encode_parameters(row))
                    count += 1
            return count
        except self._errors.Error as error:
            raise self._translate(error) from error

    # ------------------------------------------------------------------
    # Introspection (CLI query / REPL surface)
    # ------------------------------------------------------------------
    def table_names(self) -> List[str]:
        rows = self.query(
            "SELECT tablename FROM pg_catalog.pg_tables "
            "WHERE schemaname = 'public' ORDER BY tablename"
        )
        return [name for (name,) in rows]

    def column_names(self, table: str) -> List[str]:
        cursor = self.execute(f"SELECT * FROM {quote_identifier(table)} LIMIT 0")
        return [description[0] for description in cursor.description]

    def row_count(self, table: str) -> int:
        ((count,),) = self.query(f"SELECT COUNT(*) FROM {quote_identifier(table)}")
        return count

    def __enter__(self) -> "PostgresBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        target = self.dsn if self.dsn is not None else f"<{self.flavor} connection>"
        return f"PostgresBackend({target!r})"


# ----------------------------------------------------------------------
# Driver error taxonomies
# ----------------------------------------------------------------------
class _ErrorNamespace:
    """The slice of a driver module's exception hierarchy the backend uses."""

    def __init__(self, Error, IntegrityError, OperationalError, InterfaceError):
        self.Error = Error
        self.IntegrityError = IntegrityError
        self.OperationalError = OperationalError
        self.InterfaceError = InterfaceError


def _driver_errors(module_name: str) -> _ErrorNamespace:
    import importlib

    module = importlib.import_module(module_name)
    return _ErrorNamespace(
        Error=module.Error,
        IntegrityError=module.IntegrityError,
        OperationalError=module.OperationalError,
        InterfaceError=module.InterfaceError,
    )
