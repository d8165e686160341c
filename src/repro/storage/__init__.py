"""The storage plane: real database execution backends.

Closes the loop the paper opens — XML keys propagate to FDs
(:mod:`repro.core`), documents shred to rows (:mod:`repro.transform`), and
*here* the rows land in a database whose ``PRIMARY KEY`` / ``UNIQUE``
constraints are the propagated FDs, so the relational engine itself
enforces the document's constraints:

* :mod:`repro.storage.ddl` — compile a schema + a minimum cover of
  propagated FDs into constraint-bearing DDL (``strict``) or staged,
  index-only DDL (``log``);
* :mod:`repro.storage.backend` / :mod:`repro.storage.sqlite` /
  :mod:`repro.storage.postgres` — the DB-API-shaped backend protocol, the
  stdlib ``sqlite3`` engine, and the PostgreSQL engine (psycopg/psycopg2
  when installed);
* :mod:`repro.storage.loader` — transactional bulk loading from any row
  iterable (streaming shredder, sharded parallel runs, corpora with
  per-document provenance), batched ``executemany`` or ``COPY``,
  savepoint per document, exact violating-row rejection in strict mode;
* :mod:`repro.storage.verify` — FD/key-violation checking as generated
  ``GROUP BY … HAVING`` SQL, witness-identical to the in-memory checkers;
* :mod:`repro.storage.retry` / :mod:`repro.storage.pool` — the
  robustness layer: bounded backoff on transient errors and a small
  backend pool for the service plane.

The test doubles of this plane — an in-process PostgreSQL driver and a
deterministic fault injector — live with the tests, in ``tests/storage/``.

Backend selection (:func:`open_backend`): an explicit name beats the
``REPRO_BACKEND`` environment variable beats URL-scheme inference
(``postgres://…`` opens PostgreSQL), with sqlite the default.

CLI: ``python -m repro load`` / ``query`` / ``serve``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.storage.backend import Backend

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "backend": ("Backend", "IntegrityViolation", "StorageError", "TransientError"),
        "ddl": ("StorageDDL", "TableDDL", "compile_ddl", "compile_table_ddl"),
        "loader": ("BulkLoader", "LoadError", "LoadReport"),
        "pool": ("ConnectionPool",),
        "postgres": ("PostgresBackend", "connect_postgres"),
        "retry": ("RetryingBackend", "RetryPolicy", "call_with_retries"),
        "sqlite": ("SQLiteBackend",),
        "verify": (
            "SQLVerifier",
            "conflict_groups_sql",
            "conflict_witness_sql",
            "null_determinant_sql",
        ),
    },
)

#: Names :func:`open_backend` accepts (aliases included).
BACKEND_NAMES = ("sqlite", "postgres", "postgresql", "pg")

#: URL schemes that imply the PostgreSQL backend.
_PG_SCHEMES = ("postgres://", "postgresql://")


def resolve_backend_name(
    database: str, backend: Optional[str] = None, env: Optional[str] = None
) -> str:
    """Decide which engine ``database`` names: explicit > env > URL > sqlite.

    ``backend`` is the explicit request (``--backend``); ``env`` overrides
    the ``REPRO_BACKEND`` environment variable (tests).  Returns
    ``"sqlite"`` or ``"postgres"``; an unknown name
    raises :exc:`ValueError` (the CLI turns that into usage exit code 2).
    """
    if env is None:
        env = os.environ.get("REPRO_BACKEND")
    name = backend or env
    if name is not None:
        normalized = name.strip().lower()
        if normalized in ("postgres", "postgresql", "pg"):
            return "postgres"
        if normalized == "sqlite":
            return "sqlite"
        raise ValueError(
            f"unknown storage backend {name!r}: expected one of {BACKEND_NAMES}"
        )
    if database.lower().startswith(_PG_SCHEMES):
        return "postgres"
    return "sqlite"


def open_backend(
    database: str,
    backend: Optional[str] = None,
    fast: bool = False,
    check_same_thread: bool = True,
) -> Backend:
    """Open the backend ``database`` names (see :func:`resolve_backend_name`).

    ``fast``/``check_same_thread`` apply to sqlite only; the PostgreSQL
    backend treats ``database`` as its DSN.
    """
    name = resolve_backend_name(database, backend)
    if name == "postgres":
        from repro.storage.postgres import PostgresBackend

        return PostgresBackend(dsn=database)
    from repro.storage.sqlite import SQLiteBackend

    return SQLiteBackend(database, fast=fast, check_same_thread=check_same_thread)


__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BulkLoader",
    "ConnectionPool",
    "IntegrityViolation",
    "LoadError",
    "LoadReport",
    "PostgresBackend",
    "RetryPolicy",
    "RetryingBackend",
    "SQLVerifier",
    "SQLiteBackend",
    "StorageDDL",
    "StorageError",
    "TableDDL",
    "TransientError",
    "call_with_retries",
    "compile_ddl",
    "compile_table_ddl",
    "conflict_groups_sql",
    "conflict_witness_sql",
    "connect_postgres",
    "null_determinant_sql",
    "open_backend",
    "resolve_backend_name",
]
