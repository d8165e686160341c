"""Backend selection: which engine a database string and a name open.

:func:`resolve_backend_name` decides explicit name > ``REPRO_BACKEND`` >
URL scheme > sqlite, and :func:`open_backend` opens what it decides.
Only real engines have names: the in-process PostgreSQL driver double of
``tests/storage/fake_postgres.py`` is reached by patching
``connect_postgres``, never by a backend name.
"""

import pytest

from repro.storage import BACKEND_NAMES, open_backend, resolve_backend_name
from repro.storage.postgres import PostgresBackend
from repro.storage.sqlite import SQLiteBackend

from tests.storage.fake_postgres import connect_fake_postgres


class TestNames:
    @pytest.mark.parametrize(
        "name, engine",
        [
            ("sqlite", "sqlite"),
            ("SQLite", "sqlite"),
            ("postgres", "postgres"),
            ("postgresql", "postgres"),
            ("pg", "postgres"),
            (" PG ", "postgres"),
        ],
    )
    def test_aliases_are_case_and_space_insensitive(self, name, engine):
        assert resolve_backend_name("x.db", name, env="") == engine

    @pytest.mark.parametrize("name", ["oracle", "fake-postgres", "postgres-fake"])
    def test_unknown_names_are_refused_with_the_accepted_ones(self, name):
        with pytest.raises(ValueError, match="unknown storage backend") as excinfo:
            resolve_backend_name("x.db", name, env="")
        assert str(BACKEND_NAMES) in str(excinfo.value)
        assert "fake" not in str(BACKEND_NAMES)


class TestPrecedence:
    def test_explicit_name_beats_the_environment(self):
        assert resolve_backend_name("x.db", "sqlite", env="pg") == "sqlite"

    def test_environment_beats_the_url_scheme(self):
        assert resolve_backend_name("postgres://h/db", env="sqlite") == "sqlite"

    def test_environment_is_read_when_not_given(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "postgresql")
        assert resolve_backend_name("x.db") == "postgres"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend_name("x.db") == "sqlite"

    @pytest.mark.parametrize(
        "database, engine",
        [
            ("postgres://localhost/repro", "postgres"),
            ("postgresql://localhost/repro", "postgres"),
            ("PostgreSQL://localhost/repro", "postgres"),
            ("x.db", "sqlite"),
            (":memory:", "sqlite"),
        ],
    )
    def test_url_scheme_infers_the_engine(self, database, engine, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(database) == engine


class TestOpenBackend:
    def test_sqlite_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backend = open_backend(":memory:")
        try:
            assert isinstance(backend, SQLiteBackend)
        finally:
            backend.close()

    def test_postgres_dsn_opens_through_connect_postgres(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        dialed = []

        def connect(dsn):
            dialed.append(dsn)
            return connect_fake_postgres(dsn)

        monkeypatch.setattr("repro.storage.postgres.connect_postgres", connect)
        backend = open_backend("postgresql://localhost/repro")
        try:
            assert isinstance(backend, PostgresBackend)
            assert dialed == ["postgresql://localhost/repro"]
        finally:
            backend.close()

    def test_unknown_name_opens_nothing(self, monkeypatch):
        def connect(dsn):
            raise AssertionError("an unknown backend name dialed PostgreSQL")

        monkeypatch.setattr("repro.storage.postgres.connect_postgres", connect)
        with pytest.raises(ValueError, match="unknown storage backend"):
            open_backend(":memory:", "fake-postgres")
