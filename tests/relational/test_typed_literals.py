"""Typed-literal audit: non-string values must store value-identically.

The storage plane is all ``TEXT`` columns, and without a canonical
rendering each engine applies its own affinity rules to a typed
parameter: sqlite turns ``1e20`` into ``'1.0e+20'`` and ``True`` into
``'1'``; a real PostgreSQL rejects integer parameters against ``TEXT``.
:func:`repro.relational.sql.encode_value` pins ``str(value)`` as *the*
text on every emission path — literals, parameters, COPY — so the same
value round-trips to the same text on every backend.
"""

import pytest

from repro.relational.instance import NULL
from repro.relational.sql import (
    copy_literal,
    encode_row,
    encode_value,
    quote_literal,
)
from repro.relational.schema import RelationSchema
from repro.storage import SQLiteBackend

from tests.storage.fake_postgres import fake_postgres_backend

# Values with a history of engine-specific renderings, with the one
# canonical text each must produce everywhere.
CASES = [
    (1, "1"),
    (-7, "-7"),
    (10**30, str(10**30)),
    (2.5, "2.5"),
    (1e20, "1e+20"),
    (-0.0, "-0.0"),
    (float("inf"), "inf"),
    (True, "True"),
    (False, "False"),
    ("plain", "plain"),
]


class TestEncodeValue:
    @pytest.mark.parametrize("value, expected", CASES)
    def test_canonical_text(self, value, expected):
        assert encode_value(value) == expected

    def test_null_maps_to_none(self):
        assert encode_value(NULL) is None
        assert encode_value(None) is None

    @pytest.mark.parametrize("value, expected", CASES)
    def test_quote_literal_quotes_the_canonical_text(self, value, expected):
        assert quote_literal(value) == "'" + expected.replace("'", "''") + "'"

    @pytest.mark.parametrize("value, expected", CASES)
    def test_copy_literal_uses_the_canonical_text(self, value, expected):
        assert copy_literal(value) == expected

    def test_encode_row_renders_typed_parameters(self):
        schema = RelationSchema("t", ["a", "b", "c"])
        row = {"a": 1e20, "b": True, "c": NULL}
        assert encode_row(schema, row) == ("1e+20", "True", None)


@pytest.mark.parametrize("make_backend", [SQLiteBackend, fake_postgres_backend])
class TestRoundTrip:
    """Typed values stored through each backend come back value-identical."""

    def test_parameters_round_trip(self, make_backend):
        backend = make_backend()
        backend.execute('CREATE TABLE "t" ("v" TEXT)')
        p = backend.placeholder
        for value, expected in CASES:
            backend.execute(f'INSERT INTO "t" VALUES ({p})', (encode_value(value),))
        stored = [row[0] for row in backend.query('SELECT "v" FROM "t"')]
        assert stored == [expected for _, expected in CASES]
        backend.close()

    def test_raw_typed_parameters_cannot_drift(self, make_backend):
        # The control experiment: hand each backend a *raw* float.  Bare
        # sqlite3 would store its own affinity rendering ('1.0e+20'), so
        # SQLiteBackend relies on the loader encoding first — whereas the
        # PG protocol path encodes parameters itself (a real server would
        # reject a typed parameter against TEXT outright).
        backend = make_backend()
        backend.execute('CREATE TABLE "t" ("v" TEXT)')
        p = backend.placeholder
        backend.execute(f'INSERT INTO "t" VALUES ({p})', (1e20,))
        (raw,) = backend.query('SELECT "v" FROM "t"')[0]
        if isinstance(backend, SQLiteBackend):
            assert raw == "1.0e+20"  # engine affinity, not our canon
        else:
            assert raw == encode_value(1e20)
        backend.close()


def test_both_backends_store_identical_texts():
    stored = {}
    for name, backend in (("sqlite", SQLiteBackend()), ("pg", fake_postgres_backend())):
        backend.execute('CREATE TABLE "t" ("v" TEXT)')
        p = backend.placeholder
        backend.executemany(
            f'INSERT INTO "t" VALUES ({p})',
            [(encode_value(value),) for value, _ in CASES],
        )
        stored[name] = backend.query('SELECT "v" FROM "t"')
        backend.close()
    assert stored["sqlite"] == stored["pg"]
