"""The shared row encoder against its value-by-value reference.

:func:`repro.relational.sql.encode_row` is the one row encoder of the
storage plane: the loader's batches, the delta store's row identities and
``COPY`` payloads all come from it.  Its fast path projects a row's dict
in one step and re-encodes only rows holding a NULL or a typed value;
:func:`~repro.relational.sql.copy_statement` escapes only rows holding a
NULL or a character the text format escapes.  Both must equal the
straightforward forms in ``tests/relational/sql_reference.py`` on every
row shape: :class:`Row` objects, dicts in schema order and out of it,
missing attributes, ``NULL`` and ``None``, typed values and extra values.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.relational.instance import NULL, Row
from repro.relational.schema import RelationSchema
from repro.relational.sql import copy_statement, encode_row

from tests.relational.sql_reference import reference_copy_statement, reference_encode_row

pytestmark = pytest.mark.slow

encoding_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ATTRIBUTES = ["a", "b", "c", "d"]

#: Text with the characters ``COPY`` escapes, quotes and non-ASCII.
texts = st.text(alphabet="xy\\\t\n\r'\"é", max_size=6)
values = st.one_of(
    texts,
    st.sampled_from([NULL, None, 1e20, True, False, 0, -7, 10**30, 2.5]),
    st.integers(),
    st.floats(allow_nan=False),
)
#: An attribute → value map; absent keys are missing attributes.
row_values = st.dictionaries(st.sampled_from(ATTRIBUTES), values)


def _shape(shape, data, attributes):
    """The same row content as a :class:`Row`, a dict in schema order or a
    dict in reverse order (with an attribute the schema does not know)."""
    if shape == "row":
        return Row(data)
    ordered = {name: data[name] for name in attributes if name in data}
    if shape == "dict":
        return ordered
    reversed_order = dict(reversed(list(ordered.items())))
    reversed_order["unknown"] = "ignored"
    return reversed_order


class TestEncodeRow:
    @encoding_settings
    @given(
        data=row_values,
        attributes=st.lists(st.sampled_from(ATTRIBUTES), unique=True, min_size=1, max_size=4),
        shape=st.sampled_from(["row", "dict", "reversed"]),
        extra=st.lists(st.one_of(texts, st.sampled_from([None, NULL, 3, 1e20])), max_size=2),
    )
    def test_equals_the_reference(self, data, attributes, shape, extra):
        schema = RelationSchema("t", attributes)
        row = _shape(shape, data, attributes)
        encoded = encode_row(schema, row, extra_values=extra)
        assert encoded == reference_encode_row(schema, row, extra_values=extra)
        assert all(value is None or type(value) is str for value in encoded)

    @pytest.mark.parametrize("shape", ["row", "dict", "reversed"])
    def test_named_cases(self, shape):
        schema = RelationSchema("t", ["a", "b", "c", "d"])
        data = {"a": 1e20, "b": True, "c": NULL, "d": 42}
        row = _shape(shape, data, schema.attributes)
        expected = ("1e+20", "True", None, "42", "doc", None)
        assert encode_row(schema, row, extra_values=("doc", None)) == expected
        assert reference_encode_row(schema, row, extra_values=("doc", None)) == expected

    def test_missing_and_none_are_null(self):
        schema = RelationSchema("t", ["a", "b", "c"])
        for row in ({"a": None}, Row({"a": None}), {"c": NULL}):
            assert encode_row(schema, row) == (None, None, None)


class TestCopyStatement:
    @encoding_settings
    @given(
        rows=st.lists(row_values, max_size=5),
        shape=st.sampled_from(["row", "dict", "reversed"]),
    )
    def test_equals_the_reference(self, rows, shape):
        schema = RelationSchema("t", ATTRIBUTES)
        shaped = [_shape(shape, data, ATTRIBUTES) for data in rows]
        assert copy_statement(schema, shaped) == reference_copy_statement(schema, shaped)

    def test_escapes_only_rows_that_need_it(self):
        schema = RelationSchema("t", ["a", "b"])
        rows = [{"a": "x", "b": "y"}, {"a": "t\tab", "b": NULL}, {"a": "back\\slash", "b": "z"}]
        assert copy_statement(schema, rows) == (
            'COPY "t" ("a", "b") FROM STDIN;\n'
            "x\ty\n"
            "t\\tab\t\\N\n"
            "back\\\\slash\tz\n"
            "\\."
        )
