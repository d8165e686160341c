"""Value-by-value references for the row encoders of :mod:`repro.relational.sql`.

:func:`~repro.relational.sql.encode_row` and
:func:`~repro.relational.sql.copy_statement` encode a whole row at once
and fall back to per-value rendering only for rows that need it.  The
functions here are the straightforward forms they replaced — every value
fetched, encoded and escaped on its own — and the property tests in
``tests/property/test_sql_encoding.py`` hold the fast forms to them.
"""

from repro.relational.instance import Row
from repro.relational.sql import copy_literal, encode_value, quote_identifier


def _getter(row):
    return row.get_value if isinstance(row, Row) else (lambda a, _row=row: _row.get(a))


def reference_encode_row(schema, row, extra_values=()):
    """One parameter tuple, one generator step per value."""
    get = _getter(row)
    encoded = tuple(
        encode_value(value)
        for value in (get(attribute) for attribute in schema.attributes)
    )
    return encoded + tuple(encode_value(value) for value in extra_values)


def reference_copy_statement(schema, rows):
    """A ``COPY`` block with every value rendered by :func:`copy_literal`."""
    table = quote_identifier(schema.name)
    columns = ", ".join(quote_identifier(a) for a in schema.attributes)
    lines = []
    for row in rows:
        get = _getter(row)
        lines.append("\t".join(copy_literal(get(a)) for a in schema.attributes))
    if not lines:
        return None
    header = f"COPY {table} ({columns}) FROM STDIN;"
    return "\n".join([header, *lines, "\\."])
