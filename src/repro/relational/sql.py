"""SQL emission for refined designs.

Once :func:`repro.design.design_from_scratch` (or a hand-written schema plus
:func:`repro.core.check_schema_consistency`) has produced a relational design
whose keys are *guaranteed* by the XML keys, the natural next step for a
consumer is to create the tables and load the shredded data.  This module
emits portable SQL:

* :func:`create_table` / :func:`create_schema` — ``CREATE TABLE`` statements
  with ``PRIMARY KEY`` and ``UNIQUE`` constraints taken from the declared
  (propagated) keys;
* :func:`insert_statements` — ``INSERT`` statements for a relation instance
  (``NULL`` for the paper's null marker, values escaped);
* :func:`iter_insert_statements` — bulk loading for the streaming data
  plane: multi-row ``INSERT`` batches built lazily from *any* iterable of
  rows (e.g. :func:`repro.transform.stream.iter_rule_rows`), so a shredded
  document can be emitted without ever materializing its instance;
* :func:`copy_statement` — PostgreSQL ``COPY ... FROM STDIN`` emission
  (tab-separated payload, ``\\N`` for nulls), the fastest loading path for
  data-scale imports;
* :func:`load_script` — the full script for a shredded database, with
  batched inserts (``batch_size``) or ``COPY`` blocks (``copy=True``).

For loading through an actual driver (:mod:`repro.storage`) the module also
provides the *parameterized* counterparts — :func:`insert_template` builds
an ``INSERT ... VALUES (?, ...)`` statement with placeholders instead of
interpolated literals, and :func:`encode_row` / :func:`iter_parameter_batches`
turn row mappings into the positional parameter tuples ``executemany``
expects (``NULL`` → ``None``).  Values never enter the SQL text on that
path, so hostile content cannot break out of a literal; identifiers are
always quoted via :func:`quote_identifier`.

Only textual SQL is produced (no driver dependency); the dialect is the
common core of SQLite / PostgreSQL / MySQL (``COPY`` is PostgreSQL).
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.relational.instance import RelationInstance, Row, Value, is_null
from repro.relational.schema import DatabaseSchema, RelationSchema


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier (double quotes, doubled inside).

    Every identifier this module emits goes through here, so table and
    column names taken from documents (tag names, attribute names) can be
    arbitrary text — including quotes, spaces, semicolons and SQL keywords —
    without changing the meaning of the emitted statement.  NUL bytes are
    rejected: they cannot be represented in an SQL identifier at all, and
    several engines silently truncate at the first NUL, which *would* let a
    hostile name alias another one.
    """
    if "\x00" in name:
        raise ValueError(f"SQL identifiers cannot contain NUL bytes: {name!r}")
    return '"' + name.replace('"', '""') + '"'


def encode_value(value: object) -> Optional[str]:
    """The canonical storage text of one value (``NULL`` → ``None``).

    The storage plane is a text plane: every column is ``TEXT`` and every
    non-null value is stored as exactly ``str(value)``.  Centralizing the
    conversion here is what makes typed values — the ints and floats that
    provenance and counter columns produce — *value-identical* across
    backends: a raw Python value handed to a driver would otherwise be
    rendered by the engine's own affinity rules (SQLite turns ``1e20``
    into ``'1.0e+20'`` and ``True`` into ``'1'``; PostgreSQL rejects an
    integer parameter against a ``TEXT`` column), whereas ``str()`` gives
    ``'1e+20'`` and ``'True'`` everywhere.  Every emission path — literals
    (:func:`quote_literal`), parameters (:func:`encode_row`, which the
    loader's batches share), ``COPY`` payloads (:func:`copy_literal`) — goes
    through this rendering, so the same value round-trips to the same
    text no matter the backend or the path.
    """
    if is_null(value):
        return None
    return value if type(value) is str else str(value)


def quote_literal(value: object) -> str:
    """Render a value as an SQL literal (strings quoted, NULL for nulls).

    Non-string values are rendered via :func:`encode_value` (canonical
    ``str()`` text) and quoted like any string — the storage plane is all
    ``TEXT`` columns, so emitting ints unquoted would only invite
    engine-specific coercion rules back in.

    NUL bytes are rejected rather than emitted: a NUL truncates the
    statement text in C-string-based engines, splitting the literal open.
    Values that may contain arbitrary bytes should travel as parameters
    (:func:`insert_template` + :func:`encode_row`), never as literals.
    """
    text = encode_value(value)
    if text is None:
        return "NULL"
    if "\x00" in text:
        raise ValueError(
            "SQL string literals cannot contain NUL bytes; use the "
            "parameterized emission (insert_template/encode_row) instead"
        )
    return "'" + text.replace("'", "''") + "'"


def create_table(
    schema: RelationSchema,
    column_type: str = "TEXT",
    if_not_exists: bool = False,
    include_keys: bool = True,
    extra_columns: Sequence[str] = (),
    typed_columns: Sequence[Tuple[str, str]] = (),
) -> str:
    """``CREATE TABLE`` for one relation schema.

    The first declared key becomes the ``PRIMARY KEY``; further keys become
    ``UNIQUE`` constraints.  All columns share ``column_type`` (the
    transformation language produces strings — the ``value()`` of a node).

    ``include_keys=False`` drops the key constraints entirely — the shape
    the storage plane's ``log`` mode uses to stage rows first and check
    them in-database afterwards.  ``extra_columns`` appends bookkeeping
    columns (e.g. a per-document provenance column) after the schema's own
    attributes; they never participate in the key constraints.
    ``typed_columns`` appends ``(name, sql_type)`` columns verbatim — the
    shape engine-specific bookkeeping needs (PostgreSQL's ``BIGSERIAL``
    insertion-order column).
    """
    clause_exists = "IF NOT EXISTS " if if_not_exists else ""
    lines = [f"CREATE TABLE {clause_exists}{quote_identifier(schema.name)} ("]
    column_lines = [
        f"    {quote_identifier(attribute)} {column_type}" for attribute in schema.attributes
    ]
    column_lines.extend(
        f"    {quote_identifier(extra)} {column_type}" for extra in extra_columns
    )
    column_lines.extend(
        f"    {quote_identifier(name)} {sql_type}" for name, sql_type in typed_columns
    )
    constraint_lines: List[str] = []
    if include_keys and schema.primary_key:
        columns = ", ".join(quote_identifier(a) for a in sorted(schema.primary_key))
        constraint_lines.append(f"    PRIMARY KEY ({columns})")
    if include_keys:
        for extra_key in schema.keys[1:]:
            columns = ", ".join(quote_identifier(a) for a in sorted(extra_key))
            constraint_lines.append(f"    UNIQUE ({columns})")
    lines.append(",\n".join(column_lines + constraint_lines))
    lines.append(");")
    return "\n".join(lines)


def create_schema(
    schema: DatabaseSchema,
    column_type: str = "TEXT",
    if_not_exists: bool = False,
) -> str:
    """``CREATE TABLE`` statements for every relation of a database schema."""
    return "\n\n".join(
        create_table(relation, column_type=column_type, if_not_exists=if_not_exists)
        for relation in schema
    )


def insert_statements(
    instance: RelationInstance, batch: bool = False, batch_size: Optional[int] = None
) -> List[str]:
    """``INSERT`` statements for every row of an instance.

    With ``batch=True`` a single multi-row ``INSERT`` is produced (one
    statement, many value tuples); ``batch_size=N`` chunks the rows into
    multi-row ``INSERT`` statements of at most ``N`` tuples each (the bulk
    emission shape — one statement per round trip instead of one per row).
    Otherwise one statement per row is produced.
    """
    if batch_size is not None:
        return list(
            iter_insert_statements(instance.schema, instance.rows, batch_size=batch_size)
        )
    table = quote_identifier(instance.schema.name)
    columns = ", ".join(quote_identifier(a) for a in instance.schema.attributes)
    tuples = [
        "(" + ", ".join(quote_literal(row.get_value(a)) for a in instance.schema.attributes) + ")"
        for row in instance
    ]
    if not tuples:
        return []
    if batch:
        return [f"INSERT INTO {table} ({columns}) VALUES\n  " + ",\n  ".join(tuples) + ";"]
    return [f"INSERT INTO {table} ({columns}) VALUES {values};" for values in tuples]


def iter_insert_statements(
    schema: RelationSchema,
    rows: Iterable[Mapping[str, Value]],
    batch_size: int = 500,
) -> Iterator[str]:
    """Lazily emit multi-row ``INSERT`` batches from any iterable of rows.

    ``rows`` may be a list, a :class:`RelationInstance`, or a generator such
    as :func:`repro.transform.stream.iter_rule_rows` — at most ``batch_size``
    rows are held in memory at a time, which makes document-to-SQL loading a
    constant-memory pipeline.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    table = quote_identifier(schema.name)
    columns = ", ".join(quote_identifier(a) for a in schema.attributes)
    pending: List[str] = []
    for row in rows:
        get = row.get_value if isinstance(row, Row) else lambda a, _row=row: _row.get(a)
        pending.append(
            "(" + ", ".join(quote_literal(get(a)) for a in schema.attributes) + ")"
        )
        if len(pending) >= batch_size:
            yield f"INSERT INTO {table} ({columns}) VALUES\n  " + ",\n  ".join(pending) + ";"
            pending = []
    if pending:
        yield f"INSERT INTO {table} ({columns}) VALUES\n  " + ",\n  ".join(pending) + ";"


# ----------------------------------------------------------------------
# Parameterized emission (the driver path of repro.storage)
# ----------------------------------------------------------------------
def insert_template(
    schema: RelationSchema,
    extra_columns: Sequence[str] = (),
    placeholder: str = "?",
) -> str:
    """A parameterized ``INSERT`` statement for one relation schema.

    Values are placeholders (``?`` by default — the DB-API ``qmark``
    style), so row content never appears in the SQL text: this is the
    injection-safe shape :meth:`repro.storage.loader.BulkLoader` hands to
    ``executemany`` together with the tuples of :func:`encode_row`.

    Pass the backend's placeholder (``Backend.placeholder``) when the
    template targets a specific engine.  For ``%``-style placeholders
    (the psycopg family's ``format`` paramstyle) any literal ``%`` in the
    identifier text is escaped to ``%%`` — psycopg's parameter
    interpolation is quote-unaware, so a document-derived column named
    ``a%sb`` would otherwise desynchronize the parameters.
    """
    columns = list(schema.attributes) + list(extra_columns)
    column_list = ", ".join(quote_identifier(column) for column in columns)
    table = quote_identifier(schema.name)
    if "%" in placeholder:
        column_list = column_list.replace("%", "%%")
        table = table.replace("%", "%%")
    placeholders = ", ".join([placeholder] * len(columns))
    return f"INSERT INTO {table} ({column_list}) VALUES ({placeholders})"


def encode_row(
    schema: RelationSchema,
    row: Mapping[str, Value],
    extra_values: Sequence[Optional[str]] = (),
) -> Tuple[Optional[str], ...]:
    """The positional parameter tuple of one row (``NULL`` → ``None``).

    Attribute order follows the schema (a missing attribute is ``NULL``);
    ``extra_values`` are appended and fill the ``extra_columns`` of
    :func:`insert_template`.  Every value takes the :func:`encode_value`
    text.  This is the one row encoder of the storage plane — the loader's
    batches, the delta store's row identities and ``COPY`` payloads all
    come from here — so its fast path matters: a row of strings is one
    C-level projection of the row's dict (``dict.get`` per attribute when
    one is missing), and only a row holding a NULL or a typed value is
    re-encoded value by value.
    """
    data = row._values if row.__class__ is Row else row
    attributes = schema.attributes
    if len(attributes) > 1:
        try:
            values = itemgetter(*attributes)(data)
        except KeyError:  # a missing attribute is NULL
            values = tuple(map(data.get, attributes))
    else:
        values = tuple(map(data.get, attributes))
    if extra_values:
        values += tuple(extra_values)
    for value in values:
        if value.__class__ is not str:
            return tuple(map(encode_value, values))
    return values


def iter_parameter_batches(
    schema: RelationSchema,
    rows: Iterable[Mapping[str, Value]],
    batch_size: int = 500,
    extra_values: Sequence[Optional[str]] = (),
) -> Iterator[List[Tuple[Optional[str], ...]]]:
    """Chunk a row iterable into ``executemany`` parameter batches.

    The streaming counterpart of :func:`iter_insert_statements` for the
    driver path: at most ``batch_size`` encoded rows are held at a time,
    so a document-to-database load stays constant-memory end to end.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    pending: List[Tuple[Optional[str], ...]] = []
    for row in rows:
        pending.append(encode_row(schema, row, extra_values=extra_values))
        if len(pending) >= batch_size:
            yield pending
            pending = []
    if pending:
        yield pending


def copy_literal(value: object) -> str:
    """Render a value for a ``COPY ... FROM STDIN`` text payload.

    Non-string values take the canonical :func:`encode_value` text, so a
    ``COPY``-based load stores exactly the same bytes as the parameterized
    ``INSERT`` path.
    """
    text = encode_value(value)
    if text is None:
        return "\\N"
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


#: A character ``COPY``'s text format must escape (the NULL marker ``\N``
#: is written, never escaped).
_COPY_SPECIAL = re.compile(r"[\\\t\n\r]")


def copy_statement(
    schema: RelationSchema, rows: Iterable[Mapping[str, Value]]
) -> Optional[str]:
    """A PostgreSQL ``COPY`` block (statement + payload + ``\\.``).

    Returns ``None`` for an empty row set (``COPY`` with no payload is
    pointless).  ``rows`` may be any iterable of rows, as for
    :func:`iter_insert_statements`.  Each row is encoded once by
    :func:`encode_row` and tab-joined as is; only a row that holds a NULL
    or a character the text format escapes renders value by value
    (:func:`copy_literal`).
    """
    table = quote_identifier(schema.name)
    columns = ", ".join(quote_identifier(a) for a in schema.attributes)
    special = _COPY_SPECIAL.search
    lines: List[str] = []
    for row in rows:
        values = encode_row(schema, row)
        if None in values or special("".join(values)):
            lines.append("\t".join(map(copy_literal, values)))
        else:
            lines.append("\t".join(values))
    if not lines:
        return None
    header = f"COPY {table} ({columns}) FROM STDIN;"
    return "\n".join([header, *lines, "\\."])


def load_script(
    schema: DatabaseSchema,
    instances: Mapping[str, RelationInstance],
    column_type: str = "TEXT",
    batch_size: Optional[int] = None,
    copy: bool = False,
) -> str:
    """A complete DDL + DML script for a shredded database.

    ``batch_size`` switches the DML to chunked multi-row ``INSERT``
    statements; ``copy=True`` emits PostgreSQL ``COPY`` blocks instead.
    """
    parts: List[str] = [create_schema(schema, column_type=column_type)]
    for relation in schema:
        instance = instances.get(relation.name)
        if instance is None or len(instance) == 0:
            continue
        if copy:
            block = copy_statement(instance.schema, instance.rows)
            if block:
                parts.append(block)
        elif batch_size is not None:
            parts.append(
                "\n".join(iter_insert_statements(instance.schema, instance.rows, batch_size))
            )
        else:
            parts.append("\n".join(insert_statements(instance)))
    return "\n\n".join(part for part in parts if part)
