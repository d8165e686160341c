"""Compiling schemas + propagated FD covers into constraint-bearing DDL.

This is where the paper's propagation theorem stops being simulated and
starts being *enforced*: a :class:`~repro.relational.schema.RelationSchema`
(or a whole :class:`~repro.relational.schema.DatabaseSchema`) together with
a minimum cover of propagated FDs (:func:`repro.core.minimum_cover_from_keys`)
compiles into ``CREATE TABLE`` / ``CREATE INDEX`` statements where

* **key FDs** — FDs whose left-hand side determines every attribute of the
  relation under the cover — become the ``PRIMARY KEY`` (the first one, or
  the schema's declared primary key) and ``UNIQUE`` indexes (the rest), so
  the engine itself rejects rows that would violate a propagated key;
* **non-key FDs** become plain supporting indexes on their determinant,
  the access path the ``GROUP BY`` verification queries and FD-repair
  joins need.

Two modes decide how much the engine enforces at load time:

``mode="strict"``
    Uniqueness constraints are real (``PRIMARY KEY`` inline, ``CREATE
    UNIQUE INDEX``): a violating row makes the insert fail, and
    :class:`repro.storage.loader.BulkLoader` turns that failure into an
    exact list of rejected rows.  Note SQL uniqueness is *at least as
    strict* as the paper's FD-with-nulls semantics: the paper's condition
    (2) exempts tuples containing a null anywhere, whereas ``UNIQUE``
    only exempts tuples with a null among the key columns themselves.

``mode="log"``
    No uniqueness anywhere — rows are staged first, every determinant
    still gets a plain index, and violations are found afterwards *in the
    database* by :mod:`repro.storage.verify`, which reproduces the
    in-memory checkers' witnesses identically (the paper's exact
    semantics, including the null exemptions).

Empty-determinant FDs (``∅ → X``: the relation holds at most one distinct
``X``) cannot be spelled as SQL constraints; they are recorded on the
:class:`TableDDL` as ``unenforced`` and left to the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from repro.relational.fd import FunctionalDependency, attribute_closure, coerce_fd
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.sql import create_table, quote_identifier

#: The two DDL modes (see module docstring).
MODES = ("strict", "log")


@dataclass
class TableDDL:
    """The compiled DDL of one relation."""

    schema: RelationSchema
    create: str
    indexes: List[str] = field(default_factory=list)
    #: Attribute sets enforced (strict) or indexed (log) as keys, primary
    #: key first.
    key_sets: List[FrozenSet[str]] = field(default_factory=list)
    #: Non-key FDs backed by a supporting index on their determinant.
    index_fds: List[FunctionalDependency] = field(default_factory=list)
    #: FDs no SQL constraint can carry (empty determinant).
    unenforced: List[FunctionalDependency] = field(default_factory=list)

    @property
    def statements(self) -> List[str]:
        return [self.create, *self.indexes]


@dataclass
class StorageDDL:
    """The compiled DDL of a whole database, plus the plan metadata."""

    mode: str
    tables: Dict[str, TableDDL]
    provenance_column: Optional[str] = None
    #: Engine-maintained insertion-order column declared on every table
    #: (``Backend.ordinal_column``); ``None`` on engines with an internal
    #: row id.  The verifier orders by it to recover row ordinals.
    ordinal_column: Optional[str] = None

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    def statements(self) -> List[str]:
        return [
            statement for table in self.tables.values() for statement in table.statements
        ]

    def script(self) -> str:
        return "\n\n".join(self.statements())

    def table(self, name: str) -> TableDDL:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r} in this DDL plan") from None


def _is_key_fd(
    fd: FunctionalDependency,
    attributes: FrozenSet[str],
    local_fds: List[FunctionalDependency],
) -> bool:
    """Does ``fd.lhs`` determine every attribute of the relation?"""
    return attributes <= attribute_closure(fd.lhs, local_fds)


def _canonical_minimal_key(
    attributes: FrozenSet[str],
    local_fds: List[FunctionalDependency],
) -> Optional[FrozenSet[str]]:
    """One deterministic minimal candidate key under the local FDs.

    Greedy reduction from the full attribute set in sorted order: an
    attribute is dropped whenever the remainder still determines the whole
    relation.  A minimized cover often states its key FDs through an
    equivalent-attribute rewrite (``{a0, k1} → …`` where ``a0 ↔ k0``), so
    the *natural* key of the relation — the spine of propagated XML keys —
    need not appear as any cover FD's determinant; this reduction recovers
    it.  Returns ``None`` when no proper key exists (the only "key" is the
    whole attribute set — not a propagated constraint, so nothing to
    enforce).
    """
    if not local_fds:
        return None
    key = set(attributes)
    for attribute in sorted(attributes):
        candidate = key - {attribute}
        if attributes <= attribute_closure(candidate, local_fds):
            key = candidate
    if not key or key == set(attributes):
        # Empty: every attribute is constant (∅ → X covers the relation) —
        # "at most one distinct row" has no UNIQUE/index spelling, like the
        # other empty-determinant FDs.  Full: no proper key exists.
        return None
    return frozenset(key)


def compile_table_ddl(
    schema: RelationSchema,
    cover: Iterable = (),
    mode: str = "strict",
    column_type: str = "TEXT",
    provenance_column: Optional[str] = None,
    if_not_exists: bool = False,
    ordinal_column: Optional[str] = None,
) -> TableDDL:
    """Compile one relation schema plus the FDs that apply to it.

    ``cover`` may be any iterable of FDs (a
    :class:`~repro.core.minimum_cover.MinimumCoverResult` iterates over its
    cover); only the FDs whose attributes all belong to this relation are
    considered — passing the cover of the universal relation to each table
    of a decomposed design does the projection implicitly.
    """
    if mode not in MODES:
        raise ValueError(f"unknown DDL mode {mode!r}: expected one of {MODES}")
    attributes = frozenset(schema.attributes)
    if provenance_column is not None and provenance_column in attributes:
        raise ValueError(
            f"provenance column {provenance_column!r} collides with an "
            f"attribute of relation {schema.name!r}"
        )
    if ordinal_column is not None and (
        ordinal_column in attributes or ordinal_column == provenance_column
    ):
        raise ValueError(
            f"ordinal column {ordinal_column!r} collides with a column of "
            f"relation {schema.name!r}"
        )
    local_fds = [
        fd
        for fd in (coerce_fd(entry) for entry in cover)
        if fd.attributes <= attributes
    ]

    # Partition: key sets (declared keys first, then the canonical minimal
    # key recovered from the cover, then key-FD determinants),
    # supporting-index FDs, unenforceable FDs.
    key_sets: List[FrozenSet[str]] = []
    for declared in schema.keys:
        if declared and declared not in key_sets:
            key_sets.append(declared)
    canonical = _canonical_minimal_key(attributes, local_fds)
    if canonical is not None and canonical not in key_sets:
        key_sets.append(canonical)
    index_fds: List[FunctionalDependency] = []
    unenforced: List[FunctionalDependency] = []
    for fd in local_fds:
        if fd.is_trivial:
            continue
        if not fd.lhs:
            unenforced.append(fd)
        elif _is_key_fd(fd, attributes, local_fds):
            if fd.lhs not in key_sets:
                key_sets.append(fd.lhs)
        else:
            index_fds.append(fd)

    # The CREATE TABLE carries the key constraints inline only in strict
    # mode; a shadow schema holds the effective key list (declared keys may
    # be empty while the cover still yields key FDs).
    effective = RelationSchema(schema.name, schema.attributes, keys=key_sets)
    extra_columns = [provenance_column] if provenance_column is not None else []
    # The ordinal column (when the backend needs one) is engine-maintained:
    # a BIGSERIAL the loader never binds, recording insertion order for the
    # verifier's witness ordinals.
    typed_columns = (
        [(ordinal_column, "BIGSERIAL")] if ordinal_column is not None else []
    )
    create = create_table(
        effective,
        column_type=column_type,
        if_not_exists=if_not_exists,
        include_keys=mode == "strict",
        extra_columns=extra_columns,
        typed_columns=typed_columns,
    )

    indexes: List[str] = []
    clause_exists = "IF NOT EXISTS " if if_not_exists else ""

    def index_statement(ordinal: int, columns: FrozenSet[str], unique: bool) -> str:
        prefix = "uq" if unique else "ix"
        name = quote_identifier(f"{prefix}{ordinal}_{schema.name}")
        column_list = ", ".join(quote_identifier(a) for a in sorted(columns))
        head = "CREATE UNIQUE INDEX" if unique else "CREATE INDEX"
        return (
            f"{head} {clause_exists}{name} "
            f"ON {quote_identifier(schema.name)} ({column_list});"
        )

    ordinal = 0
    # Key sets beyond the inline PRIMARY KEY/UNIQUE constraints: in strict
    # mode they are already inline; in log mode every key set gets a plain
    # index so the verification GROUP BYs have an access path.
    if mode == "log":
        for columns in key_sets:
            indexes.append(index_statement(ordinal, columns, unique=False))
            ordinal += 1
    seen_index_sets = set(key_sets)
    for fd in index_fds:
        if fd.lhs in seen_index_sets:
            continue
        seen_index_sets.add(fd.lhs)
        indexes.append(index_statement(ordinal, fd.lhs, unique=False))
        ordinal += 1
    if provenance_column is not None:
        indexes.append(
            index_statement(ordinal, frozenset([provenance_column]), unique=False)
        )

    return TableDDL(
        schema=effective,
        create=create,
        indexes=indexes,
        key_sets=key_sets,
        index_fds=index_fds,
        unenforced=unenforced,
    )


def compile_ddl(
    schema: Union[DatabaseSchema, RelationSchema],
    cover: Iterable = (),
    mode: str = "strict",
    column_type: str = "TEXT",
    provenance_column: Optional[str] = None,
    if_not_exists: bool = False,
    ordinal_column: Optional[str] = None,
) -> StorageDDL:
    """Compile a database schema plus a propagated-FD cover into a DDL plan.

    ``schema`` may be a single relation schema (wrapped into a one-table
    plan) or a database schema; ``cover`` applies to every relation it
    projects onto.  See the module docstring for the ``mode`` semantics.
    """
    if isinstance(schema, RelationSchema):
        schema = DatabaseSchema([schema])
    cover_list = [coerce_fd(entry) for entry in cover]
    tables = {
        relation.name: compile_table_ddl(
            relation,
            cover_list,
            mode=mode,
            column_type=column_type,
            provenance_column=provenance_column,
            if_not_exists=if_not_exists,
            ordinal_column=ordinal_column,
        )
        for relation in schema
    }
    return StorageDDL(
        mode=mode,
        tables=tables,
        provenance_column=provenance_column,
        ordinal_column=ordinal_column,
    )
