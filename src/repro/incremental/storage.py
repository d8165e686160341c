"""Delta-row persistence: keeping a live database in step with the engine.

The batch storage plane (:mod:`repro.storage.loader`) reloads whole
documents; the incremental engine edits one subtree at a time, so
re-loading would cost O(corpus) per delta.  :class:`DeltaStore` instead
mirrors the engine's merged relation contents as multiset counters and,
per delta, emits only the *difference* — ``DELETE`` statements for rows
whose multiplicity drops, a batched ``INSERT`` for rows whose multiplicity
grows — inside one savepoint per delta, so a rejected delta (a strict-mode
constraint failure, a consistency check) unwinds completely and the
database never diverges from the engine.

Two bookkeeping shapes, chosen per rule by the engine:

* **bag** (single-anchor rules — the common case): the store keeps the raw
  per-anchor row bag as a counter; a delta hands it the encoded rows the
  removed and inserted subtree contributed, and the rows to touch fall out
  of the counts that change — O(delta) work, never O(table).  The paper's
  NULL-row semantics (an unmatched rule still emits one all-NULL tuple)
  appear as a bag-emptiness transition.
* **full** (multi-anchor products, rules with root fields): the engine
  recomputes the rule's merged rows and the store diffs the new counter
  against the previous one — O(rule output), still without touching the
  document.

Rows are identified by their encoded parameter tuples
(:func:`repro.relational.sql.encode_row`, the exact values the loader
binds), and deletes are NULL-safe (``IS ?``) and multiplicity-bounded
(``rowid IN (… LIMIT ?)``) so bag semantics survive duplicated rows.  The
store verifies every delete's rowcount: a mismatch means the database was
modified behind the engine's back, and the savepoint rolls the delta back
rather than guessing.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.relational.instance import RelationInstance
from repro.relational.sql import insert_template, quote_identifier
from repro.storage.backend import StorageError
from repro.storage.loader import BulkLoader

#: One row as it is bound to the database: ``None`` for NULL, strings
#: otherwise, in the table schema's attribute order.
Params = Tuple[Optional[str], ...]

#: A per-table change instruction from the engine.  ``("bag", removed,
#: added, null_params)`` updates a raw row bag in O(delta); ``("full",
#: new_final)`` replaces the table's final row counter outright.
BagChange = Tuple[str, List[Params], List[Params], Params]
FullChange = Tuple[str, "Counter[Params]"]
Change = Union[BagChange, FullChange]


class DeltaStore:
    """Mirror the engine's relation contents into a database, delta by delta."""

    def __init__(self, loader: BulkLoader) -> None:
        if loader.ddl.provenance_column is not None:
            raise ValueError(
                "incremental storage needs a DDL plan without a provenance "
                "column: the engine owns its tables outright and deletes by "
                "row value"
            )
        self.loader = loader
        self.backend = loader.backend
        self.ddl = loader.ddl
        self._insert_sql: Dict[str, str] = {}
        self._delete_sql: Dict[str, str] = {}
        #: Raw per-anchor row bags of the bag-tracked tables.
        self._bags: Dict[str, Counter] = {}
        self._bag_sizes: Dict[str, int] = {}
        #: Final-row counters of the full-tracked tables.
        self._finals: Dict[str, Counter] = {}
        self._deltas_applied = 0

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize(
        self,
        instances: Dict[str, RelationInstance],
        bags: Dict[str, List[Params]],
        finals: Dict[str, "Counter[Params]"],
    ) -> Dict[str, int]:
        """Create the schema and bulk-load the engine's current state.

        ``instances`` is what lands in the database (one savepoint for the
        whole initial load — a strict-mode rejection leaves nothing
        behind); ``bags``/``finals`` seed the counters subsequent deltas
        diff against.  Returns the rows loaded per table.

        The store owns its tables outright (it later deletes by row
        value), so any rows a previous session left in them are cleared
        first — re-attaching to the same database file is idempotent, not
        a constraint failure.  The clearing happens inside the same
        savepoint: a rejected initial load puts the old rows back.
        """
        self.loader.create_schema()
        counts: Dict[str, int] = {}
        with self.backend.savepoint("repro_incremental_init"):
            for table in instances:
                self.backend.execute(
                    f"DELETE FROM {quote_identifier(table)}"
                )
            for table, instance in instances.items():
                counts[table] = self.loader.load_instance(instance)
        for table, rows in bags.items():
            self._bags[table] = Counter(rows)
            self._bag_sizes[table] = len(rows)
        for table, final in finals.items():
            self._finals[table] = Counter(final)
        return counts

    # ------------------------------------------------------------------
    # One delta
    # ------------------------------------------------------------------
    def apply(self, changes: Dict[str, Change]) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Apply one delta's per-table changes atomically.

        Every change is first *planned* against the counters (pure: no
        counter mutates), the resulting net row changes execute inside one
        savepoint, and only after the database accepted them do the
        counters commit.  Any failure — a strict-mode
        :exc:`~repro.storage.backend.IntegrityViolation`, a delete whose
        rowcount disagrees — rolls the savepoint back and leaves both the
        database and the counters exactly as before.  Returns
        ``(rows inserted, rows deleted)`` per table.
        """
        plans: Dict[str, Dict[Params, int]] = {}
        commits: List[Callable[[], None]] = []
        for table, change in changes.items():
            if change[0] == "bag":
                net, commit = self._plan_bag(table, change)
            else:
                net, commit = self._plan_full(table, change)
            if net:
                plans[table] = net
            commits.append(commit)
        with self.backend.savepoint(f"repro_delta_{self._deltas_applied}"):
            for table, net in plans.items():
                self._execute(table, net)
        self._deltas_applied += 1
        for commit in commits:
            commit()
        inserted = {
            table: sum(count for count in net.values() if count > 0)
            for table, net in plans.items()
        }
        deleted = {
            table: sum(-count for count in net.values() if count < 0)
            for table, net in plans.items()
        }
        return (
            {table: count for table, count in inserted.items() if count},
            {table: count for table, count in deleted.items() if count},
        )

    # ------------------------------------------------------------------
    # Planning (pure: counters are only read)
    # ------------------------------------------------------------------
    def _plan_bag(
        self, table: str, change: BagChange
    ) -> Tuple[Dict[Params, int], Callable[[], None]]:
        _, removed, added, null_params = change
        bag = self._bags[table]
        size = self._bag_sizes[table]
        deduplicate = self.loader.deduplicate
        delta: Counter = Counter()
        for params in added:
            delta[params] += 1
        for params in removed:
            delta[params] -= 1
        net: Dict[Params, int] = {}
        for params, change_count in delta.items():
            old_count = bag.get(params, 0)
            new_count = old_count + change_count
            if new_count < 0:
                raise StorageError(
                    f"delta retracts rows table {table!r} never loaded"
                )
            old_final = (1 if old_count else 0) if deduplicate else old_count
            new_final = (1 if new_count else 0) if deduplicate else new_count
            if new_final != old_final:
                net[params] = net.get(params, 0) + (new_final - old_final)
        # The NULL-row transition: an empty bag renders as one all-NULL row.
        new_size = size + len(added) - len(removed)
        if size == 0 and new_size > 0:
            net[null_params] = net.get(null_params, 0) - 1
        elif size > 0 and new_size == 0:
            net[null_params] = net.get(null_params, 0) + 1
        net = {params: count for params, count in net.items() if count}

        def commit() -> None:
            for params, change_count in delta.items():
                count = bag.get(params, 0) + change_count
                if count:
                    bag[params] = count
                else:
                    bag.pop(params, None)
            self._bag_sizes[table] = new_size

        return net, commit

    def _plan_full(
        self, table: str, change: FullChange
    ) -> Tuple[Dict[Params, int], Callable[[], None]]:
        _, new_final = change
        old_final = self._finals[table]
        net: Dict[Params, int] = {}
        for params in set(old_final) | set(new_final):
            difference = new_final.get(params, 0) - old_final.get(params, 0)
            if difference:
                net[params] = difference

        def commit() -> None:
            self._finals[table] = Counter(new_final)

        return net, commit

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _insert_statement(self, table: str) -> str:
        statement = self._insert_sql.get(table)
        if statement is None:
            statement = insert_template(self.ddl.table(table).schema)
            self._insert_sql[table] = statement
        return statement

    def _delete_statement(self, table: str) -> str:
        statement = self._delete_sql.get(table)
        if statement is None:
            schema = self.ddl.table(table).schema
            quoted = quote_identifier(table)
            # ``IS`` is SQLite's null-safe equality, so one statement covers
            # NULL and non-NULL values alike; the LIMIT bounds the delete to
            # the multiplicity being retracted (bag semantics).
            predicate = " AND ".join(
                f"{quote_identifier(attribute)} IS ?"
                for attribute in schema.attributes
            )
            statement = (
                f"DELETE FROM {quoted} WHERE rowid IN "
                f"(SELECT rowid FROM {quoted} WHERE {predicate} LIMIT ?)"
            )
            self._delete_sql[table] = statement
        return statement

    def _execute(self, table: str, net: Dict[Params, int]) -> None:
        deletes = [(params, -count) for params, count in net.items() if count < 0]
        inserts = [
            params for params, count in net.items() if count > 0 for _ in range(count)
        ]
        if deletes:
            statement = self._delete_statement(table)
            for params, count in deletes:
                cursor = self.backend.execute(statement, params + (count,))
                if cursor.rowcount != count:
                    raise StorageError(
                        f"delta delete on table {table!r} removed "
                        f"{cursor.rowcount} row(s) where {count} were expected "
                        "— the database no longer matches the engine"
                    )
        if inserts:
            self.backend.executemany(self._insert_statement(table), inserts)
