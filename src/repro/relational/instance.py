"""Relation instances with nulls and the paper's FD semantics.

XML is semistructured, so shredding may produce tuples with missing fields.
Section 3 of the paper therefore adopts a specific semantics of an FD
``X → Y`` over an instance possibly containing nulls:

1. for any tuple ``t``, if ``t[X]`` contains a null then so does ``t[Y]``;
2. for tuples ``t1, t2`` neither of which contains a null, if
   ``t1[X] = t2[X]`` then ``t1[Y] = t2[Y]``.

:class:`RelationInstance` implements relations as multisets of rows (bags),
which is what the Cartesian-product shredding semantics naturally produces,
with helpers to deduplicate, check FDs under the semantics above, and verify
declared keys (reporting violations like the ones of Figure 2(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.relational.schema import AttrSetLike, RelationSchema, attr_set


class NullType:
    """Singleton marker for SQL-style NULL (distinct from empty strings)."""

    _instance: Optional["NullType"] = None

    def __new__(cls) -> "NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        # NULL never compares equal to anything, including itself, mirroring
        # three-valued logic; identity checks (`is NULL`) are used instead.
        return False

    def __hash__(self) -> int:
        return hash("repro-null")

    def __reduce__(self):
        # NULL crosses process boundaries (shard results in
        # :mod:`repro.parallel`) and every null check in the repository is
        # an identity check, so unpickling must return the canonical
        # singleton under *every* protocol.  The default protocol-0/1
        # reduction bypasses ``__new__``'s memo and produced a second
        # instance for which ``is NULL`` — and therefore ``is_null`` — was
        # False.
        return (NullType, ())


NULL = NullType()

Value = Union[str, NullType]


def is_null(value: object) -> bool:
    """True iff ``value`` is the NULL marker (or Python ``None``)."""
    return value is NULL or value is None


class Row(Mapping[str, Value]):
    """One tuple of a relation instance: an immutable attribute → value map."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Value]) -> None:
        normalised = {}
        for attribute, value in values.items():
            normalised[attribute] = NULL if is_null(value) else value
        self._values: Dict[str, Value] = normalised

    def __getitem__(self, attribute: str) -> Value:
        return self._values[attribute]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def get_value(self, attribute: str) -> Value:
        return self._values.get(attribute, NULL)

    def project(self, attributes: AttrSetLike) -> Tuple[Value, ...]:
        """Values of the given attributes, in sorted attribute order."""
        return tuple(self.get_value(attribute) for attribute in sorted(attr_set(attributes)))

    def has_null(self, attributes: Optional[AttrSetLike] = None) -> bool:
        """Does the row contain a null among ``attributes`` (default: all)?"""
        names = attr_set(attributes) if attributes is not None else set(self._values)
        return any(is_null(self.get_value(name)) for name in names)

    def as_dict(self) -> Dict[str, Value]:
        return dict(self._values)

    def _freeze(self) -> Tuple[Tuple[str, object], ...]:
        return tuple(
            (attribute, "\0NULL\0" if is_null(value) else value)
            for attribute, value in sorted(self._values.items())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self._freeze() == other._freeze()

    def __hash__(self) -> int:
        return hash(self._freeze())

    def __repr__(self) -> str:
        rendered = ", ".join(f"{key}={value!r}" for key, value in sorted(self._values.items()))
        return f"Row({rendered})"


@dataclass(frozen=True)
class FDViolation:
    """Witness of an FD violation under the paper's null semantics."""

    kind: str  # "null-determinant" or "value-conflict"
    detail: str


class FDViolationAccumulator:
    """Mergeable single-pass state for checking one FD over a row stream.

    The parallel execution plane checks shredded instances in pieces: each
    shard observes its own rows, the coordinator merges the accumulators
    in document order, and :meth:`finalize` reports exactly the violations
    (same kinds, same tuple indexes, same details, same order) that one
    serial :meth:`RelationInstance.fd_violations` pass over the
    concatenated rows would.  To stay mergeable the accumulator keeps every
    null-free row's ``(index, dependent)`` pair per determinant group —
    the first occurrence of a group is only known globally — so its memory
    is proportional to the rows observed, not to the group count.
    """

    __slots__ = ("lhs_sorted", "rhs_sorted", "count", "null_determinant", "groups")

    def __init__(self, lhs: AttrSetLike, rhs: AttrSetLike) -> None:
        self.lhs_sorted = sorted(attr_set(lhs))
        self.rhs_sorted = sorted(attr_set(rhs))
        #: Rows observed so far (the index offset of a later merge).
        self.count = 0
        #: Indexes of rows violating condition (1), in row order.
        self.null_determinant: List[int] = []
        #: determinant value tuple → ordered [(row index, dependent tuple)]
        #: over the rows free of nulls anywhere.
        self.groups: Dict[Tuple[Value, ...], List[Tuple[int, Tuple[Value, ...]]]] = {}

    def observe(self, row: "Row") -> None:
        index = self.count
        self.count = index + 1
        values = row._values
        determinant = tuple(values.get(name, NULL) for name in self.lhs_sorted)
        dependent = tuple(values.get(name, NULL) for name in self.rhs_sorted)
        lhs_has_null = any(value is NULL for value in determinant)
        rhs_has_null = any(value is NULL for value in dependent)
        # Condition (1): a null determinant forces a null dependent.
        if lhs_has_null and not rhs_has_null:
            self.null_determinant.append(index)
        # Condition (2) only quantifies over tuples free of nulls anywhere.
        if lhs_has_null or rhs_has_null or any(
            value is NULL for value in values.values()
        ):
            return
        self.groups.setdefault(determinant, []).append((index, dependent))

    def merge(self, other: "FDViolationAccumulator") -> "FDViolationAccumulator":
        """Append ``other``'s observations after this accumulator's own.

        Associative and in-place: ``other``'s row indexes are shifted by
        ``self.count``, exactly as if its rows had been observed here.
        """
        if (
            other.lhs_sorted != self.lhs_sorted
            or other.rhs_sorted != self.rhs_sorted
        ):
            raise ValueError("cannot merge accumulators of different FDs")
        offset = self.count
        self.null_determinant.extend(index + offset for index in other.null_determinant)
        for determinant, entries in other.groups.items():
            self.groups.setdefault(determinant, []).extend(
                (index + offset, dependent) for index, dependent in entries
            )
        self.count += other.count
        return self

    def subtract(self, other: "FDViolationAccumulator") -> "FDViolationAccumulator":
        """Unobserve ``other``'s rows from the tail — the inverse of merge.

        ``merge(a, b).subtract(b)`` restores ``a`` exactly: ``other`` must
        describe the most recently merged (or observed) suffix of this
        accumulator's row sequence.  Because merge only shifts ``other``'s
        indexes by the preceding row count, every index at or above the
        split point belongs to ``other``'s rows; the suffix is verified
        entry-for-entry before anything is dropped, so a mismatched
        subtraction raises instead of corrupting the state.  Cost is
        proportional to ``other``'s entries — O(delta), not O(rows).
        """
        if (
            other.lhs_sorted != self.lhs_sorted
            or other.rhs_sorted != self.rhs_sorted
        ):
            raise ValueError("cannot subtract accumulators of different FDs")
        offset = self.count - other.count
        if offset < 0:
            raise ValueError(
                f"cannot subtract {other.count} rows from an accumulator of "
                f"{self.count}"
            )
        tail = [index for index in self.null_determinant if index >= offset]
        if tail != [index + offset for index in other.null_determinant]:
            raise ValueError(
                "subtracted accumulator is not the null-determinant suffix "
                "of this one"
            )
        if tail:
            del self.null_determinant[-len(tail):]
        for determinant, entries in other.groups.items():
            mine = self.groups.get(determinant)
            expected = [(index + offset, dependent) for index, dependent in entries]
            if mine is None or len(mine) < len(expected) or (
                mine[len(mine) - len(expected):] != expected
            ):
                raise ValueError(
                    "subtracted accumulator is not the group suffix of this one"
                )
            del mine[len(mine) - len(expected):]
            if not mine:
                del self.groups[determinant]
        self.count = offset
        return self

    def finalize(self) -> List[FDViolation]:
        """The violations of the observed (merged) row sequence."""
        nulls = [
            FDViolation(
                kind="null-determinant",
                detail=(
                    f"tuple #{index} has a null among {self.lhs_sorted} but none "
                    f"among {self.rhs_sorted}"
                ),
            )
            for index in self.null_determinant
        ]
        conflicts: List[Tuple[int, FDViolation]] = []
        for determinant, entries in self.groups.items():
            first_index, first_dependent = entries[0]
            for index, dependent in entries[1:]:
                if dependent != first_dependent:
                    conflicts.append(
                        (
                            index,
                            FDViolation(
                                kind="value-conflict",
                                detail=(
                                    f"tuples #{first_index} and #{index} agree on "
                                    f"{self.lhs_sorted}={list(determinant)} but disagree on "
                                    f"{self.rhs_sorted}: {list(first_dependent)} vs "
                                    f"{list(dependent)}"
                                ),
                            ),
                        )
                    )
        conflicts.sort(key=lambda entry: entry[0])
        return nulls + [violation for _, violation in conflicts]

    def __eq__(self, other: object) -> bool:
        # Structural state equality (container comparisons identity-match
        # the NULL singleton) — what the merge/subtract inverse laws of the
        # incremental plane assert on.
        if not isinstance(other, FDViolationAccumulator):
            return NotImplemented
        return (
            self.lhs_sorted == other.lhs_sorted
            and self.rhs_sorted == other.rhs_sorted
            and self.count == other.count
            and self.null_determinant == other.null_determinant
            and self.groups == other.groups
        )


class RelationInstance:
    """A (bag) instance of a relation schema."""

    def __init__(self, schema: RelationSchema, rows: Iterable[Mapping[str, Value]] = ()) -> None:
        self.schema = schema
        self.rows: List[Row] = []
        for row in rows:
            self.add_row(row)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_row(self, values: Mapping[str, Value]) -> Row:
        schema = self.schema
        row = Row.__new__(Row)
        if (
            type(values) is dict
            and tuple(values) == schema.attributes
            and None not in values.values()
        ):
            # Already complete, in schema order and normalised — rows
            # straight from a shredder: one copy is all that is left to do.
            row._values = values.copy()
        else:
            if not schema.attribute_set.issuperset(values):
                unknown = set(values) - schema.attribute_set
                raise ValueError(
                    f"row mentions attributes {sorted(unknown)} absent from "
                    f"schema {schema.name!r}"
                )
            # Missing attributes and Python None both become NULL — the
            # normalisation Row.__init__ applies, done in the same pass.
            get = values.get
            row._values = {
                attribute: NULL if (value := get(attribute)) is None else value
                for attribute in schema.attributes
            }
        self.rows.append(row)
        return row

    def extend(self, rows: Iterable[Mapping[str, Value]]) -> None:
        for row in rows:
            self.add_row(row)

    def merge(self, *others: "RelationInstance") -> "RelationInstance":
        """Bag union preserving order: this instance's rows, then each other's.

        The merge step of the parallel plane: per-shard instances of the
        same relation concatenate associatively (bags are order-sensitive
        only in presentation, and shard order is document order).  The
        schemas must agree attribute-for-attribute.
        """
        merged = RelationInstance(self.schema)
        merged.rows.extend(self.rows)
        for other in others:
            if (
                other.schema.name != self.schema.name
                or tuple(other.schema.attributes) != tuple(self.schema.attributes)
            ):
                raise ValueError(
                    f"cannot merge instance of {other.schema.name!r}"
                    f"{tuple(other.schema.attributes)} into {self.schema.name!r}"
                    f"{tuple(self.schema.attributes)}"
                )
            merged.rows.extend(other.rows)
        return merged

    def subtract(self, *others: "RelationInstance") -> "RelationInstance":
        """Remove each instance's rows from the tail — the inverse of merge.

        ``a.merge(b, c).subtract(b, c)`` returns an instance equal to ``a``:
        the others' row lists are peeled off the end in reverse order, each
        verified row-for-row (``Row`` equality freezes NULLs) before it is
        dropped, so subtracting anything that is not the merged suffix
        raises instead of silently corrupting the bag.
        """
        result = RelationInstance(self.schema)
        result.rows = list(self.rows)
        for other in reversed(others):
            if (
                other.schema.name != self.schema.name
                or tuple(other.schema.attributes) != tuple(self.schema.attributes)
            ):
                raise ValueError(
                    f"cannot subtract instance of {other.schema.name!r}"
                    f"{tuple(other.schema.attributes)} from {self.schema.name!r}"
                    f"{tuple(self.schema.attributes)}"
                )
            count = len(other.rows)
            if count == 0:
                continue
            if len(result.rows) < count or result.rows[-count:] != other.rows:
                raise ValueError(
                    f"subtracted instance of {other.schema.name!r} is not the "
                    "row suffix of this one"
                )
            del result.rows[-count:]
        return result

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def distinct(self) -> "RelationInstance":
        """Set-semantics copy of the instance (duplicates removed)."""
        result = RelationInstance(self.schema)
        seen = set()
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                result.rows.append(row)
        return result

    def values(self, attribute: str) -> List[Value]:
        return [row.get_value(attribute) for row in self.rows]

    # ------------------------------------------------------------------
    # Constraint checking
    # ------------------------------------------------------------------
    def fd_violations(self, lhs: AttrSetLike, rhs: AttrSetLike) -> List[FDViolation]:
        """Violations of ``lhs → rhs`` under the null semantics of Section 3.

        Single pass over the instance with a hash index from determinant
        value tuples to their first witness — the attribute orders are
        resolved once up front instead of once per row, and both conditions
        are checked in the same scan, so large shredded instances are
        checked in O(rows · |lhs ∪ rhs|) time and O(groups) extra memory.
        (:class:`FDViolationAccumulator` is the *mergeable* variant for
        sharded checking; it must keep every clean row per group, so the
        serial path keeps this leaner first-witness index.  The two are
        pinned equal by ``tests/property/test_parallel_differential.py``.)
        """
        lhs_sorted = sorted(attr_set(lhs))
        rhs_sorted = sorted(attr_set(rhs))
        null_determinant: List[FDViolation] = []
        value_conflicts: List[FDViolation] = []
        # determinant value tuple → (first row index, its dependent tuple)
        groups: Dict[Tuple[Value, ...], Tuple[int, Tuple[Value, ...]]] = {}
        for index, row in enumerate(self.rows):
            values = row._values
            determinant = tuple(values.get(name, NULL) for name in lhs_sorted)
            dependent = tuple(values.get(name, NULL) for name in rhs_sorted)
            lhs_has_null = any(value is NULL for value in determinant)
            rhs_has_null = any(value is NULL for value in dependent)
            # Condition (1): a null determinant forces a null dependent.
            if lhs_has_null and not rhs_has_null:
                null_determinant.append(
                    FDViolation(
                        kind="null-determinant",
                        detail=(
                            f"tuple #{index} has a null among {lhs_sorted} but none "
                            f"among {rhs_sorted}"
                        ),
                    )
                )
            # Condition (2): agreement on the determinant forces agreement
            # on the dependent, for tuples free of nulls anywhere.
            if lhs_has_null or rhs_has_null or any(
                value is NULL for value in values.values()
            ):
                continue
            first = groups.get(determinant)
            if first is None:
                groups[determinant] = (index, dependent)
            elif first[1] != dependent:
                value_conflicts.append(
                    FDViolation(
                        kind="value-conflict",
                        detail=(
                            f"tuples #{first[0]} and #{index} agree on "
                            f"{lhs_sorted}={list(determinant)} but disagree on "
                            f"{rhs_sorted}: {list(first[1])} vs {list(dependent)}"
                        ),
                    )
                )
        return null_determinant + value_conflicts

    def satisfies_fd(self, lhs: AttrSetLike, rhs: AttrSetLike) -> bool:
        return not self.fd_violations(lhs, rhs)

    def key_violations(self, key: Optional[AttrSetLike] = None) -> List[FDViolation]:
        """Violations of a declared key (default: the schema's primary key)."""
        if key is None:
            if self.schema.primary_key is None:
                raise ValueError(f"schema {self.schema.name!r} declares no key")
            key = self.schema.primary_key
        return self.fd_violations(key, set(self.schema.attributes))

    def satisfies_key(self, key: Optional[AttrSetLike] = None) -> bool:
        return not self.key_violations(key)

    # ------------------------------------------------------------------
    # Pretty-printing (used by the examples)
    # ------------------------------------------------------------------
    def to_table(self, max_rows: Optional[int] = None) -> str:
        """ASCII rendering in the style of Figure 2 of the paper."""
        attributes = list(self.schema.attributes)
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        rendered_rows = [
            ["NULL" if is_null(row.get_value(attribute)) else str(row.get_value(attribute)) for attribute in attributes]
            for row in rows
        ]
        widths = [len(attribute) for attribute in attributes]
        for rendered in rendered_rows:
            for column, cell in enumerate(rendered):
                widths[column] = max(widths[column], len(cell))
        header = " | ".join(attribute.ljust(widths[i]) for i, attribute in enumerate(attributes))
        separator = "-+-".join("-" * width for width in widths)
        lines = [f"{self.schema.name}", header, separator]
        for rendered in rendered_rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(rendered)))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"RelationInstance({self.schema.name}, rows={len(self.rows)})"
