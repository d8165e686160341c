"""Relation and database schemas.

A :class:`RelationSchema` is a named, ordered list of attribute names plus an
optional set of declared keys (each a set of attributes).  A
:class:`DatabaseSchema` is a named collection of relation schemas — the
``R = (R1, ..., Rn)`` of Definition 2.2.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

AttrSetLike = Union[str, Iterable[str]]


def attr_set(attributes: AttrSetLike) -> FrozenSet[str]:
    """Coerce a string or iterable of strings into a frozenset of attributes."""
    if isinstance(attributes, str):
        return frozenset([attributes])
    return frozenset(attributes)


class RelationSchema:
    """A relation schema ``R(A1, ..., An)`` with optional declared keys."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        keys: Iterable[AttrSetLike] = (),
    ) -> None:
        if not name:
            raise ValueError("a relation schema needs a name")
        seen = set()
        ordered: List[str] = []
        for attribute in attributes:
            if attribute in seen:
                raise ValueError(f"duplicate attribute {attribute!r} in schema {name!r}")
            seen.add(attribute)
            ordered.append(attribute)
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(ordered)
        self.attribute_set: FrozenSet[str] = frozenset(ordered)
        self.keys: List[FrozenSet[str]] = []
        for key in keys:
            self.add_key(key)

    # ------------------------------------------------------------------
    def add_key(self, key: AttrSetLike) -> FrozenSet[str]:
        """Declare a key (a set of attributes of this schema)."""
        key_attrs = attr_set(key)
        missing = key_attrs - set(self.attributes)
        if missing:
            raise ValueError(
                f"key {sorted(key_attrs)} references attributes {sorted(missing)} "
                f"absent from schema {self.name!r}"
            )
        if key_attrs not in self.keys:
            self.keys.append(key_attrs)
        return key_attrs

    @property
    def primary_key(self) -> Optional[FrozenSet[str]]:
        """The first declared key, if any."""
        return self.keys[0] if self.keys else None

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self.attributes

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __contains__(self, attribute: str) -> bool:
        return self.has_attribute(attribute)

    def __iter__(self) -> Iterator[str]:
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and set(self.keys) == set(other.keys)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:
        keys = ", ".join("{" + ", ".join(sorted(key)) + "}" for key in self.keys)
        rendered_keys = f" keys=[{keys}]" if keys else ""
        return f"RelationSchema({self.name}({', '.join(self.attributes)}){rendered_keys})"

    def describe(self) -> str:
        """Human-readable one-line description, keys underlined-ish."""
        parts = []
        primary = self.primary_key or frozenset()
        for attribute in self.attributes:
            parts.append(f"{attribute}*" if attribute in primary else attribute)
        return f"{self.name}({', '.join(parts)})"


class DatabaseSchema:
    """A collection of relation schemas, addressable by name."""

    def __init__(self, relations: Iterable[RelationSchema] = (), name: str = "R") -> None:
        self.name = name
        self._relations: Dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: RelationSchema) -> RelationSchema:
        if relation.name in self._relations:
            raise ValueError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation
        return relation

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r} in schema {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> List[str]:
        return list(self._relations)

    def __repr__(self) -> str:
        return f"DatabaseSchema({self.name!r}, {list(self._relations)})"

    def describe(self) -> str:
        return "\n".join(relation.describe() for relation in self)
