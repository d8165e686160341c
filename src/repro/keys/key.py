"""The :class:`XMLKey` value type and its textual syntax.

Following the notation of [Buneman et al., WWW'01] adopted by the paper, a
key is written::

    (C, (T, {@a1, ..., @ak}))

optionally prefixed by a name, e.g.::

    K2 = (//book, (chapter, {@number}))

The context ``C`` and target ``T`` are path expressions; the key paths are
restricted to attributes (the class :math:`K^@` of the paper).  A key with an
empty attribute set expresses "at most one ``T`` node per ``C`` node", e.g.
``(//book, (title, {}))`` — every book has at most one title.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.xmlmodel.paths import PathExpression, PathLike, concat, parse_path

AttrLike = Union[str, Iterable[str]]


def _normalise_attributes(attributes: AttrLike) -> FrozenSet[str]:
    if isinstance(attributes, str):
        attributes = [attributes]
    return frozenset(name.lstrip("@") for name in attributes)


class XMLKey:
    """An XML key ``(context, (target, {@a1, ..., @ak}))``.

    Instances are immutable and hashable so that sets of keys behave as the
    mathematical sets :math:`Σ` of the paper.
    """

    __slots__ = (
        "name", "context", "target", "attributes", "context_target", "text",
        "_sorted_attributes", "_hash",
    )

    def __init__(
        self,
        context: PathLike,
        target: PathLike,
        attributes: AttrLike = (),
        name: Optional[str] = None,
    ) -> None:
        self.context = PathExpression.of(context)
        self.target = PathExpression.of(target)
        self.attributes: FrozenSet[str] = _normalise_attributes(attributes)
        self.name = name
        #: The concatenation ``context/target`` (the scope of the key),
        #: precomputed: the implication engine's ``exist`` test reads it for
        #: every key on every probe.
        self.context_target: PathExpression = concat(self.context, self.target)
        self._hash = hash((self.context, self.target, self.attributes))
        self._sorted_attributes = tuple(sorted(self.attributes))
        # Nothing reassigns a key's fields, so its text is rendered once:
        # violation reports and delta bookkeeping read it per violation.
        attrs = ", ".join(f"@{name}" for name in self._sorted_attributes)
        body = f"({self.context.text}, ({self.target.text}, {{{attrs}}}))"
        #: The concise syntax :func:`parse_key` reads, name prefix included.
        self.text: str = f"{name} = {body}" if name else body

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def is_absolute(self) -> bool:
        """A key is absolute when its context is the empty path (the root)."""
        return self.context.is_epsilon

    @property
    def is_relative(self) -> bool:
        return not self.is_absolute

    @property
    def attribute_list(self) -> List[str]:
        """Sorted attribute names (without the leading ``@``)."""
        return list(self._sorted_attributes)

    @property
    def size(self) -> int:
        """The paper's ``|key|``: number of steps plus number of key paths."""
        return self.context.length + self.target.length + len(self.attributes)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, XMLKey):
            return NotImplemented
        return (
            self.context == other.context
            and self.target == other.target
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"XMLKey({self.text!r})"

    def __str__(self) -> str:
        return self.text

    # ------------------------------------------------------------------
    # Helpers used by the algorithms
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "XMLKey":
        return XMLKey(self.context, self.target, self.attributes, name=name)

    def rebased(self, prefix: PathLike) -> "XMLKey":
        """Return the key with ``prefix`` prepended to its context."""
        return XMLKey(concat(prefix, self.context), self.target, self.attributes, name=self.name)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_key(text: str) -> XMLKey:
    """Parse the concise textual syntax.

    Accepted forms (whitespace is insignificant)::

        (//book, (chapter, {@number}))
        K2 = (//book, (chapter, {@number}))
        (., (//book, {@isbn}))
        (//book, (title, {}))
    """
    raw = text.strip()
    name: Optional[str] = None
    if "=" in raw.split("(", 1)[0]:
        name, raw = raw.split("=", 1)
        name = name.strip()
        raw = raw.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise ValueError(f"malformed key syntax: {text!r}")
    inner = raw[1:-1].strip()
    context_text, remainder = _split_top_level(inner)
    remainder = remainder.strip()
    if not (remainder.startswith("(") and remainder.endswith(")")):
        raise ValueError(f"malformed key body in {text!r}")
    target_text, attr_part = _split_top_level(remainder[1:-1].strip())
    attr_part = attr_part.strip()
    if not (attr_part.startswith("{") and attr_part.endswith("}")):
        raise ValueError(f"malformed key path set in {text!r}")
    attr_body = attr_part[1:-1].strip()
    attributes: Sequence[str]
    if attr_body:
        attributes = [part.strip() for part in attr_body.split(",") if part.strip()]
    else:
        attributes = []
    return XMLKey(parse_path(context_text), parse_path(target_text), attributes, name=name)


def parse_keys(text: str) -> List[XMLKey]:
    """Parse several keys, one per non-empty / non-comment line."""
    keys: List[XMLKey] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        keys.append(parse_key(stripped))
    return keys


def _split_top_level(text: str) -> Tuple[str, str]:
    """Split ``text`` at the first comma that is not nested in () or {}."""
    depth = 0
    for index, char in enumerate(text):
        if char in "({":
            depth += 1
        elif char in ")}":
            depth -= 1
        elif char == "," and depth == 0:
            return text[:index].strip(), text[index + 1 :].strip()
    raise ValueError(f"expected a top-level comma in {text!r}")
