"""The path language ``PL`` of the paper.

Section 2 defines path expressions by the grammar::

    P ::= epsilon | l | P/P | //P

where ``epsilon`` is the empty path, ``l`` a node label, ``/`` concatenation
(child axis) and ``//`` descendant-or-self.  A path expression denotes a set
of label paths; ``n[[P]]`` is the set of nodes reached from node ``n`` by a
path in that set.

This module provides:

* :class:`PathExpression` — an immutable, normalised sequence of steps;
* :func:`parse_path` — parsing of the textual syntax (``"//book/chapter"``,
  ``"@isbn"``, ``""``/``"."`` for epsilon, ...);
* evaluation over the tree model (:meth:`PathExpression.evaluate`);
* language containment (:func:`contains`), the decision procedure needed by
  the key-implication rules (context/target containment, ``exist``);
* concatenation (:func:`concat`) used to compose context and target paths.

Attribute labels (``@name``) are ordinary labels for the purposes of the
language, with one semantic restriction mirroring the XML data model: the
``//`` step only traverses *element* nodes, so an attribute step is never
absorbed by ``//`` during containment checking and attribute nodes have no
descendants during evaluation.

Performance architecture
------------------------

Path values are *interned*: :class:`PathStep` and :class:`PathExpression`
keep process-level pools, so equal values are the same object, hashes are
precomputed once, and equality starts with an identity test.  ``parse_path``
and the pairwise worker behind :func:`concat` are cached on top of the
pools, so paths used as keys (keys of ``Σ``, table-tree paths, the
``contains`` memo) hash and compare in O(1).

Containment is decided by one *iterative* dynamic program over integer
step codes (:func:`contains_codes`, with :func:`encode_steps`): the public
:func:`contains` encodes its two expressions and memoises the verdict in a
bounded cross-call table, and the key-implication engine, which keeps every
path as a tuple of codes, runs the same program under its own memo.  The
per-call recursive procedure it replaced is the reference oracle of the
differential suites and oracle benchmarks,
``tests/xmlmodel/containment_reference.py``.
"""

from __future__ import annotations

import enum
import weakref
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, MutableMapping, Optional, Sequence, Tuple, Union

from repro.xmlmodel.nodes import ElementNode, Node


class StepKind(enum.Enum):
    """Kind of a single step of a path expression."""

    LABEL = "label"
    ATTRIBUTE = "attribute"
    DESCENDANT = "descendant"


class PathStep:
    """One step of a path expression (a label, an attribute, or ``//``).

    Steps are interned: constructing the same ``(kind, name)`` twice yields
    the same object, with its hash precomputed, so step tuples hash and
    compare at pointer speed inside the containment/implication hot path.
    The pool holds weak references, so steps no longer reachable from any
    expression, cache or caller are reclaimed with their last reference.
    """

    __slots__ = ("kind", "name", "_hash", "__weakref__")

    _pool: MutableMapping[Tuple[StepKind, Optional[str]], "PathStep"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, kind: StepKind, name: Optional[str] = None) -> "PathStep":
        key = (kind, name)
        cached = cls._pool.get(key)
        if cached is not None:
            return cached
        if kind is StepKind.DESCENDANT and name is not None:
            raise ValueError("a descendant step carries no name")
        if kind is not StepKind.DESCENDANT and not name:
            raise ValueError("label and attribute steps need a name")
        self = super().__new__(cls)
        self.kind = kind
        self.name = name
        self._hash = hash(key)
        cls._pool[key] = self
        return self

    # Convenience constructors -----------------------------------------
    @staticmethod
    def label(name: str) -> "PathStep":
        if name.startswith("@"):
            return PathStep(StepKind.ATTRIBUTE, name[1:])
        return PathStep(StepKind.LABEL, name)

    @staticmethod
    def attribute(name: str) -> "PathStep":
        return PathStep(StepKind.ATTRIBUTE, name.lstrip("@"))

    @staticmethod
    def descendant() -> "PathStep":
        return PathStep(StepKind.DESCENDANT)

    # Value semantics ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PathStep):
            return NotImplemented
        return self.kind is other.kind and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    # Copy/pickle: reconstruct through __new__ so deserialised steps
    # re-enter the intern pool (preserving the identity invariants).
    def __getnewargs__(self) -> Tuple[StepKind, Optional[str]]:
        return (self.kind, self.name)

    def __copy__(self) -> "PathStep":
        return self

    def __deepcopy__(self, memo: dict) -> "PathStep":
        return self

    def __repr__(self) -> str:
        return f"PathStep({self.text!r})"

    @property
    def text(self) -> str:
        if self.kind is StepKind.DESCENDANT:
            return "//"
        if self.kind is StepKind.ATTRIBUTE:
            return f"@{self.name}"
        return str(self.name)

    def matches_label(self, label: str) -> bool:
        """Does this (non-descendant) step match a concrete node label?"""
        if self.kind is StepKind.LABEL:
            return label == self.name
        if self.kind is StepKind.ATTRIBUTE:
            return label == f"@{self.name}"
        raise ValueError("a descendant step does not match a single label")


PathLike = Union["PathExpression", str, Sequence[PathStep]]


class PathExpression:
    """An immutable, normalised path expression.

    Normalisation collapses adjacent ``//`` steps (``////`` ≡ ``//``), which
    preserves the denoted language and makes equality/hashing meaningful.

    Expressions are interned by their normalised step tuple: equal
    expressions are the same object (so equality is usually an identity
    test) and the hash is computed exactly once per distinct expression.
    The pool holds weak references — an expression lives exactly as long
    as something (a key, a cache entry, a caller) still points at it.
    """

    __slots__ = ("steps", "_hash", "__weakref__")

    _pool: MutableMapping[Tuple[PathStep, ...], "PathExpression"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, steps: Iterable[PathStep] = ()) -> "PathExpression":
        normalised: List[PathStep] = []
        for step in steps:
            if (
                step.kind is StepKind.DESCENDANT
                and normalised
                and normalised[-1].kind is StepKind.DESCENDANT
            ):
                continue
            normalised.append(step)
        key = tuple(normalised)
        cached = cls._pool.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.steps: Tuple[PathStep, ...] = key
        self._hash = hash(key)
        cls._pool[key] = self
        return self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def epsilon() -> "PathExpression":
        return _EPSILON

    @staticmethod
    def of(value: PathLike) -> "PathExpression":
        """Coerce a string / step sequence / expression into an expression."""
        if isinstance(value, PathExpression):
            return value
        if isinstance(value, str):
            return parse_path(value)
        return PathExpression(value)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def is_epsilon(self) -> bool:
        return not self.steps

    @property
    def is_simple(self) -> bool:
        """True when the expression contains no ``//`` step (Def. 2.2)."""
        return all(step.kind is not StepKind.DESCENDANT for step in self.steps)

    @property
    def is_attribute_step(self) -> bool:
        """True when the expression is a single attribute step ``@a``."""
        return len(self.steps) == 1 and self.steps[0].kind is StepKind.ATTRIBUTE

    @property
    def ends_with_attribute(self) -> bool:
        return bool(self.steps) and self.steps[-1].kind is StepKind.ATTRIBUTE

    @property
    def length(self) -> int:
        """Number of steps (the paper's ``|P|``)."""
        return len(self.steps)

    def labels(self) -> List[str]:
        """The concrete labels of a simple expression (raises otherwise)."""
        if not self.is_simple:
            raise ValueError("labels() is only defined for simple paths")
        return [step.text for step in self.steps]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __truediv__(self, other: PathLike) -> "PathExpression":
        return concat(self, other)

    def prefixes(self) -> Iterator[Tuple["PathExpression", "PathExpression"]]:
        """All splits ``(P1, P2)`` with ``self = P1/P2``.

        Used by the target-to-context inference rule of key implication: from
        key ``(C, (P1/P2, S))`` one may derive ``(C/P1, (P2, S))``.
        """
        for cut in range(len(self.steps) + 1):
            yield (
                PathExpression(self.steps[:cut]),
                PathExpression(self.steps[cut:]),
            )

    # ------------------------------------------------------------------
    # Evaluation:  n[[P]]
    # ------------------------------------------------------------------
    def evaluate(self, node: Node) -> List[Node]:
        """Return ``node[[P]]`` — nodes reachable from ``node`` via ``P``.

        The result preserves document order and contains no duplicates.
        """
        results: List[Node] = []
        seen = set()
        for reached in _evaluate_steps(node, self.steps, 0):
            key = id(reached)
            if key not in seen:
                seen.add(key)
                results.append(reached)
        return results

    def matches(self, labels: Sequence[str]) -> bool:
        """Does the concrete label path belong to the language of ``self``?

        ``labels`` is a sequence such as ``["book", "chapter", "@number"]``.
        """
        concrete = PathExpression(PathStep.label(label) for label in labels)
        return contains(self, concrete)

    # ------------------------------------------------------------------
    # Value semantics / rendering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PathExpression):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return self._hash

    # Copy/pickle: reconstruct through __new__ so deserialised expressions
    # re-enter the intern pool (preserving the identity invariants).
    def __getnewargs__(self) -> Tuple[Tuple[PathStep, ...]]:
        return (self.steps,)

    def __copy__(self) -> "PathExpression":
        return self

    def __deepcopy__(self, memo: dict) -> "PathExpression":
        return self

    def __repr__(self) -> str:
        return f"PathExpression({self.text!r})"

    def __str__(self) -> str:
        return self.text

    @property
    def text(self) -> str:
        if not self.steps:
            return "."
        parts: List[str] = []
        for index, step in enumerate(self.steps):
            if step.kind is StepKind.DESCENDANT:
                parts.append("//")
            else:
                if index > 0 and self.steps[index - 1].kind is not StepKind.DESCENDANT:
                    parts.append("/")
                parts.append(step.text)
        return "".join(parts)


_EPSILON = PathExpression(())


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_EPSILON_SPELLINGS = {"", ".", "epsilon", "ε"}


@lru_cache(maxsize=1 << 14)
def parse_path(text: str) -> PathExpression:
    """Parse the textual syntax of path expressions.

    Examples: ``""`` / ``"."`` (epsilon), ``"//book"``, ``"book/chapter"``,
    ``"//book/chapter/@number"``, ``"author/contact"``, ``"//"``.

    Results are cached: expressions are interned anyway, so re-parsing a
    spelling already seen is a pure dictionary hit.
    """
    stripped = text.strip()
    if stripped in _EPSILON_SPELLINGS:
        return PathExpression.epsilon()
    steps: List[PathStep] = []
    i = 0
    length = len(stripped)
    while i < length:
        if stripped.startswith("//", i):
            steps.append(PathStep.descendant())
            i += 2
            continue
        if stripped[i] == "/":
            i += 1
            continue
        j = i
        while j < length and stripped[j] != "/":
            j += 1
        name = stripped[i:j].strip()
        if not name:
            raise ValueError(f"empty step in path expression {text!r}")
        steps.append(PathStep.label(name))
        i = j
    return PathExpression(steps)


# ----------------------------------------------------------------------
# Concatenation
# ----------------------------------------------------------------------
def concat(*parts: PathLike) -> PathExpression:
    """Concatenate path expressions: ``concat(P, Q) = P/Q``.

    Folds over a cached pairwise worker: the implication engine concatenates
    the same (context, target) pairs over and over, and interning makes the
    resulting expressions cheap cache keys.
    """
    result = _EPSILON
    for part in parts:
        result = _concat2(result, PathExpression.of(part))
    return result


@lru_cache(maxsize=1 << 15)
def _concat2(left: PathExpression, right: PathExpression) -> PathExpression:
    if left.is_epsilon:
        return right
    if right.is_epsilon:
        return left
    return PathExpression(left.steps + right.steps)


# ----------------------------------------------------------------------
# Evaluation helpers
# ----------------------------------------------------------------------
def _evaluate_steps(node: Node, steps: Tuple[PathStep, ...], index: int) -> Iterator[Node]:
    if index == len(steps):
        yield node
        return
    step = steps[index]
    if step.kind is StepKind.DESCENDANT:
        # descendant-or-self over element nodes; attribute/text nodes have
        # only themselves.
        if isinstance(node, ElementNode):
            for descendant in node.iter_descendant_or_self_elements():
                yield from _evaluate_steps(descendant, steps, index + 1)
        else:
            yield from _evaluate_steps(node, steps, index + 1)
        return
    if not isinstance(node, ElementNode):
        return
    if step.kind is StepKind.ATTRIBUTE:
        attr_node = node.attribute(step.name or "")
        if attr_node is not None:
            yield from _evaluate_steps(attr_node, steps, index + 1)
        return
    for child in node.child_elements(step.name):
        yield from _evaluate_steps(child, steps, index + 1)


# ----------------------------------------------------------------------
# Containment
# ----------------------------------------------------------------------
#: Bound on memoised containment verdicts: entries past the bound are
#: recomputed rather than cached, so the table can never grow without bound
#: under adversarial query streams.
CONTAINMENT_CACHE_LIMIT = 1 << 16

_containment_cache: Dict[Tuple[PathExpression, PathExpression], bool] = {}


def contains(covering: PathLike, covered: PathLike) -> bool:
    """Decide ``L(covered) ⊆ L(covering)``.

    The decision procedure is the standard dynamic program for the
    ``{/, //}`` fragment (no wildcards, no branching): a ``//`` step of the
    *covering* expression may absorb any sequence of element labels of the
    covered expression, and a ``//`` step of the covered expression can only
    be covered by a ``//`` step.  The procedure is sound and complete for
    this fragment under an unbounded label alphabet.

    Verdicts are memoised across calls (bounded by
    :data:`CONTAINMENT_CACHE_LIMIT`), so a repeated pair is an O(1) dict
    hit; a miss encodes both expressions and runs :func:`contains_codes`.
    """
    covering_expr = PathExpression.of(covering)
    covered_expr = PathExpression.of(covered)
    key = (covered_expr, covering_expr)
    cached = _containment_cache.get(key)
    if cached is None:
        codes: Dict[PathStep, int] = {}
        cached = contains_codes(
            encode_steps(covering_expr.steps, codes),
            encode_steps(covered_expr.steps, codes),
        )
        if len(_containment_cache) < CONTAINMENT_CACHE_LIMIT:
            _containment_cache[key] = cached
    return cached


def encode_steps(steps: Iterable[PathStep], codes: Dict[PathStep, int]) -> Tuple[int, ...]:
    """The step codes of ``steps`` under the code table ``codes``.

    ``//`` is 0, an element label a positive and an attribute label a
    negative integer; a step the table has not met yet gets the next unused
    magnitude.  Two steps share a code exactly when they are equal, so a
    normalised expression's codes are normalised too (no ``0, 0`` run).
    """
    encoded: List[int] = []
    for step in steps:
        code = codes.get(step)
        if code is None:
            if step.kind is StepKind.DESCENDANT:
                code = 0
            elif step.kind is StepKind.ATTRIBUTE:
                code = -len(codes) - 1
            else:
                code = len(codes) + 1
            codes[step] = code
        encoded.append(code)
    return tuple(encoded)


def join_codes(context: Tuple[int, ...], suffix: Tuple[int, ...]) -> Tuple[int, ...]:
    """``context/suffix`` over step codes, collapsing a ``//``-``//`` junction.

    The codes of two normalised expressions joined this way are exactly the
    codes of their concatenation, since normalisation only collapses
    adjacent ``//`` steps.
    """
    if context and suffix and not context[-1] and not suffix[0]:
        return context + suffix[1:]
    return context + suffix


def contains_codes(covering: Sequence[int], covered: Sequence[int]) -> bool:
    """``L(covered) ⊆ L(covering)`` over step codes (see :func:`encode_steps`).

    Iterative bottom-up DP: ``row[j]`` is the verdict for (suffix of
    ``covered`` from ``i``, suffix of ``covering`` from ``j``); rows are
    filled for ``i = m .. 0``.  Both :func:`contains` and the key-implication
    engine, which keeps its paths as code tuples, decide containment here.
    """
    m = len(covered)
    n = len(covering)
    # Row i = m: the covered expression is exhausted, so epsilon must belong
    # to the remaining covering language (all-// suffix).
    row = [False] * (n + 1)
    row[n] = True
    for j in range(n - 1, -1, -1):
        row[j] = row[j + 1] and not covering[j]
    for i in range(m - 1, -1, -1):
        prev = row
        row = [False] * (n + 1)
        covered_code = covered[i]
        if not covered_code:
            #  L(// P') ⊆ L(// Q')  iff  L(P') ⊆ L(// Q');  a concrete
            #  label cannot cover the arbitrary paths of '//'.
            for j in range(n - 1, -1, -1):
                row[j] = not covering[j] and prev[j]
            continue
        # '//' absorbs element labels (not attribute steps), or matches the
        # empty path and moves on.
        absorbed = covered_code > 0
        for j in range(n - 1, -1, -1):
            covering_code = covering[j]
            if not covering_code:
                row[j] = (absorbed and prev[j]) or row[j + 1]
            else:
                row[j] = covering_code == covered_code and prev[j + 1]
    return row[0]


def clear_containment_cache() -> None:
    """Drop all memoised containment verdicts (cold-start measurements)."""
    _containment_cache.clear()
