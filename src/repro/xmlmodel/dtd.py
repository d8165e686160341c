"""A small DTD subsystem: parsing, validation and constraint extraction.

The paper deliberately keeps keys *orthogonal* to typing (DTDs / XML Schema
types are ignored by the propagation algorithms), but documents being
exchanged usually do come with a DTD, and the related CPI approach
[Lee & Chu, ER 2000] derives relational constraints from it.  This module
provides that companion substrate:

* :func:`parse_dtd` — parse ``<!ELEMENT …>`` and ``<!ATTLIST …>``
  declarations (content models are kept as token lists; the validator checks
  child-name membership and attribute constraints rather than full regular
  expression conformance, which the propagation framework never needs);
* :meth:`DTD.validate` — report violations of a document against the DTD
  (unknown elements, undeclared/missing/fixed attributes, duplicate IDs,
  dangling IDREFs, unexpected children);
* :func:`keys_from_dtd` — the CPI-style bridge: every ``ID`` attribute gives
  an absolute XML key ``(., (//element, {@attr}))`` of the class ``K@``;
* :meth:`DTD.required_attributes` — ``#REQUIRED`` attributes, i.e. the
  existence facts that complement the ``exist`` test of Fig. 5.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.keys.key import XMLKey
from repro.xmlmodel.nodes import ElementNode
from repro.xmlmodel.tree import XMLTree


class DTDSyntaxError(ValueError):
    """Raised when a DTD declaration cannot be parsed."""


@dataclass(frozen=True)
class AttributeDecl:
    """One attribute declaration of an ``<!ATTLIST …>``."""

    element: str
    name: str
    attr_type: str  # CDATA, ID, IDREF, IDREFS, NMTOKEN, enumeration "(a|b)"
    default: str  # "#REQUIRED", "#IMPLIED", "#FIXED", or a literal default

    @property
    def is_required(self) -> bool:
        return self.default == "#REQUIRED" or self.is_fixed

    @property
    def is_fixed(self) -> bool:
        return self.default.startswith("#FIXED")

    @property
    def fixed_value(self) -> Optional[str]:
        if not self.is_fixed:
            return None
        remainder = self.default[len("#FIXED") :].strip()
        return remainder.strip("'\"") if remainder else None

    @property
    def is_id(self) -> bool:
        return self.attr_type == "ID"

    @property
    def is_idref(self) -> bool:
        return self.attr_type in {"IDREF", "IDREFS"}


@dataclass
class ElementDecl:
    """One ``<!ELEMENT …>`` declaration."""

    name: str
    content_model: str  # raw content model text, e.g. "(title, chapter*)"
    _allowed: Optional[FrozenSet[str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def is_empty(self) -> bool:
        return self.content_model.upper() == "EMPTY"

    @property
    def is_any(self) -> bool:
        return self.content_model.upper() == "ANY"

    @property
    def allows_text(self) -> bool:
        return "#PCDATA" in self.content_model or self.is_any

    def allowed_children(self) -> FrozenSet[str]:
        """Child element names mentioned in the content model (cached)."""
        cached = self._allowed
        if cached is not None:
            return cached
        if self.is_empty:
            cached = frozenset()
        else:
            model = self.content_model.replace("#PCDATA", " ")
            names = re.findall(r"[A-Za-z_][\w.\-]*", model)
            cached = frozenset(
                name for name in names if name.upper() not in {"EMPTY", "ANY"}
            )
        self._allowed = cached
        return cached


@dataclass(frozen=True)
class DTDViolation:
    """A single validation problem."""

    kind: str
    detail: str
    node_id: Optional[int] = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class DTD:
    """A parsed DTD: element and attribute declarations."""

    elements: Dict[str, ElementDecl] = field(default_factory=dict)
    attributes: Dict[Tuple[str, str], AttributeDecl] = field(default_factory=dict)
    root_name: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def attributes_of(self, element: str) -> List[AttributeDecl]:
        return [decl for (owner, _), decl in self.attributes.items() if owner == element]

    def required_attributes(self, element: Optional[str] = None) -> List[AttributeDecl]:
        """All ``#REQUIRED`` / ``#FIXED`` attributes (existence facts)."""
        decls = self.attributes.values()
        return [
            decl
            for decl in decls
            if decl.is_required and (element is None or decl.element == element)
        ]

    def id_attributes(self) -> List[AttributeDecl]:
        return [decl for decl in self.attributes.values() if decl.is_id]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, tree: XMLTree) -> List[DTDViolation]:
        """Validate a document; returns the (possibly empty) violation list."""
        violations: List[DTDViolation] = []
        seen_ids: Dict[str, int] = {}
        referenced_ids: List[Tuple[str, Optional[int]]] = []

        if self.root_name and tree.root.label != self.root_name:
            violations.append(
                DTDViolation(
                    kind="wrong-root",
                    detail=f"document root is <{tree.root.label}>, DTD declares <{self.root_name}>",
                    node_id=tree.root.node_id,
                )
            )

        for element in tree.iter_elements():
            decl = self.elements.get(element.label)
            if decl is None:
                violations.append(
                    DTDViolation(
                        kind="undeclared-element",
                        detail=f"element <{element.label}> is not declared",
                        node_id=element.node_id,
                    )
                )
                continue
            violations.extend(self._validate_children(element, decl))
            violations.extend(
                self._validate_attributes(element, seen_ids, referenced_ids)
            )

        for value, node_id in referenced_ids:
            if value not in seen_ids:
                violations.append(
                    DTDViolation(
                        kind="dangling-idref",
                        detail=f"IDREF value {value!r} does not match any ID in the document",
                        node_id=node_id,
                    )
                )
        return violations

    def is_valid(self, tree: XMLTree) -> bool:
        return not self.validate(tree)

    def _validate_children(self, element: ElementNode, decl: ElementDecl) -> List[DTDViolation]:
        violations: List[DTDViolation] = []
        allowed = decl.allowed_children()
        for child in element.children:
            if child.is_text():
                if child.text.strip() and not decl.allows_text:  # type: ignore[attr-defined]
                    violations.append(
                        DTDViolation(
                            kind="unexpected-text",
                            detail=f"element <{element.label}> does not allow character data",
                            node_id=element.node_id,
                        )
                    )
                continue
            if decl.is_any:
                continue
            if child.label not in allowed:
                violations.append(
                    DTDViolation(
                        kind="unexpected-child",
                        detail=(
                            f"element <{element.label}> does not allow child <{child.label}> "
                            f"(content model: {decl.content_model})"
                        ),
                        node_id=child.node_id,
                    )
                )
        return violations

    def _validate_attributes(
        self,
        element: ElementNode,
        seen_ids: Dict[str, int],
        referenced_ids: List[Tuple[str, Optional[int]]],
    ) -> List[DTDViolation]:
        violations: List[DTDViolation] = []
        declared = {decl.name: decl for decl in self.attributes_of(element.label)}
        for attr_node in element.attributes.values():
            decl = declared.get(attr_node.name)
            if decl is None:
                violations.append(
                    DTDViolation(
                        kind="undeclared-attribute",
                        detail=f"attribute @{attr_node.name} of <{element.label}> is not declared",
                        node_id=element.node_id,
                    )
                )
                continue
            if decl.is_fixed and decl.fixed_value is not None and attr_node.value != decl.fixed_value:
                violations.append(
                    DTDViolation(
                        kind="fixed-attribute-mismatch",
                        detail=(
                            f"attribute @{attr_node.name} of <{element.label}> must be "
                            f"{decl.fixed_value!r}, found {attr_node.value!r}"
                        ),
                        node_id=element.node_id,
                    )
                )
            if decl.is_id:
                if attr_node.value in seen_ids:
                    violations.append(
                        DTDViolation(
                            kind="duplicate-id",
                            detail=f"ID value {attr_node.value!r} is used more than once",
                            node_id=element.node_id,
                        )
                    )
                else:
                    seen_ids[attr_node.value] = element.node_id or -1
            if decl.is_idref:
                for token in attr_node.value.split():
                    referenced_ids.append((token, element.node_id))
        for name, decl in declared.items():
            if decl.is_required and element.attribute(name) is None:
                violations.append(
                    DTDViolation(
                        kind="missing-required-attribute",
                        detail=f"element <{element.label}> lacks required attribute @{name}",
                        node_id=element.node_id,
                    )
                )
        return violations


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_ELEMENT_RE = re.compile(r"<!ELEMENT\s+(?P<name>[\w.\-]+)\s+(?P<model>.+?)>", re.DOTALL)
# A quoted default value may hold ">" (only "<" and "&" are barred from
# it); each body unit is atomic, so a run of quotes cannot backtrack.
_ATTLIST_RE = re.compile(
    r"<!ATTLIST\s+(?P<element>[\w.\-]+)\s+(?P<body>(?>\"[^\"]*\"|'[^']*'|[^>])+?)>", re.DOTALL
)
_ATTDEF_RE = re.compile(
    r"(?P<name>[\w.\-]+)\s+(?P<type>CDATA|ID|IDREFS|IDREF|NMTOKENS|NMTOKEN|ENTITY|ENTITIES|\([^)]*\))\s+"
    r"(?P<default>#REQUIRED|#IMPLIED|#FIXED\s+(\"[^\"]*\"|'[^']*')|\"[^\"]*\"|'[^']*')",
    re.DOTALL,
)


def parse_dtd(source: str, root_name: Optional[str] = None) -> DTD:
    """Parse the ``<!ELEMENT>`` / ``<!ATTLIST>`` declarations of a DTD.

    A declaration that runs into the next one (its ``>`` is missing) or an
    ATTLIST holding text no attribute definition reads raises
    :class:`DTDSyntaxError` rather than be misread.
    """
    without_comments = re.sub(r"<!--.*?-->", "", source, flags=re.DOTALL)
    dtd = DTD(root_name=root_name)
    for match in _ELEMENT_RE.finditer(without_comments):
        name = match.group("name")
        model = match.group("model").strip()
        if "<" in model:
            raise DTDSyntaxError(f"ELEMENT {name}: declaration is not closed by '>'")
        dtd.elements[name] = ElementDecl(name=name, content_model=model)
        if dtd.root_name is None and root_name is None:
            dtd.root_name = name  # first declared element, the usual convention
    for match in _ATTLIST_RE.finditer(without_comments):
        element = match.group("element")
        body = match.group("body")
        if "<" in body:
            raise DTDSyntaxError(f"ATTLIST {element}: declaration is not closed by '>'")
        unread = _ATTDEF_RE.sub("", body).strip()
        if unread:
            raise DTDSyntaxError(f"ATTLIST {element}: cannot read {unread!r}")
        for attr_match in _ATTDEF_RE.finditer(body):
            decl = AttributeDecl(
                element=element,
                name=attr_match.group("name"),
                attr_type=attr_match.group("type").strip(),
                default=" ".join(attr_match.group("default").split()),
            )
            dtd.attributes[(element, decl.name)] = decl
    if not dtd.elements and not dtd.attributes:
        raise DTDSyntaxError("no ELEMENT or ATTLIST declarations found")
    return dtd


# ----------------------------------------------------------------------
# The CPI-style bridge to XML keys
# ----------------------------------------------------------------------
def keys_from_dtd(dtd: DTD) -> List[XMLKey]:
    """Derive ``K@`` keys from a DTD (the bridge to [Lee & Chu, ER 2000]).

    Every ``ID`` attribute is unique document-wide, which is exactly the
    absolute key ``(., (//element, {@attr}))``; the derived keys can be fed
    straight into the propagation algorithms (possibly merged with keys
    stated by the data provider).
    """
    keys: List[XMLKey] = []
    for decl in dtd.id_attributes():
        keys.append(
            XMLKey(".", f"//{decl.element}", {decl.name}, name=f"dtd_id_{decl.element}_{decl.name}")
        )
    return keys


# ----------------------------------------------------------------------
# Validate-while-shredding: the streaming DTD validator
# ----------------------------------------------------------------------
class _ValidatorFrame:
    """Per-open-element state of :class:`DTDStreamValidator`."""

    __slots__ = (
        "label",
        "decl",
        "node_id",
        "seq",
        "own",
        "child_viols",
        "attr_viols",
        "attrs",
        "attrs_done",
    )

    def __init__(self, label: str, decl: Optional[ElementDecl], node_id: int, seq: int):
        self.label = label
        self.decl = decl
        self.node_id = node_id
        self.seq = seq
        self.own: List[DTDViolation] = []
        self.child_viols: List[DTDViolation] = []
        self.attr_viols: List[DTDViolation] = []
        self.attrs: Dict[str, str] = {}
        self.attrs_done = False


class DTDStreamValidator:
    """Run the :meth:`DTD.validate` checks over an event stream.

    Feeding the event stream of a document (``iter_events``) and calling
    :meth:`finish` yields *exactly* the violation list :meth:`DTD.validate`
    produces on the parsed tree — same kinds, same detail strings, same
    node ids, same order — without materializing a DOM.  This is the
    validate-while-shredding plane: the checker/shredder pass and the DTD
    validation share one tokenization.

    Order parity works as follows: the DOM validator walks elements in
    pre-order, emitting each element's child violations then its attribute
    violations as one block.  The stream sees child violations as they
    happen and finishes an element's attribute section at its first
    content event, so blocks complete out of order for nested elements;
    each completed block is therefore buffered with the element's
    pre-order sequence number and the blocks are stitched back into
    pre-order at :meth:`finish`.  Global ID/IDREF state is keyed by the
    attribute-section *finish* times, which occur in pre-order — the same
    order the DOM validator visits them.
    """

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self._frames: List[_ValidatorFrame] = []
        self._blocks: List[Tuple[int, List[DTDViolation]]] = []
        self._next_id = 0
        self._seq = 0
        self._seen_ids: Dict[str, int] = {}
        self._referenced: List[Tuple[str, Optional[int]]] = []
        self._root_violation: Optional[DTDViolation] = None
        self._declared_cache: Dict[str, Dict[str, AttributeDecl]] = {}

    # ------------------------------------------------------------------
    def _declared_for(self, label: str) -> Dict[str, AttributeDecl]:
        cached = self._declared_cache.get(label)
        if cached is None:
            cached = {decl.name: decl for decl in self.dtd.attributes_of(label)}
            self._declared_cache[label] = cached
        return cached

    def _finish_attrs(self, frame: _ValidatorFrame) -> None:
        frame.attrs_done = True
        if frame.decl is None:
            # The DOM validator skips every per-element check of an
            # undeclared element (including ID collection).
            return
        declared = self._declared_for(frame.label)
        out = frame.attr_viols
        for name, value in frame.attrs.items():
            decl = declared.get(name)
            if decl is None:
                out.append(
                    DTDViolation(
                        kind="undeclared-attribute",
                        detail=f"attribute @{name} of <{frame.label}> is not declared",
                        node_id=frame.node_id,
                    )
                )
                continue
            if decl.is_fixed and decl.fixed_value is not None and value != decl.fixed_value:
                out.append(
                    DTDViolation(
                        kind="fixed-attribute-mismatch",
                        detail=(
                            f"attribute @{name} of <{frame.label}> must be "
                            f"{decl.fixed_value!r}, found {value!r}"
                        ),
                        node_id=frame.node_id,
                    )
                )
            if decl.is_id:
                if value in self._seen_ids:
                    out.append(
                        DTDViolation(
                            kind="duplicate-id",
                            detail=f"ID value {value!r} is used more than once",
                            node_id=frame.node_id,
                        )
                    )
                else:
                    self._seen_ids[value] = frame.node_id or -1
            if decl.is_idref:
                for token in value.split():
                    self._referenced.append((token, frame.node_id))
        for name, decl in declared.items():
            if decl.is_required and name not in frame.attrs:
                out.append(
                    DTDViolation(
                        kind="missing-required-attribute",
                        detail=f"element <{frame.label}> lacks required attribute @{name}",
                        node_id=frame.node_id,
                    )
                )

    # ------------------------------------------------------------------
    def feed(self, event) -> None:
        kind = event.kind
        frames = self._frames
        if kind == "start":
            node_id = self._next_id
            self._next_id += 1
            seq = self._seq
            self._seq += 1
            tag = event.name
            if frames:
                parent = frames[-1]
                if not parent.attrs_done:
                    self._finish_attrs(parent)
                pdecl = parent.decl
                if (
                    pdecl is not None
                    and not pdecl.is_any
                    and tag not in pdecl.allowed_children()
                ):
                    parent.child_viols.append(
                        DTDViolation(
                            kind="unexpected-child",
                            detail=(
                                f"element <{parent.label}> does not allow child <{tag}> "
                                f"(content model: {pdecl.content_model})"
                            ),
                            node_id=node_id,
                        )
                    )
            elif self.dtd.root_name and tag != self.dtd.root_name:
                self._root_violation = DTDViolation(
                    kind="wrong-root",
                    detail=(
                        f"document root is <{tag}>, DTD declares <{self.dtd.root_name}>"
                    ),
                    node_id=node_id,
                )
            decl = self.dtd.elements.get(tag)
            frame = _ValidatorFrame(tag, decl, node_id, seq)
            if decl is None:
                frame.own.append(
                    DTDViolation(
                        kind="undeclared-element",
                        detail=f"element <{tag}> is not declared",
                        node_id=node_id,
                    )
                )
            frames.append(frame)
        elif kind == "attr":
            frame = frames[-1]
            if event.name not in frame.attrs:
                self._next_id += 1  # repeated names replace in place, no new id
            frame.attrs[event.name] = event.value
        elif kind == "text":
            frame = frames[-1]
            if not frame.attrs_done:
                self._finish_attrs(frame)
            self._next_id += 1
            decl = frame.decl
            if decl is not None and event.value.strip() and not decl.allows_text:
                frame.child_viols.append(
                    DTDViolation(
                        kind="unexpected-text",
                        detail=f"element <{frame.label}> does not allow character data",
                        node_id=frame.node_id,
                    )
                )
        elif kind == "end":
            frame = frames.pop()
            if not frame.attrs_done:
                self._finish_attrs(frame)
            block = frame.own + frame.child_viols + frame.attr_viols
            if block:
                self._blocks.append((frame.seq, block))
        elif kind == "skip":
            # Defensive: validation passes never run with a skip set (a
            # skipped subtree is by definition unvalidated), but keep the
            # node-id accounting coherent if one ever arrives.
            frame = frames[-1]
            if not frame.attrs_done:
                self._finish_attrs(frame)
            self._next_id += event.value

    # ------------------------------------------------------------------
    def finish(self) -> List[DTDViolation]:
        """Close the pass and return the violations in DOM-validator order."""
        violations: List[DTDViolation] = []
        if self._root_violation is not None:
            violations.append(self._root_violation)
        self._blocks.sort(key=lambda item: item[0])
        for _, block in self._blocks:
            violations.extend(block)
        for value, node_id in self._referenced:
            if value not in self._seen_ids:
                violations.append(
                    DTDViolation(
                        kind="dangling-idref",
                        detail=f"IDREF value {value!r} does not match any ID in the document",
                        node_id=node_id,
                    )
                )
        return violations


def stream_dtd_violations(source, dtd: DTD) -> List[DTDViolation]:
    """Validate ``source`` against ``dtd`` in one streaming pass.

    Validation is single-pass by nature, so this always runs the serial
    arm of :func:`repro.parallel.run_pipeline`, whatever ``REPRO_JOBS``
    says.
    """
    from repro.parallel import run_pipeline

    return run_pipeline(source, dtd=dtd, jobs=1).dtd_violations


def existence_facts(dtd: DTD) -> Dict[str, Set[str]]:
    """Attributes guaranteed to exist on every occurrence of an element.

    These are the ``#REQUIRED`` (and ``#FIXED``) attributes — the same kind
    of fact the ``exist`` test of Fig. 5 extracts from keys.
    """
    facts: Dict[str, Set[str]] = {}
    for decl in dtd.required_attributes():
        facts.setdefault(decl.element, set()).add(decl.name)
    return facts
