"""The DOM front end: XML text to :class:`~repro.xmlmodel.tree.XMLTree`.

:func:`parse_document` is the event tokenizer of
:mod:`repro.xmlmodel.events` feeding
:func:`~repro.xmlmodel.events.tree_from_events`, so the DOM and every
streaming plane read documents through one front end, with one backend
routing (``auto``) and one set of errors.
The library builds its own tree (instead of wrapping ``xml.etree``) so
that the resulting model is exactly the paper's: attribute nodes are
first-class, node identities are assigned in document order, and
whitespace handling is explicit.  The supported subset is the one needed
for data exchange documents:

* elements with attributes, text and nested elements;
* XML declarations (``<?xml ...?>``), processing instructions and comments
  (all skipped);
* ``<!DOCTYPE ...>`` declarations (skipped, including internal subsets);
* CDATA sections;
* the five predefined entities plus decimal / hexadecimal character
  references.

This module also owns what every tokenizer shares: :exc:`XMLSyntaxError`
and :func:`expand_entities`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.xmlmodel.tree import XMLTree


class XMLSyntaxError(ValueError):
    """Raised when the input is not well-formed (for the supported subset)."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # Pickled by its constructor arguments, so the error crosses a
        # process boundary (a shard worker) intact.
        return type(self), (self.message, self.position)

    def shifted(self, offset: int) -> "XMLSyntaxError":
        """The same error ``offset`` characters further into the input."""
        return type(self)(self.message, self.position + offset)


_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


def expand_entities(raw: str) -> str:
    """Expand predefined entities and character references in ``raw``.

    Unknown entities and stray ``&`` characters are kept literally.  Every
    tokenizer backend shares this function, so all of them produce
    byte-identical character data.
    """
    if "&" not in raw:
        return raw
    result: List[str] = []
    i = 0
    while i < len(raw):
        char = raw[i]
        if char != "&":
            result.append(char)
            i += 1
            continue
        end = raw.find(";", i)
        if end < 0:
            result.append(char)
            i += 1
            continue
        entity = raw[i + 1 : end]
        expansion = _expand_entity(entity)
        if expansion is None:
            result.append(raw[i : end + 1])
        else:
            result.append(expansion)
        i = end + 1
    return "".join(result)


def parse_document(source: str, strip_whitespace: bool = True) -> XMLTree:
    """Parse an XML string into an :class:`XMLTree`.

    ``strip_whitespace`` drops text nodes that consist solely of whitespace
    (the usual behaviour wanted for data-centric documents such as the ones
    the paper shreds into relations).  The tree is built iteratively, so
    nesting depth is bounded by memory, not by the recursion limit.
    """
    # Function-local: the tokenizer modules import XMLSyntaxError from here.
    from repro.xmlmodel.events import iter_events, tree_from_events

    return tree_from_events(iter_events(source, strip_whitespace=strip_whitespace))


def _expand_entity(entity: str) -> Optional[str]:
    if entity in _PREDEFINED_ENTITIES:
        return _PREDEFINED_ENTITIES[entity]
    if entity.startswith("#x") or entity.startswith("#X"):
        try:
            return chr(int(entity[2:], 16))
        except ValueError:
            return None
    if entity.startswith("#"):
        try:
            return chr(int(entity[1:]))
        except ValueError:
            return None
    return None
