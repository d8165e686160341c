"""The per-tag structural walk, kept as the reference oracle for the scan.

:func:`repro.xmlmodel.shards._scan_structure` settles each top-level child
with one regular-expression match (:func:`~repro.xmlmodel.shards._child_pattern`)
and walks only the children that match fails on.  :func:`walk_structure`
is the scan it replaced: one Python step per tag over the whole content.
``tests/property/test_shard_scan_property.py`` and
``tests/xmlmodel/test_shards.py`` pin the two answer for answer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.xmlmodel.events import (
    ATTR,
    START,
    _ATTR_RE,
    _END_TAG_RE,
    _NAME_RE,
    _skip_string_misc,
    _skip_string_prolog,
    Event,
)
from repro.xmlmodel.parser import XMLSyntaxError, expand_entities
from repro.xmlmodel.shards import _START_TAG_RE


def walk_structure(
    text: str,
) -> Optional[Tuple[str, Tuple[Event, ...], int, int, List[int]]]:
    """One pass over ``text`` locating the root and its top-level children.

    Returns ``(root_tag, prologue_events, content_start, content_end,
    child_offsets)`` or ``None`` when the input cannot be sliced with
    confidence (the serial tokenizer then owns both the answer and any
    error message).
    """
    length = len(text)
    find = text.find
    startswith = text.startswith
    try:
        pos = _skip_string_prolog(text)
    except XMLSyntaxError:
        return None
    if pos >= length or text[pos] != "<":
        return None

    # --- the root start tag -------------------------------------------
    match = _NAME_RE.match(text, pos + 1)
    if match is None or match.start() != pos + 1:
        return None
    root_tag = match.group()
    pos = match.end()
    events: List[Event] = [Event(START, root_tag)]
    while True:
        match = _ATTR_RE.match(text, pos)
        if match is not None:
            raw = match.group(2)
            if raw is None:
                raw = match.group(3)
            events.append(
                Event(ATTR, match.group(1), expand_entities(raw) if "&" in raw else raw)
            )
            pos = match.end()
            continue
        while pos < length and text[pos].isspace():
            pos += 1
        if pos >= length or text[pos] != ">":
            # Self-closing (childless) root, or a malformed start tag whose
            # error message the serial tokenizer should produce.
            return None
        pos += 1
        break
    content_start = pos

    # --- the content: find every top-level child element --------------
    child_offsets: List[int] = []
    depth = 0
    while True:
        lt = find("<", pos)
        if lt < 0 or lt + 1 >= length:
            return None  # unterminated root element
        pos = lt
        if startswith("</", pos):
            if depth == 0:
                content_end = pos
                break
            gt = find(">", pos)
            if gt < 0:
                return None
            depth -= 1
            pos = gt + 1
            continue
        if startswith("<!--", pos):
            end = find("-->", pos)
            if end < 0:
                return None
            pos = end + 3
            continue
        if startswith("<![CDATA[", pos):
            end = find("]]>", pos)
            if end < 0:
                return None
            pos = end + 3
            continue
        if startswith("<?", pos):
            end = find("?>", pos)
            if end < 0:
                return None
            pos = end + 2
            continue
        # An element start tag.  ``<!`` constructs other than the
        # comment/CDATA handled above parse as elements whose name starts
        # with ``!`` in the tokenizer — structurally too surprising to
        # slice through, so bail to the serial plane for those.  The whole
        # tag (name, quoted attributes, ``>`` / ``/>``) matches in one
        # regex pass; anything it rejects falls back to the serial plane,
        # whose error messages stay canonical.
        if text[pos + 1] == "!":
            return None
        match = _START_TAG_RE.match(text, pos + 1)
        if match is None:
            return None
        if depth == 0:
            child_offsets.append(pos)
        pos = match.end()
        if match.group(1) != "/":
            depth += 1

    # --- the root end tag and the epilog ------------------------------
    match = _END_TAG_RE.match(text, content_end + 2)
    if match is None or match.group(1) != root_tag:
        return None
    try:
        pos = _skip_string_misc(text, match.end())
    except XMLSyntaxError:
        return None
    if pos < length:
        return None  # content after the root element
    return root_tag, tuple(events), content_start, content_end, child_offsets
