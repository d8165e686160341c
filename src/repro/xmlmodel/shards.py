"""Document sharding: cutting a document at top-level anchor boundaries.

The streaming consumers of the data plane (the rule shredder of
:mod:`repro.transform.stream`, the key checker of :mod:`repro.keys.stream`)
do all of their real work *per top-level subtree*: every anchor match and
every context record below the root lives entirely inside one child subtree
of the root element.  That makes the pipeline embarrassingly parallel at
anchor-subtree granularity — provided the document can be cut into
self-contained pieces whose merged results are indistinguishable from one
serial pass.

:func:`split_document` performs that cut.  A structural scan over the
text (reusing the tokenizer's regexes and prolog dialect, so the two can
never disagree about where a construct starts) finds the root element,
its attributes, and the character offset of every top-level child
element.  The scan costs one C-level regular-expression match per
*top-level child*, not a Python step per tag: :func:`_child_pattern`
spells the per-tag walk's grammar for a whole child subtree (text, start
tags with quoted attributes, ``</…>`` close tags) up to
:data:`_CHILD_NESTING` element levels, so wherever it matches it ends
exactly where the walk would.  A child it cannot match — a comment,
CDATA section or processing instruction inside it, deeper nesting, any
malformed tag — takes the per-tag walk (:func:`_walk_child`), which
remains the authority, so the scan's answer is the walk's on every input.
The children are then grouped into contiguous, size-balanced slices.  A
:class:`DocumentShards` value describes the result; it is the one shard
form, holding the decoded text whatever the source's encoding:

* ``prologue_events`` — the root's ``start`` event plus one ``attr`` event
  per root attribute.  Every shard consumer replays these first so its NFA
  stack and node-id counter start exactly where the serial pass would be;
  the prologue consumes node ids ``0 .. prologue_ids - 1``.
* ``slices`` — character ranges that *partition* the root's content.  A
  slice always starts at a top-level child element's ``<`` (text between
  two children trails the preceding slice), so a text run never spans two
  shards and the per-slice event stream is byte-for-byte the serial
  tokenizer's output for that region (:meth:`DocumentShards.shard_events`
  replays it by wrapping the slice in a synthetic root element).
* node-id accounting — event order mirrors ``XMLTree.reindex``
  (Figure 1), so a consumer that counts events while replaying
  ``prologue + slice`` assigns each node its *shard-local* id.  The ids a
  shard consumed are reported back with its results, and the merge step
  rebases local ids to absolute ones by prefix-summing the consumption of
  the preceding shards (ids below ``prologue_ids`` are the root's own and
  are shard-invariant).  Merged ids are therefore identical to the serial
  pass — pinned by ``tests/property/test_parallel_differential.py``.

The scanner is deliberately conservative: any input it cannot slice with
complete confidence (malformed tags, an empty or childless root, trailing
junk) yields ``None`` and the caller falls back to the serial plane, whose
error messages remain canonical.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro import obs
from repro.xmlmodel.accel import resolve_engine
from repro.xmlmodel.events import (
    ATTR,
    END,
    START,
    _ATTR_RE,
    _END_TAG_RE,
    _NAME_RE,
    _route_events,
    _skip_string_misc,
    _skip_string_prolog,
    Event,
    record_tokenizer_call,
)
from repro.xmlmodel.parser import XMLSyntaxError, expand_entities

#: One complete start tag (after its ``<``): name, any number of quoted
#: attributes, then ``>`` or ``/>``.  The character classes are exactly the
#: tokenizer's (``_NAME_RE``/``_ATTR_RE``); quoted values may contain ``<``
#: and ``>``.  Inputs this rejects are left to the serial tokenizer.
_START_TAG_RE = re.compile(
    r"[^\s=<>/?\"']+"  # the element name
    r"(?:\s*[^\s=<>/?\"']+\s*=\s*(?:\"[^\"]*\"|'[^']*'))*"  # attributes
    r"\s*(/?)>"
)

#: Element levels below a top-level child that :func:`_child_pattern`
#: spells out; a deeper child takes the per-tag walk.
_CHILD_NESTING = 12


@functools.lru_cache(maxsize=None)
def _child_pattern() -> "re.Pattern[str]":
    """One top-level child subtree, from its ``<`` past its closing ``>``.

    The per-tag walk of :func:`_walk_child` as a regular expression over a
    comment-free subtree of bounded depth: text runs to the next ``<``; a
    start tag is :data:`_START_TAG_RE`; a non-empty element's content
    nests one level deeper and ends at ``</`` plus everything up to the
    next ``>`` (the walk does not compare close names either).  Every
    quantifier is possessive, so a match commits to the greedy reading —
    the one :data:`_START_TAG_RE` returns first — and a match ends exactly
    where the walk would end the child.  Anything outside this grammar
    (``<!``, ``<?``, deeper nesting, a malformed tag, no close) fails the
    match and the caller walks the child instead.  Compiled on first use:
    commands that never split a document do not pay for it.
    """
    name = r"[^\s=<>/?\"']++"
    head = (
        name
        + r"(?:\s*+" + name + r"\s*+=\s*+(?:\"[^\"]*+\"|'[^']*+'))*+"
        + r"\s*+"
    )
    content = r"(?:[^<]++|<(?!!)" + head + r"/>)*+"
    for _ in range(_CHILD_NESTING):
        content = (
            r"(?:[^<]++|<(?!!)" + head + r"(?:/>|>" + content + r"</[^>]*+>))*+"
        )
    return re.compile(r"<(?!!)" + head + r"(?:/>|>" + content + r"</[^>]*+>)")


@dataclass(frozen=True)
class ShardSlice:
    """One contiguous character range of the root's content."""

    start: int
    end: int
    #: Number of complete top-level child subtrees inside the range.
    subtrees: int


@dataclass(frozen=True)
class DocumentShards:
    """A document cut into independently replayable event slices."""

    text: str
    root_tag: str
    prologue_events: Tuple[Event, ...]
    #: Node ids consumed by the prologue: the root element plus one id per
    #: root attribute (ids ``0 .. prologue_ids - 1`` are shard-invariant).
    prologue_ids: int
    slices: Tuple[ShardSlice, ...]
    content_start: int
    content_end: int

    def __len__(self) -> int:
        return len(self.slices)

    def slice_text(self, index: int) -> str:
        """The raw character range of one slice (no synthetic wrapper)."""
        piece = self.slices[index]
        return self.text[piece.start:piece.end]

    def shard_events(
        self, index: int, strip_whitespace: bool = True, skip=None
    ) -> Iterator[Event]:
        """Replay one slice as events (synthetic root start/end dropped).

        The yielded stream is exactly the sub-sequence of the serial event
        stream between this slice's boundaries: the synthetic wrapper only
        provides the tokenizer with a well-formed document.  A syntax
        error reads at its offset in the document.  ``skip`` threads a
        :class:`~repro.xmlmodel.static.SkipSet` to the tokenizer, as in
        :func:`~repro.xmlmodel.events.iter_events`.
        """
        try:
            yield from fragment_events(
                self.root_tag,
                self.slice_text(index),
                strip_whitespace=strip_whitespace,
                skip=skip,
            )
        except XMLSyntaxError as error:
            raise error.shifted(self.slices[index].start) from None

    def replay_events(self, strip_whitespace: bool = True) -> Iterator[Event]:
        """The whole document as events, reassembled from the shards.

        Used by the differential tests: this must equal
        ``iter_events(text)`` event-for-event.
        """
        yield from self.prologue_events
        for index in range(len(self.slices)):
            yield from self.shard_events(index, strip_whitespace=strip_whitespace)
        yield Event(END, self.root_tag)


def fragment_events(
    root_tag: str,
    fragment: str,
    strip_whitespace: bool = True,
    engine: Optional[str] = None,
    skip=None,
) -> Iterator[Event]:
    """Replay a content fragment as events, as if it sat under ``root_tag``.

    The fragment is wrapped in a synthetic root element (whose ``start``
    and ``end`` events are dropped) so the ordinary tokenizer — dialect,
    entity expansion, error messages — does all the work.  This is how
    every consumer of a shard slice, and the incremental engine's delta
    fragments, turn raw characters back into the serial event
    sub-sequence.  A malformed fragment raises the tokenizer's own
    :exc:`~repro.xmlmodel.parser.XMLSyntaxError`, at its offset in
    ``fragment``, lazily, mid-iteration — consumers that must stay
    consistent drain the whole stream before committing any state (as the
    incremental engine does).  ``engine`` pins the tokenizer backend, as
    in :func:`iter_events`.
    """
    resolved = resolve_engine(engine)
    if obs.enabled():
        record_tokenizer_call(resolved, len(fragment))
    events = _route_events(
        f"<{root_tag}>{fragment}</{root_tag}>", strip_whitespace, resolved, skip
    )
    try:
        next(events)  # the synthetic root START
        pending = next(events, None)
        for event in events:
            yield pending  # type: ignore[misc]
            pending = event
    except XMLSyntaxError as error:
        raise error.shifted(-len(f"<{root_tag}>")) from None
    # ``pending`` is now the synthetic root END — dropped.


# ----------------------------------------------------------------------
# The structural scan
# ----------------------------------------------------------------------
def _scan_structure(
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
    child_match = _child_pattern().match
    while True:
        lt = find("<", pos)
        if lt < 0 or lt + 1 >= length:
            return None  # unterminated root element
        pos = lt
        if startswith("</", pos):
            content_end = pos
            break
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
        # ``<!`` constructs other than the comment/CDATA handled above
        # parse as elements whose name starts with ``!`` in the tokenizer
        # — structurally too surprising to slice through, so bail to the
        # serial plane for those.
        if text[pos + 1] == "!":
            return None
        child_offsets.append(pos)
        match = child_match(text, pos)
        if match is not None:
            pos = match.end()
            continue
        child_end = _walk_child(text, pos)
        if child_end is None:
            return None
        pos = child_end

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


def _walk_child(text: str, pos: int) -> Optional[int]:
    """The per-tag walk over one top-level child starting at its ``<``.

    Returns the offset just past the close tag that brings the nesting
    depth back to zero (or past a self-closing child's ``/>``), or
    ``None`` when the child cannot be sliced with confidence.  Start tags
    match :data:`_START_TAG_RE` in one pass; a close tag runs from ``</``
    to the next ``>`` whatever its name (the serial tokenizer reports a
    mismatch canonically); comments, CDATA sections and processing
    instructions are skipped whole.  This is the authority
    :func:`_child_pattern` reproduces, and the fallback for every child it
    does not match.
    """
    length = len(text)
    find = text.find
    startswith = text.startswith
    depth = 0
    while True:
        if startswith("</", pos):
            gt = find(">", pos)
            if gt < 0:
                return None
            pos = gt + 1
            depth -= 1
            if depth == 0:
                return pos
        elif startswith("<!--", pos):
            end = find("-->", pos)
            if end < 0:
                return None
            pos = end + 3
        elif startswith("<![CDATA[", pos):
            end = find("]]>", pos)
            if end < 0:
                return None
            pos = end + 3
        elif startswith("<?", pos):
            end = find("?>", pos)
            if end < 0:
                return None
            pos = end + 2
        elif text[pos + 1] == "!":
            return None
        else:
            match = _START_TAG_RE.match(text, pos + 1)
            if match is None:
                return None
            pos = match.end()
            if match.group(1) != "/":
                depth += 1
            elif depth == 0:
                return pos
        lt = find("<", pos)
        if lt < 0 or lt + 1 >= length:
            return None
        pos = lt


def _balanced_slices(
    child_offsets: List[int], content_start: int, content_end: int, num_shards: int
) -> List[ShardSlice]:
    """Group consecutive top-level children into size-balanced slices.

    Cut points are always child start offsets, so slice 0 additionally
    carries any leading text and each slice carries the text trailing its
    last child — together the slices partition the whole content range.
    """
    count = min(num_shards, len(child_offsets))
    target = (content_end - content_start) / count
    slices: List[ShardSlice] = []
    start = content_start
    subtrees = 0
    for index in range(len(child_offsets)):
        region_end = (
            child_offsets[index + 1] if index + 1 < len(child_offsets) else content_end
        )
        subtrees += 1
        children_after = len(child_offsets) - index - 1
        slices_after = count - len(slices) - 1
        if slices_after > 0 and (
            children_after == slices_after or region_end - start >= target
        ):
            slices.append(ShardSlice(start, region_end, subtrees))
            start = region_end
            subtrees = 0
    if subtrees or start < content_end:
        slices.append(ShardSlice(start, content_end, subtrees))
    return slices


#: Why :func:`cut_document` declined to cut a document (the ``reason``
#: label of the ``shard.fallback`` counter of :mod:`repro.parallel`).
UNSLICEABLE = "unsliceable"  # the structural scan answered ``None``
ONE_SLICE = "one-slice"  # fewer than two top-level subtrees or slices


def cut_document(
    text: str, num_shards: int
) -> Tuple[Optional[DocumentShards], Optional[str]]:
    """:func:`split_document`, also saying why it declined.

    Returns ``(shards, None)``, or ``(None, reason)`` with ``reason``
    :data:`UNSLICEABLE` or :data:`ONE_SLICE`.
    """
    if num_shards < 2:
        return None, ONE_SLICE
    scan = _scan_structure(text)
    if scan is None:
        return None, UNSLICEABLE
    _, _, content_start, content_end, child_offsets = scan
    if len(child_offsets) < 2:
        return None, ONE_SLICE
    slices = _balanced_slices(child_offsets, content_start, content_end, num_shards)
    if len(slices) < 2:
        return None, ONE_SLICE
    return _document_shards(text, scan, slices), None


def split_document(text: str, num_shards: int) -> Optional[DocumentShards]:
    """Cut a document into at most ``num_shards`` replayable shards.

    Returns ``None`` when the document offers no useful parallelism (fewer
    than two top-level subtrees, ``num_shards < 2``) or when the structural
    scan cannot slice it with confidence — callers then run the serial
    plane unchanged.
    """
    return cut_document(text, num_shards)[0]


def _document_shards(text: str, scan, slices: List[ShardSlice]) -> DocumentShards:
    root_tag, prologue_events, content_start, content_end, _ = scan
    # XML allows one attribute per name; a duplicated name replays as two
    # ``attr`` events (tokenizer fidelity) but occupies a single node id
    # (the DOM keeps one node, last value wins), so ids count *distinct*
    # attribute names.
    distinct_attrs = {event.name for event in prologue_events if event.kind == ATTR}
    return DocumentShards(
        text=text,
        root_tag=root_tag,
        prologue_events=prologue_events,
        prologue_ids=1 + len(distinct_attrs),
        slices=tuple(slices),
        content_start=content_start,
        content_end=content_end,
    )


def split_subtrees(text: str) -> Optional[DocumentShards]:
    """Cut a document at its *finest* anchor granularity: one slice per
    top-level child subtree.

    The addressing scheme of the incremental plane
    (:mod:`repro.incremental`): slice ``k`` is the ``k``-th top-level child
    of the root — exactly the unit a subtree delta inserts, deletes or
    replaces — and the slices are the finest partition
    :func:`split_document` could produce, so all of the parallel plane's
    merge guarantees (prologue replay, id rebasing, document-order
    concatenation) apply unchanged.  Unlike :func:`split_document`, a
    single child is acceptable (there is no parallelism to amortize, but a
    one-child document is still editable), and the slice count is not
    capped.  Returns ``None`` when the structural scan cannot slice the
    document with confidence or the root has no element children — callers
    fall back to batch re-processing.

    Slice boundaries are child start offsets: leading text/comment content
    rides with slice 0 and the text trailing a child rides with that
    child's slice, so the slices partition the root's whole content range.
    """
    scan = _scan_structure(text)
    if scan is None:
        return None
    _, _, content_start, content_end, child_offsets = scan
    if not child_offsets:
        return None
    slices: List[ShardSlice] = []
    start = content_start
    for index, offset in enumerate(child_offsets):
        end = (
            child_offsets[index + 1]
            if index + 1 < len(child_offsets)
            else content_end
        )
        slices.append(ShardSlice(start, end, 1))
        start = end
    return _document_shards(text, scan, slices)
