"""Event-driven XML tokenization — the one XML front end.

Every reader of XML text goes through :func:`iter_events`.  The paper's
*schema-level* algorithms (propagation, covers, implication) work on a DOM,
and :func:`~repro.xmlmodel.parser.parse_document` builds it as
``tree_from_events(iter_events(...))``.  The *data-level* pipeline —
shredding documents through a transformation and checking key
satisfaction — must handle documents far larger than a comfortable DOM, so
it consumes the events directly:

* :func:`iter_events` tokenizes a document into a flat stream of
  ``start`` / ``attr`` / ``text`` / ``end`` events.  The input may be a
  string, a file-like object, or any iterable of string chunks; the
  tokenizer buffers only the current token (plus one pull-ahead chunk), so
  peak memory is independent of document size.
* :func:`iter_tree_events` replays an in-memory tree as the same event
  stream, so every streaming consumer can also run over DOM input.
* :func:`tree_from_events` rebuilds a DOM from an event stream with an
  explicit stack, so nesting depth is bounded by memory rather than by the
  interpreter's recursion limit.

The dialect is the data-exchange subset documented in
:mod:`repro.xmlmodel.parser` (predefined entities, character references,
CDATA, comments, processing instructions, a skipped DOCTYPE).  Character
data and CDATA accumulate into a single text event, which is flushed by
element boundaries, comments and processing instructions, and dropped when
whitespace-only under ``strip_whitespace``.

Event order mirrors the document-order node numbering of Figure 1: an
element's ``start`` is followed by one ``attr`` event per attribute (in
document order) before any child content, which is exactly the order
``XMLTree.reindex`` assigns node identifiers in.  Streaming consumers that
need paper-compatible node identifiers (the key checker) can simply count
events.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import os
import re
from typing import IO, Iterable, Iterator, List, NamedTuple, Optional, Union

from repro import obs
from repro.xmlmodel.nodes import ElementNode, TextNode
from repro.xmlmodel.parser import XMLSyntaxError, expand_entities
from repro.xmlmodel.tree import XMLTree

#: Event kinds.  Plain strings (not an enum) — the tokenizer emits millions
#: of these on large documents and consumers dispatch on them per event.
START = "start"
ATTR = "attr"
TEXT = "text"
END = "end"
SKIP = "skip"


class Event(NamedTuple):
    """One parse event.

    ============  ======================  =========================
    kind          name                    value
    ============  ======================  =========================
    ``start``     element tag             ``None``
    ``attr``      attribute name          attribute value
    ``text``      ``"#text"``             character data
    ``end``       element tag             ``None``
    ``skip``      element tag             node-id count (``int``)
    ============  ======================  =========================

    A ``skip`` event replaces the whole event run of one element — its
    ``start``, ``attr`` s, content and ``end`` — when a
    :class:`~repro.xmlmodel.static.SkipSet` proved the subtree irrelevant
    and the tokenizer fast-forwarded over it.  Its ``value`` carries (as
    an ``int`` in the otherwise-``str`` value slot) the number of node
    identifiers the subtree would have consumed: one per element, one per
    attribute occurrence, one per text event the normal tokenization
    would have flushed.  Consumers that count events for paper-compatible
    node ids advance their counter by that amount and move on.
    """

    kind: str
    name: str
    value: Optional[str] = None


EventSource = Union[
    str,
    bytes,
    "os.PathLike[str]",
    IO[str],
    Iterable[str],
    XMLTree,
    ElementNode,
]

#: Byte-buffer source types: UTF-8, decoded once on entry to
#: :func:`iter_events`, so every backend tokenizes text.
_BUFFER_TYPES = (bytes, bytearray, memoryview, mmap.mmap)

_DEFAULT_CHUNK = 1 << 16
_COMPACT_THRESHOLD = 1 << 16
_NAME_DELIMITERS = "=<>/?\"'"

# Hot-path scanners for the in-memory tokenizer.  The character classes are
# the chunked tokenizer's: a name runs until whitespace or one of
# ``=<>/?"'``; attribute values are quoted, quotes cannot be escaped other
# than via entities.  Inputs the regexes cannot handle fall back to the
# character-level code, which raises the canonical error messages.
_NAME_RE = re.compile(r"[^\s=<>/?\"']+")
_ATTR_RE = re.compile(r"\s*([^\s=<>/?\"']+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)')")
_END_TAG_RE = re.compile(r"([^\s=<>/?\"']+)\s*>")

#: Element levels below a skipped element that :func:`_bulk_pattern`
#: spells out; a deeper region is tokenized in full.
_BULK_NESTING = 12

#: The attributes of a start tag in :func:`_bulk_pattern`'s grammar:
#: quoted values exclude ``<>=&``, so every ``=`` belongs to an attribute.
_BULK_ATTRS = (
    r"(?:\s*+[^\s=<>/?\"']++\s*+=\s*+(?:\"[^\"<>=&]*+\"|'[^'<>=&]*+'))*+\s*+"
)

#: The rest of a skipped element's start tag, from just past its name;
#: the group is ``/`` when the element closes itself.
_SKIP_HEAD_RE = re.compile(_BULK_ATTRS + r"(/?)>")

#: A whitespace-only text run in a region :func:`_bulk_pattern` matched:
#: ``strip_whitespace`` flushes no text event for it.
_BLANK_TEXT_RE = re.compile(r">\s++<")


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def iter_events(
    source: Union[str, bytes, "os.PathLike[str]", IO[str], Iterable[str]],
    strip_whitespace: bool = True,
    chunk_size: int = _DEFAULT_CHUNK,
    engine: Optional[str] = None,
    skip=None,
) -> Iterator[Event]:
    """Tokenize an XML document into a stream of events.

    ``source`` may be a string, a byte buffer (``bytes`` / ``memoryview`` /
    ``mmap``, UTF-8), a filesystem path (:class:`os.PathLike`), a file-like
    object (read in ``chunk_size`` pieces) or an iterable of string chunks.
    ``strip_whitespace`` drops whitespace-only text events.

    ``engine`` pins the tokenizer backend; it exists so tests and
    benchmarks can reach each one, and no plane above this module passes
    it:

    * ``None`` (``auto``, the default) — accelerate in-memory strings,
      buffers and paths; keep file-like objects and chunk iterables on the
      pure incremental tokenizer, preserving its bounded-memory contract.
      A non-empty ``skip`` set sends text, byte buffers (decoded on entry)
      and paths (read with :func:`read_document`) to the pure string
      scanner instead, at any size: it is the one tokenizer that elides;
    * ``"pure"`` — the in-tree reference tokenizer below;
    * ``"expat"`` — the expat front-end of :mod:`repro.xmlmodel.accel`,
      which emits the identical event stream and errors (falling back to
      a pure replay whenever the C dialect could disagree).

    Any other ``engine`` raises :exc:`ValueError`.

    On the pure path a fully in-memory string takes a specialized
    single-buffer scanner (the hot path of the shredding benchmarks);
    everything else runs through the incremental chunked tokenizer.  All
    backends accept the same dialect and raise the same errors (pinned
    against each other by the test suite).

    ``skip`` is an optional :class:`~repro.xmlmodel.static.SkipSet`: when a
    non-root element opens whose label the set marks skippable, the
    string scanner fast-forwards to the matching close tag without
    materializing the subtree's events, emitting one ``skip`` event in
    their place.  The fast-forward is one pattern match: it accepts only
    a well-formed element in the plain dialect — no entity, comment, PI
    or CDATA, no ``>`` or ``=`` in text, no ``<>=&`` in a quoted value,
    at most :data:`_BULK_NESTING` levels deep — whose every interior
    label the set verifies.  A miss costs speed, not exactness: the
    element tokenizes in full, so the (document, skip set) pair fully
    determines the stream, and a pruned stream raises the unpruned
    stream's error — including on documents that violate the schema the
    set was compiled from.  Only the string scanner skips: expat and the
    bounded-memory chunked tokenizer accept the parameter but always
    tokenize in full (their streams simply contain no ``skip`` events,
    which is also correct).
    """
    from repro.xmlmodel import accel

    resolved = accel.resolve_engine(engine)
    if obs.enabled():
        record_tokenizer_call(resolved, _source_size(source))
    return _route_events(source, strip_whitespace, resolved, skip, chunk_size)


def record_tokenizer_call(engine: str, size: Optional[int]) -> None:
    """Count one tokenizer call over ``size`` document bytes.

    One registry touch per *call*, never per event: per-event counters
    live in the consumer loops as local integers.  A shard or delta
    fragment counts only its own bytes, not the synthetic root wrapper it
    is tokenized in, so a sharded run's ``tokenizer.bytes`` adds up to
    the document's.
    """
    registry = obs.metrics()
    registry.inc("tokenizer.calls", engine=engine)
    if size is not None:
        registry.inc("tokenizer.bytes", size)


def _source_size(source) -> Optional[int]:
    if isinstance(source, (str,) + _BUFFER_TYPES):
        return len(source)
    if hasattr(source, "__fspath__"):
        try:
            return os.path.getsize(os.fspath(source))
        except OSError:
            return None
    return None


def _route_events(
    source, strip_whitespace: bool, resolved: str, skip, chunk_size: int = _DEFAULT_CHUNK
) -> Iterator[Event]:
    """:func:`iter_events` after the backend is resolved, uncounted."""
    from repro.xmlmodel import accel

    if isinstance(source, _BUFFER_TYPES):
        source = str(source, "utf-8")
    if resolved == accel.AUTO and skip:
        # A skip set selects the string scanner, the one tokenizer that
        # elides: its skip settles a skippable element with one
        # pattern match and a few counts, while a C parser still pays a
        # Python callback per element it visits.
        if hasattr(source, "__fspath__"):
            source = read_document(source)
        if isinstance(source, str):
            return _string_events(source, strip_whitespace, skip)
    if resolved != accel.PURE:
        accelerated = accel.accelerated_events(source, strip_whitespace, resolved)
        if accelerated is not None:
            return accelerated
    if hasattr(source, "__fspath__"):
        return _Tokenizer(
            _path_chunks(os.fspath(source), chunk_size), strip_whitespace
        ).events()
    if isinstance(source, str):
        return _string_events(source, strip_whitespace, skip)
    return _Tokenizer(_chunks_of(source, chunk_size), strip_whitespace).events()


def read_document(path: Union[str, "os.PathLike[str]"]) -> str:
    """Read an XML document file as text: the whole file, decoded as UTF-8.

    Newlines stay as they are in the file: the dialect keeps carriage
    returns, so a reader that translated them would change the document.
    Every plane that takes a document by path reads it here.
    """
    with open(path, "rb") as handle:
        return str(handle.read(), "utf-8")


def _skip_string_prolog(source: str, pos: int = 0) -> int:
    """Skip the document prolog (XML decl, comments, DOCTYPE) of a string.

    Shared by the in-memory tokenizer and the document splitter of
    :mod:`repro.xmlmodel.shards`, so both accept exactly the same prolog
    dialect.  Returns the position of the root element's ``<``.
    """
    length = len(source)
    find = source.find
    startswith = source.startswith
    while True:
        while pos < length and source[pos].isspace():
            pos += 1
        if startswith("<?", pos):
            end = find("?>", pos)
            if end < 0:
                raise XMLSyntaxError("unterminated construct (missing '?>')", pos)
            pos = end + 2
        elif startswith("<!--", pos):
            end = find("-->", pos)
            if end < 0:
                raise XMLSyntaxError("unterminated construct (missing '-->')", pos)
            pos = end + 3
        elif startswith("<!DOCTYPE", pos):
            depth = 0
            while True:
                if pos >= length:
                    raise XMLSyntaxError("unterminated DOCTYPE declaration", pos)
                char = source[pos]
                if char == "[":
                    depth += 1
                elif char == "]":
                    depth -= 1
                elif char == ">" and depth <= 0:
                    pos += 1
                    break
                pos += 1
        else:
            return pos


def _skip_string_misc(source: str, pos: int) -> int:
    """Skip epilog misc (whitespace, comments, PIs) after the root element."""
    length = len(source)
    find = source.find
    startswith = source.startswith
    while True:
        while pos < length and source[pos].isspace():
            pos += 1
        if startswith("<?", pos):
            end = find("?>", pos)
            if end < 0:
                raise XMLSyntaxError("unterminated construct (missing '?>')", pos)
            pos = end + 2
        elif startswith("<!--", pos):
            end = find("-->", pos)
            if end < 0:
                raise XMLSyntaxError("unterminated construct (missing '-->')", pos)
            pos = end + 3
        else:
            return pos


def _string_events(source: str, strip_whitespace: bool, skip=None) -> Iterator[Event]:
    """Tokenizer fast path over a complete in-memory string."""
    length = len(source)
    find = source.find
    startswith = source.startswith

    skip_attempt = skip.attempt if skip else None

    pos = _skip_string_prolog(source)
    if pos >= length or source[pos] != "<":
        raise XMLSyntaxError("expected a root element", pos)

    stack: List[str] = []
    text_parts: List[str] = []
    need_element = True
    while True:
        if need_element:
            # --- start tag (pos is at '<') ----------------------------
            tag_start = pos
            pos += 1
            match = _NAME_RE.match(source, pos)
            if match is None or match.start() != pos:
                raise XMLSyntaxError("expected a name", pos)
            name = match.group()
            pos = match.end()
            # Any pending text was flushed before need_element was set, so
            # a successful fast-forward replaces the element's whole event
            # run with one SKIP event and nothing is reordered.
            if skip_attempt is not None and stack and name in skip_attempt:
                skipped = _skip_string_subtree(
                    source, pos, name, skip, not strip_whitespace
                )
                if skipped is not None:
                    pos, id_count = skipped
                    yield Event(SKIP, name, id_count)
                    need_element = False
                    continue
            yield Event(START, name)
            while True:
                # fast path: well-formed ``name="value"`` attributes
                match = _ATTR_RE.match(source, pos)
                if match is not None:
                    raw = match.group(2)
                    if raw is None:
                        raw = match.group(3)
                    pos = match.end()
                    yield Event(
                        ATTR, match.group(1), expand_entities(raw) if "&" in raw else raw
                    )
                    continue
                while pos < length and source[pos].isspace():
                    pos += 1
                if pos >= length:
                    raise XMLSyntaxError("unterminated start tag", tag_start)
                char = source[pos]
                if char == ">":
                    pos += 1
                    stack.append(name)
                    break
                if char == "/" and startswith("/>", pos):
                    pos += 2
                    yield Event(END, name)
                    break
                # Slow path for the error cases the regex rejected: missing
                # '=', unquoted or unterminated values, bad names.
                i = pos
                while i < length and not source[i].isspace() and source[i] not in _NAME_DELIMITERS:
                    i += 1
                if i == pos:
                    raise XMLSyntaxError("expected a name", i)
                pos = i
                while pos < length and source[pos].isspace():
                    pos += 1
                if not startswith("=", pos):
                    raise XMLSyntaxError("expected '='", pos)
                pos += 1
                while pos < length and source[pos].isspace():
                    pos += 1
                if pos >= length or source[pos] not in "\"'":
                    raise XMLSyntaxError("expected a quoted attribute value", pos)
                raise XMLSyntaxError("unterminated attribute value", pos + 1)
            need_element = False
            continue
        if not stack:
            break  # the root element closed: proceed to the epilog
        # --- content --------------------------------------------------
        if pos >= length:
            raise XMLSyntaxError(f"unterminated element <{stack[-1]}>", pos)
        char = source[pos]
        if char == "<":
            nxt = source[pos + 1] if pos + 1 < length else ""
            if nxt == "/":
                if text_parts:
                    content = "".join(text_parts)
                    text_parts.clear()
                    if not strip_whitespace or content.strip():
                        yield Event(TEXT, "#text", content)
                pos += 2
                match = _END_TAG_RE.match(source, pos)
                if match is not None:
                    name = match.group(1)
                    if name != stack[-1]:
                        raise XMLSyntaxError(
                            f"mismatched end tag </{name}> for <{stack[-1]}>",
                            match.end(1),
                        )
                    pos = match.end()
                    stack.pop()
                    yield Event(END, name)
                    continue
                # Slow path for malformed end tags (missing name or '>').
                i = pos
                while i < length and not source[i].isspace() and source[i] not in _NAME_DELIMITERS:
                    i += 1
                if i == pos:
                    raise XMLSyntaxError("expected a name", i)
                name = source[pos:i]
                pos = i
                if name != stack[-1]:
                    raise XMLSyntaxError(
                        f"mismatched end tag </{name}> for <{stack[-1]}>", pos
                    )
                while pos < length and source[pos].isspace():
                    pos += 1
                if not startswith(">", pos):
                    raise XMLSyntaxError("expected '>'", pos)
                pos += 1
                stack.pop()
                yield Event(END, name)
                continue
            if nxt == "!":
                if startswith("<!--", pos):
                    if text_parts:
                        content = "".join(text_parts)
                        text_parts.clear()
                        if not strip_whitespace or content.strip():
                            yield Event(TEXT, "#text", content)
                    end = find("-->", pos)
                    if end < 0:
                        raise XMLSyntaxError("unterminated construct (missing '-->')", pos)
                    pos = end + 3
                    continue
                if startswith("<![CDATA[", pos):
                    end = find("]]>", pos)
                    if end < 0:
                        raise XMLSyntaxError("unterminated CDATA section", pos)
                    text_parts.append(source[pos + 9 : end])
                    pos = end + 3
                    continue
                # anything else after '<!' parses as an element whose name
                # starts with '!', exactly like the chunked tokenizer
            elif nxt == "?":
                if text_parts:
                    content = "".join(text_parts)
                    text_parts.clear()
                    if not strip_whitespace or content.strip():
                        yield Event(TEXT, "#text", content)
                end = find("?>", pos)
                if end < 0:
                    raise XMLSyntaxError("unterminated construct (missing '?>')", pos)
                pos = end + 2
                continue
            if text_parts:
                content = "".join(text_parts)
                text_parts.clear()
                if not strip_whitespace or content.strip():
                    yield Event(TEXT, "#text", content)
            need_element = True
            continue
        next_tag = find("<", pos)
        if next_tag < 0:
            next_tag = length
        segment = source[pos:next_tag]
        text_parts.append(expand_entities(segment) if "&" in segment else segment)
        pos = next_tag

    # --- epilog -------------------------------------------------------
    pos = _skip_string_misc(source, pos)
    if pos < length:
        raise XMLSyntaxError("content after the root element", pos)


@functools.lru_cache(maxsize=None)
def _bulk_pattern() -> "re.Pattern[str]":
    """The content of one element, from past its start tag to its close.

    :func:`~repro.xmlmodel.shards._child_pattern`'s grammar with close
    names checked: each of :data:`_BULK_NESTING` levels captures its start
    tag's name in a group of its own and closes with ``</(?P=n_k)\\s*>``,
    so every element the match spans closes under its own name.  Text
    excludes ``<>=&`` and quoted attribute values exclude ``<>=&``, so
    over a matched region every ``<`` opens or closes a tag, every ``=``
    belongs to an attribute and every ``>`` ends a tag:
    :func:`_skip_string_subtree` counts node ids with C-level scans.
    Every quantifier is possessive, and a region holding a construct
    outside the grammar (``<!``, ``<?``, an entity, a mismatched or
    missing close, deeper nesting) is never matched to its end.
    """
    name = r"[^\s=<>/?\"']++"
    content = r"(?:[^<>=&]++|<(?!!)" + name + _BULK_ATTRS + r"/>)*+"
    for level in range(_BULK_NESTING):
        group = f"n{level}"
        content = (
            rf"(?:[^<>=&]++|<(?!!)(?P<{group}>{name}){_BULK_ATTRS}"
            rf"(?:/>|>{content}</(?P={group})\s*+>))*+"
        )
    return re.compile(content)


def _skip_string_subtree(source, pos, name, skip, keep_all):
    """Fast-forward over one element without materializing its events.

    ``pos`` is just past the tag name of the opened element ``name``.  On
    success returns ``(end_pos, id_count)``: the position just past the
    element (its ``/>`` or its matching close tag) and the node
    identifiers the normal tokenization would spend on it — the element,
    each attribute occurrence, each flushed text event, under the
    scanner's segmentation and ``keep_all`` solidity rules.  The skip is
    exact or refused: :data:`_SKIP_HEAD_RE` must match the start tag,
    :func:`_bulk_pattern` all of the content, the close must name
    ``name``, and ``skip.unverified_tag`` must find no interior label.
    Anything else returns ``None`` and the scanner tokenizes the element
    in full: an entity, comment, PI, CDATA, ``>`` or ``=`` in text,
    ``<>=&`` in a quoted value, deeper nesting, an unverified label, or
    an ill-formed region (which the scanner then reports canonically).
    """
    head = _SKIP_HEAD_RE.match(source, pos)
    if head is None:
        return None
    pos = head.end()
    count = source.count
    ids = 1 + count("=", head.start(), pos)
    if head.group(1):
        return pos, ids
    end = _bulk_pattern().match(source, pos).end()
    if not source.startswith("</", end):
        return None
    close = _END_TAG_RE.match(source, end + 2)
    if close is None or close.group(1) != name:
        return None
    if skip.unverified_tag.search(source, pos, end) is not None:
        return None
    # Each text run follows a tag's ``>`` (the opening tag's own ``>`` at
    # ``pos - 1`` starts the leading run) and ends at the next ``<``.
    text_ids = count(">", pos - 1, end) - count("><", pos - 1, end + 1)
    if not keep_all:
        text_ids -= len(_BLANK_TEXT_RE.findall(source, pos - 1, end + 1))
    elements = count("<", pos, end) - count("</", pos, end)
    return close.end(), ids + elements + count("=", pos, end) + text_ids


def iter_tree_events(tree_or_element: Union[XMLTree, ElementNode]) -> Iterator[Event]:
    """Replay an in-memory tree as the equivalent event stream."""
    root = tree_or_element.root if isinstance(tree_or_element, XMLTree) else tree_or_element
    # Iterative pre-order walk; the work stack holds either elements still to
    # be opened or already-emitted END events.
    stack: List[object] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, Event):
            yield item
            continue
        if isinstance(item, TextNode):
            yield Event(TEXT, "#text", item.text)
            continue
        element: ElementNode = item  # type: ignore[assignment]
        yield Event(START, element.tag)
        for attr_node in element.attributes.values():
            yield Event(ATTR, attr_node.name, attr_node.value)
        stack.append(Event(END, element.tag))
        stack.extend(reversed(element.children))


def as_events(source: EventSource, skip=None) -> Iterator[Event]:
    """Coerce any supported source into an event stream.

    Accepts trees/elements (replayed), strings, byte buffers, paths and
    file-like objects (tokenized via :func:`iter_events`, honoring
    ``skip``), iterables of string chunks (tokenized) and iterables that
    already yield :class:`Event` objects (passed through).  An empty
    iterable is the empty document, which the tokenizer rejects.
    """
    if isinstance(source, (XMLTree, ElementNode)):
        return iter_tree_events(source)
    if (
        isinstance(source, str)
        or isinstance(source, _BUFFER_TYPES)
        or hasattr(source, "read")
        or hasattr(source, "__fspath__")
    ):
        return iter_events(source, skip=skip)  # type: ignore[arg-type]
    iterator = iter(source)  # type: ignore[arg-type]
    try:
        first = next(iterator)
    except StopIteration:
        return iter_events("", skip=skip)
    rest = itertools.chain((first,), iterator)
    if isinstance(first, Event):
        return rest  # type: ignore[return-value]
    return iter_events(rest, skip=skip)  # type: ignore[arg-type]


def element_from_events(events: Iterable[Event]) -> ElementNode:
    """Rebuild the root element described by an event stream."""
    root: Optional[ElementNode] = None
    stack: List[ElementNode] = []
    for event in events:
        kind = event.kind
        if kind == START:
            node = ElementNode(event.name)
            if stack:
                stack[-1].append_child(node)
            elif root is None:
                root = node
            else:
                raise ValueError("event stream describes more than one root element")
            stack.append(node)
        elif kind == ATTR:
            if not stack:
                raise ValueError("attr event outside any open element")
            stack[-1].set_attribute(event.name, event.value or "")
        elif kind == TEXT:
            if not stack:
                raise ValueError("text event outside any open element")
            stack[-1].append_child(TextNode(event.value or ""))
        elif kind == END:
            if not stack:
                raise ValueError("end event without a matching start")
            stack.pop()
        elif kind == SKIP:
            raise ValueError(
                "cannot rebuild a tree from a skipped stream "
                "(a skip event elides the subtree's content)"
            )
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    if root is None or stack:
        raise ValueError("event stream did not describe a complete document")
    return root


def tree_from_events(events: Iterable[Event]) -> XMLTree:
    """Rebuild a full :class:`XMLTree` (with node identifiers) from events."""
    return XMLTree(element_from_events(events))


# ----------------------------------------------------------------------
# Chunk adapters
# ----------------------------------------------------------------------
def _chunks_of(
    source: Union[str, IO[str], Iterable[str]], chunk_size: int
) -> Iterator[str]:
    if isinstance(source, str):
        yield source
        return
    read = getattr(source, "read", None)
    if read is not None:
        while True:
            chunk = read(chunk_size)
            if not chunk:
                return
            yield chunk
        return
    yield from source  # type: ignore[misc]


def _path_chunks(path: str, chunk_size: int) -> Iterator[str]:
    """Chunk a file by path for the pure tokenizer, closing it when done.

    ``newline=""`` keeps carriage returns, as :func:`read_document` does.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return
            yield chunk


# ----------------------------------------------------------------------
# The incremental tokenizer
# ----------------------------------------------------------------------
class _Tokenizer:
    """Pull-based tokenizer over an iterator of string chunks.

    The buffer holds at most the current token plus one pulled-ahead chunk;
    the consumed prefix is dropped once it crosses ``_COMPACT_THRESHOLD``,
    so memory stays bounded regardless of document length.  ``base + pos``
    is the absolute offset used in error messages, matching the in-memory
    scanner.
    """

    def __init__(self, chunks: Iterator[str], strip_whitespace: bool) -> None:
        self._chunks = chunks
        self.buf = ""
        self.pos = 0
        self.base = 0
        self.eof = False
        self.strip_whitespace = strip_whitespace

    # -- buffer management ---------------------------------------------
    def _pull(self) -> bool:
        if self.eof:
            return False
        # Growing the buffer copies the unconsumed suffix, so appending one
        # chunk at a time while a single token (a multi-megabyte comment or
        # CDATA section split into small chunks) keeps the scanners hungry
        # is quadratic.  Pull geometrically instead: drain chunks until the
        # new data is a constant fraction of the unconsumed window, which
        # amortizes every copy and keeps chunked scans linear.  The buffer
        # still holds at most the current token plus ~1/8 slack and one
        # chunk, so memory stays bounded by the longest token.
        pending: List[str] = []
        pending_length = 0
        target = (len(self.buf) - self.pos) >> 3
        for chunk in self._chunks:
            if chunk:
                pending.append(chunk)
                pending_length += len(chunk)
                if pending_length > target:
                    break
        if not pending:
            self.eof = True
            return False
        self.buf += pending[0] if len(pending) == 1 else "".join(pending)
        return True

    def _compact(self) -> None:
        if self.pos > _COMPACT_THRESHOLD:
            self.base += self.pos
            self.buf = self.buf[self.pos :]
            self.pos = 0

    def _avail(self, count: int) -> bool:
        while len(self.buf) - self.pos < count:
            if not self._pull():
                return False
        return True

    def _char(self) -> Optional[str]:
        if not self._avail(1):
            return None
        return self.buf[self.pos]

    def _startswith(self, literal: str) -> bool:
        return self._avail(len(literal)) and self.buf.startswith(literal, self.pos)

    def _find(self, marker: str, start: int) -> int:
        search_from = start
        while True:
            index = self.buf.find(marker, search_from)
            if index >= 0:
                return index
            # A marker may span a chunk boundary: re-search only the tail
            # that could still contain a partial match.
            search_from = max(start, len(self.buf) - len(marker) + 1)
            if not self._pull():
                return -1

    # -- lexical helpers ------------------------------------------------
    def _skip_spaces(self) -> None:
        while True:
            buf, length = self.buf, len(self.buf)
            while self.pos < length and buf[self.pos].isspace():
                self.pos += 1
            if self.pos < length or not self._pull():
                return

    def _skip_until(self, marker: str) -> None:
        index = self._find(marker, self.pos)
        if index < 0:
            raise XMLSyntaxError(
                f"unterminated construct (missing {marker!r})", self.base + self.pos
            )
        self.pos = index + len(marker)

    def _expect(self, literal: str) -> None:
        if not self._startswith(literal):
            raise XMLSyntaxError(f"expected {literal!r}", self.base + self.pos)
        self.pos += len(literal)

    def _scan_name(self) -> str:
        start = self.pos
        while True:
            buf, length = self.buf, len(self.buf)
            i = self.pos
            while i < length and not buf[i].isspace() and buf[i] not in _NAME_DELIMITERS:
                i += 1
            self.pos = i
            if i < length or not self._pull():
                break
        if self.pos == start:
            raise XMLSyntaxError("expected a name", self.base + self.pos)
        return self.buf[start : self.pos]

    def _parse_quoted(self) -> str:
        char = self._char()
        if char not in ("'", '"'):
            raise XMLSyntaxError("expected a quoted attribute value", self.base + self.pos)
        self.pos += 1
        index = self._find(char, self.pos)
        if index < 0:
            raise XMLSyntaxError("unterminated attribute value", self.base + self.pos)
        raw = self.buf[self.pos : index]
        self.pos = index + 1
        return expand_entities(raw)

    # -- prolog / epilog ------------------------------------------------
    def _skip_doctype(self) -> None:
        depth = 0
        while True:
            if self.pos >= len(self.buf) and not self._pull():
                raise XMLSyntaxError("unterminated DOCTYPE declaration", self.base + self.pos)
            char = self.buf[self.pos]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth <= 0:
                self.pos += 1
                return
            self.pos += 1

    def _skip_prolog(self) -> None:
        while True:
            self._skip_spaces()
            if self._startswith("<?"):
                self._skip_until("?>")
            elif self._startswith("<!--"):
                self._skip_until("-->")
            elif self._startswith("<!DOCTYPE"):
                self._skip_doctype()
            else:
                return

    def _skip_misc(self) -> None:
        while True:
            self._skip_spaces()
            if self._startswith("<?"):
                self._skip_until("?>")
            elif self._startswith("<!--"):
                self._skip_until("-->")
            else:
                return

    # -- element machinery ----------------------------------------------
    def _parse_start_tag(self, stack: List[str]) -> Iterator[Event]:
        tag_offset = self.base + self.pos
        self.pos += 1  # consume '<'
        name = self._scan_name()
        yield Event(START, name)
        while True:
            self._skip_spaces()
            char = self._char()
            if char is None:
                raise XMLSyntaxError("unterminated start tag", tag_offset)
            if char == ">":
                self.pos += 1
                stack.append(name)
                return
            if self._startswith("/>"):
                self.pos += 2
                yield Event(END, name)
                return
            attr_name = self._scan_name()
            self._skip_spaces()
            self._expect("=")
            self._skip_spaces()
            attr_value = self._parse_quoted()
            yield Event(ATTR, attr_name, attr_value)

    def _flush_text(self, parts: List[str]) -> Iterator[Event]:
        if not parts:
            return
        content = "".join(parts)
        parts.clear()
        if self.strip_whitespace and not content.strip():
            return
        yield Event(TEXT, "#text", content)

    # -- entry point -----------------------------------------------------
    def events(self) -> Iterator[Event]:
        self._skip_prolog()
        if self._char() != "<":
            raise XMLSyntaxError("expected a root element", self.base + self.pos)
        stack: List[str] = []
        text_parts: List[str] = []
        yield from self._parse_start_tag(stack)
        while stack:
            self._compact()
            char = self._char()
            if char is None:
                raise XMLSyntaxError(
                    f"unterminated element <{stack[-1]}>", self.base + self.pos
                )
            if self._startswith("</"):
                yield from self._flush_text(text_parts)
                self.pos += 2
                name = self._scan_name()
                if name != stack[-1]:
                    raise XMLSyntaxError(
                        f"mismatched end tag </{name}> for <{stack[-1]}>",
                        self.base + self.pos,
                    )
                self._skip_spaces()
                self._expect(">")
                stack.pop()
                yield Event(END, name)
                continue
            if self._startswith("<!--"):
                yield from self._flush_text(text_parts)
                self._skip_until("-->")
                continue
            if self._startswith("<![CDATA["):
                end = self._find("]]>", self.pos + 9)
                if end < 0:
                    raise XMLSyntaxError("unterminated CDATA section", self.base + self.pos)
                text_parts.append(self.buf[self.pos + 9 : end])
                self.pos = end + 3
                continue
            if self._startswith("<?"):
                yield from self._flush_text(text_parts)
                self._skip_until("?>")
                continue
            if char == "<":
                yield from self._flush_text(text_parts)
                yield from self._parse_start_tag(stack)
                continue
            next_tag = self._find("<", self.pos)
            if next_tag < 0:
                text_parts.append(expand_entities(self.buf[self.pos :]))
                self.pos = len(self.buf)
                continue  # the loop header reports the unterminated element
            text_parts.append(expand_entities(self.buf[self.pos : next_tag]))
            self.pos = next_tag
        self._skip_misc()
        if self._char() is not None:
            raise XMLSyntaxError("content after the root element", self.base + self.pos)
