"""Accelerated tokenizer front-end with a capability-probing fallback chain.

:mod:`repro.xmlmodel.events` is the hottest path in the system: every data
plane built on top of it (streaming shred, parallel shard→map→merge,
storage loading, incremental deltas) funnels each document character
through the pure-Python tokenizer.  This module puts a C tokenizer in
front of it — ``xml.parsers.expat`` from the standard library — while
keeping the pure tokenizer as the *reference oracle*: the accelerated stream is
event-for-event identical — kinds, payloads, ordering, hence node-id
assignment — and raises exactly the pure tokenizer's
:exc:`~repro.xmlmodel.parser.XMLSyntaxError` on malformed input.

Identity is engineered, not assumed, through two mechanisms:

* a **capability probe** — the in-tree dialect is *more* lenient than XML
  1.0 in some corners (unknown entities stay literal, ``--`` inside
  comments, hostile tag names) and *less* normalizing in others (no
  ``\\r\\n`` → ``\\n`` translation, no attribute-value whitespace
  normalization, no BOM handling).  The leniency gaps all make expat
  *error out*, which the replay below converts; the normalization gaps
  would diverge *silently*, so a single linear regex scan detects the
  trigger characters (a BOM, any carriage return, a tab/newline inside an
  attribute value) and routes those documents to the pure tokenizer.
* a **replay fallback** — if the C parser reports any error, the source is
  re-tokenized from the start by the pure tokenizer, skipping the events
  already delivered.  The consumer therefore sees the pure tokenizer's
  event stream and the pure tokenizer's exception — message, type and
  offset — for every input the dialects disagree on.  (The price is a
  second scan of documents that fail to parse; the malformed path is not
  the hot path.)

Backend selection follows the libearth ``compat.etree`` model: one
façade over an ordered list of backends — expat, then the pure fallback —
chosen from what it can observe, with no user switch.  ``auto`` uses the
accelerated backend for in-memory strings, byte buffers and file paths,
and leaves file-like objects and chunk iterables on the pure incremental
tokenizer, whose peak memory is bounded by the longest token rather than
the document.  Only the tokenizer entry points of :mod:`repro.xmlmodel`
(:func:`~repro.xmlmodel.events.iter_events` and
:func:`~repro.xmlmodel.shards.fragment_events`) take an ``engine=``
keyword, so tests and benchmarks can pin each backend; every plane above
consumes :class:`~repro.xmlmodel.events.Event` streams and never names
one.

A file given by path is ``mmap``-ed and its body fed to the C parser as a
:class:`memoryview`, without a copy into a Python string.  Shard slices
are text: a sharded run has read and decoded the document already.
"""

from __future__ import annotations

import gc
import itertools
import mmap
import os
import re
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.xmlmodel.events import ATTR, END, SKIP, START, TEXT, Event
from repro.xmlmodel.parser import XMLSyntaxError

#: ``tokenizer.calls`` label of the default, source-routed backend choice.
AUTO = "auto"
PURE = "pure"
EXPAT = "expat"

#: Bytes fed to the C parser per ``Parse`` call.  Events are handed to the
#: consumer between segments, so peak accelerated memory is one segment's
#: events, not the whole document's.
_SEGMENT = 1 << 20

#: ``auto`` leaves sources smaller than this on the pure tokenizer: the
#: fixed cost of parser construction and the divergence probe only pays
#: for itself on documents with a few thousand events.
_AUTO_THRESHOLD = 1 << 12

#: Bound on the per-parse event caches; adversarial inputs with millions
#: of distinct names/values reset the cache instead of growing it.
_CACHE_LIMIT = 1 << 16


class _Fallback(Exception):
    """Internal: the C backend gave up; replay with the pure tokenizer."""


# ----------------------------------------------------------------------
# Backend availability + engine resolution
# ----------------------------------------------------------------------
def _expat_module():
    try:
        from xml.parsers import expat
    except ImportError:  # pragma: no cover - expat ships with CPython
        return None
    return expat


def available_backends() -> Tuple[str, ...]:
    """The concrete backends usable in this interpreter, fastest first."""
    return (EXPAT, PURE) if _expat_module() is not None else (PURE,)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an ``engine=`` request to ``auto``, ``pure`` or ``expat``.

    ``None`` is ``auto``, the source-based routing of
    :func:`accelerated_events`; ``pure`` and ``expat`` pin a backend.
    Any other name, or ``expat`` where it is not available, raises
    :exc:`ValueError`.
    """
    if engine is None:
        return AUTO
    if engine not in (PURE, EXPAT):
        raise ValueError(
            f"unknown tokenizer engine {engine!r} (expected None, 'pure' or 'expat')"
        )
    if engine == EXPAT and _expat_module() is None:
        raise ValueError("the expat tokenizer backend is not available")
    return engine


# ----------------------------------------------------------------------
# The capability probe
# ----------------------------------------------------------------------
# A staged scan for every construct expat would *silently*
# normalize away from the pure dialect:
#   * a leading U+FEFF — expat consumes a BOM, the pure tokenizer treats
#     it as (bad) content;
#   * any carriage return — XML parsers translate \r\n and bare \r to \n
#     in character data, the pure tokenizer preserves them;
#   * a tab or newline inside a quoted attribute value — attribute-value
#     normalization replaces them with spaces.  (The attribute pattern
#     over-approximates: a quote in *text* may start a false "value", which
#     only costs a needless fallback, never a divergence.)
# The BOM/\r/\t prechecks are C-speed substring scans; the attribute
# regex — the only character-class walk — runs just when a tab or newline
# exists at all, and anchors on the literal ``=`` so the engine skips
# between attributes instead of walking every byte.
_DIVERGENCE_STR = re.compile("=[ \t\n]*(?:\"[^\"]*[\t\n]|'[^']*[\t\n])")
_DIVERGENCE_BYTES = re.compile(b"=[ \t\n]*(?:\"[^\"]*[\t\n]|'[^']*[\t\n])")


def _diverges(data: Union[str, bytes, bytearray, memoryview, "mmap.mmap"]) -> bool:
    """Whether expat could normalize ``data`` away from pure."""
    if isinstance(data, str):
        if data.startswith("\ufeff") or "\r" in data:
            return True
        if "\t" not in data and "\n" not in data:
            return False
        return _DIVERGENCE_STR.search(data) is not None
    if data[:3] == b"\xef\xbb\xbf" or _contains(data, b"\r"):
        return True
    if not _contains(data, b"\t") and not _contains(data, b"\n"):
        return False
    return _DIVERGENCE_BYTES.search(data) is not None


def _contains(
    data: Union[bytes, bytearray, memoryview, "mmap.mmap"], needle: bytes
) -> bool:
    find = getattr(data, "find", None)  # bytes/bytearray/mmap: a memchr scan
    if find is not None:
        return find(needle) >= 0
    # memoryview has no ``find``; a literal regex search is still a C scan.
    return re.search(re.escape(needle), data) is not None


def decode_buffer(data: Union[bytes, bytearray, memoryview, "mmap.mmap"]) -> str:
    """Decode a byte buffer the way the pure tokenizer would read a file."""
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    return data.decode("utf-8")


# ----------------------------------------------------------------------
# Prolog skipping over byte buffers
# ----------------------------------------------------------------------
# Expat is fed the document *body*: the prolog dialect (skipped
# DOCTYPE with internal subset, any number of comments/PIs) is the pure
# tokenizer's, and handing it to a validating parser would change both
# behavior and errors.  This is the byte-buffer port of
# ``events._skip_string_prolog``; anything doubtful (exotic whitespace,
# malformed constructs) raises and the caller replays the pure tokenizer,
# which owns the canonical answer.
_BYTE_SPACE = frozenset(b" \t\r\n\x0b\x0c")
_PI_END_B = re.compile(b"\\?>")
_COMMENT_END_B = re.compile(b"-->")


def _skip_bytes_prolog(data, length: int) -> int:
    pos = 0
    while True:
        while pos < length and data[pos] in _BYTE_SPACE:
            pos += 1
        if pos + 1 >= length:
            return pos
        if data[pos] != 0x3C:  # ord('<')
            return pos
        nxt = data[pos + 1]
        if nxt == 0x3F:  # '?'
            match = _PI_END_B.search(data, pos)
            if match is None:
                raise XMLSyntaxError("unterminated construct (missing '?>')", pos)
            pos = match.end()
        elif nxt == 0x21 and bytes(data[pos : pos + 4]) == b"<!--":
            match = _COMMENT_END_B.search(data, pos)
            if match is None:
                raise XMLSyntaxError("unterminated construct (missing '-->')", pos)
            pos = match.end()
        elif nxt == 0x21 and bytes(data[pos : pos + 9]) == b"<!DOCTYPE":
            depth = 0
            while True:
                if pos >= length:
                    raise XMLSyntaxError("unterminated DOCTYPE declaration", pos)
                char = data[pos]
                if char == 0x5B:  # '['
                    depth += 1
                elif char == 0x5D:  # ']'
                    depth -= 1
                elif char == 0x3E and depth <= 0:  # '>'
                    pos += 1
                    break
                pos += 1
        else:
            return pos


@contextmanager
def _gc_paused():
    """Pause the cyclic collector around one bounded ``Parse`` call.

    A segment parse allocates ~100k event tuples in a tight C loop, which
    trips hundreds of generation-0 collections that scan the growing
    event batch over and over — about 10% of the whole parse.  None of
    the allocations made here can form cycles, so the collector is paused
    for the (bounded, synchronous) duration of the call and restored in
    ``finally``; an already-disabled collector is left untouched.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# The expat event stream
# ----------------------------------------------------------------------
def _expat_segments(
    data: Union[str, bytes, memoryview],
    strip_whitespace: bool,
    skip=None,
) -> Iterator[List[Event]]:
    """Parse ``data`` with expat, yielding batches of pure-dialect events.

    Raises :exc:`_Fallback` on any parse error — the caller owns the
    replay.  The handler bodies are the throughput floor of the whole
    accelerated plane, hence the caching: START/END events are interned
    per tag, so the steady state allocates one tuple per *distinct*
    element name rather than two per element.

    With a ``skip`` set the handlers run in one of two modes: normal
    event emission, or (between a skippable non-root start tag and its
    matching end) a count-only mode that verifies every interior tag and
    tallies the node ids the subtree would have consumed, emitting a
    single SKIP event at the close.  A tag the set cannot verify raises
    :exc:`_Fallback` — expat cannot rewind, but the pure replay runs with
    the *same* skip set and the skip decision is a deterministic function
    of (document, skip set), so the replayed stream reproduces the
    delivered prefix exactly (then tokenizes the offending region
    normally, which is the correct continuation).
    """
    expat_mod = _expat_module()
    parser = expat_mod.ParserCreate()
    parser.buffer_text = True
    parser.ordered_attributes = True  # flat [name, value, ...] in document order
    # Fewer, larger character-data deliveries: one join per text run
    # instead of one per 8 KiB of buffered input.
    parser.buffer_size = 1 << 16

    out: List[Event] = []
    append = out.append
    parts: List[str] = []
    parts_append = parts.append
    starts: dict = {}
    ends: dict = {}
    tuple_new = tuple.__new__
    # ``content.isspace()`` scans without allocating; ``content.strip()``
    # would build a stripped copy of every text run just to test it.
    keep_all = not strip_whitespace

    def start_element(name, attrs):
        if parts:
            content = "".join(parts)
            parts.clear()
            if keep_all or (content and not content.isspace()):
                append(tuple_new(Event, (TEXT, "#text", content)))
        # Tag caches hit on all but the first sighting of each distinct
        # tag, so the subscript (no miss-sentinel compare) beats ``get``;
        # attribute pairs below miss constantly and keep the ``get`` path.
        try:
            append(starts[name])
        except KeyError:
            if len(starts) >= _CACHE_LIMIT:
                starts.clear()
                ends.clear()
            event = starts[name] = tuple_new(Event, (START, name, None))
            ends[name] = tuple_new(Event, (END, name, None))
            append(event)
        if attrs:
            # No value cache here: attribute values on key-bearing
            # documents are mostly distinct (that is what keys are), so a
            # ``(name, value)`` cache misses more than it hits and the
            # bookkeeping costs more than the tuple it occasionally saves.
            if len(attrs) == 2:  # the overwhelmingly common one-attribute case
                append(tuple_new(Event, (ATTR, attrs[0], attrs[1])))
                return
            pairs = iter(attrs)
            for attr_name, attr_value in zip(pairs, pairs):
                append(tuple_new(Event, (ATTR, attr_name, attr_value)))

    def end_element(name):
        if parts:
            content = "".join(parts)
            parts.clear()
            if keep_all or (content and not content.isspace()):
                append(tuple_new(Event, (TEXT, "#text", content)))
        try:
            append(ends[name])
        except KeyError:  # start_element interned it unless the cache reset
            event = ends[name] = tuple_new(Event, (END, name, None))
            append(event)

    def flush_misc(*_unused):
        # Comments and PIs segment text exactly like the pure tokenizer:
        # they flush the accumulated run.  (expat never reports character
        # data outside the document element, so no guard is needed.)
        if parts:
            content = "".join(parts)
            parts.clear()
            if keep_all or (content and not content.isspace()):
                append(tuple_new(Event, (TEXT, "#text", content)))

    if skip:
        skip_attempt = skip.attempt
        # Inline SkipSet.verifies: a dict probe defaulting to the anonymous
        # "any other label" verdict.  This runs once per elided element.
        skip_verdict = skip.verdicts.get
        skip_other = skip.other_safe
        depth = 0  # open elements in normal mode (the root is never skipped)
        skip_depth = 0
        skip_ids = 0
        skip_tag = ""
        plain_start = start_element
        plain_end = end_element
        plain_flush = flush_misc

        def start_element(name, attrs):  # noqa: F811 - skip-aware wrapper
            nonlocal depth, skip_depth, skip_ids, skip_tag
            if skip_depth:
                if not skip_verdict(name, skip_other):
                    raise _Fallback  # the pure replay re-decides identically
                if parts:
                    # Count the text run the full stream would have
                    # emitted without joining the pieces: the id tally
                    # needs only "would a text event flush here", which
                    # is "some piece has a non-space character" (or any
                    # flush at all in keep-whitespace mode).
                    if keep_all:
                        skip_ids += 1
                    else:
                        for piece in parts:
                            if piece and not piece.isspace():
                                skip_ids += 1
                                break
                    parts.clear()
                skip_depth += 1
                # One id for the element, one per attribute (expat rejects
                # duplicate names, so every pair is distinct).
                skip_ids += 1 + (len(attrs) >> 1)
                return
            if depth and name in skip_attempt:
                if parts:  # text preceding the subtree is real output
                    content = "".join(parts)
                    parts.clear()
                    if keep_all or (content and not content.isspace()):
                        append(tuple_new(Event, (TEXT, "#text", content)))
                skip_depth = 1
                skip_tag = name
                skip_ids = 1 + (len(attrs) >> 1)
                return
            depth += 1
            plain_start(name, attrs)

        def end_element(name):  # noqa: F811 - skip-aware wrapper
            nonlocal depth, skip_depth, skip_ids
            if skip_depth:
                if parts:
                    if keep_all:
                        skip_ids += 1
                    else:
                        for piece in parts:
                            if piece and not piece.isspace():
                                skip_ids += 1
                                break
                    parts.clear()
                skip_depth -= 1
                if not skip_depth:
                    append(tuple_new(Event, (SKIP, skip_tag, skip_ids)))
                return
            depth -= 1
            plain_end(name)

        def flush_misc(*_unused):  # noqa: F811 - skip-aware wrapper
            nonlocal skip_ids
            if skip_depth:
                if parts:
                    if keep_all:
                        skip_ids += 1
                    else:
                        for piece in parts:
                            if piece and not piece.isspace():
                                skip_ids += 1
                                break
                    parts.clear()
                return
            plain_flush()

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = parts_append  # C-to-C, no Python frame
    parser.CommentHandler = flush_misc
    parser.ProcessingInstructionHandler = flush_misc
    # An empty-string sentinel per CDATA section: ``<![CDATA[]]>`` must
    # yield an (empty) text event in keep-whitespace mode, as pure does.
    parser.StartCdataSectionHandler = lambda: parts_append("")
    parser.EndCdataSectionHandler = lambda: None

    final = "" if isinstance(data, str) else b""
    parse = parser.Parse
    try:
        # One pause for the whole parse, not one per segment: every
        # re-enable triggers a gen-0 collection that walks the ~100k
        # young event tuples, so fewer enables means fewer walks.  The
        # pause spans the batch yields; if the stream is abandoned the
        # suspended ``with`` unwinds on generator close and re-enables.
        with _gc_paused():
            for cursor in range(0, len(data), _SEGMENT):
                parse(data[cursor : cursor + _SEGMENT], False)
                if out:
                    yield out
                    out = []
                    append = out.append
            parse(final, True)
    except expat_mod.ExpatError:
        raise _Fallback from None
    if out:
        yield out


# ----------------------------------------------------------------------
# Source coercion + the public accelerated entry point
# ----------------------------------------------------------------------
def _buffer_events(
    data: Union[str, bytes, bytearray, memoryview, "mmap.mmap"],
    strip_whitespace: bool,
    skip=None,
) -> Iterator[Event]:
    """Tokenize one fully materialized document with expat.

    On any parse error the pure tokenizer replays the *whole* document
    (prolog included), so the consumer sees its canonical events and
    errors; the events already delivered by the C backend are skipped by
    count — the two streams are identical up to the failure point, or
    the probe would have fallen back before parsing.

    The flattening runs through :func:`itertools.chain.from_iterable`
    rather than a per-event ``yield``: the consumer iterates event lists
    at C speed instead of resuming a generator frame 100k+ times per
    megabyte.  Only the batch producer below is a generator, so the
    ``except _Fallback`` still catches errors raised mid-parse, and a
    batch is counted as emitted only after the consumer has drained it
    and pulled the next one.
    """
    from repro.xmlmodel import events as events_mod

    is_str = isinstance(data, str)

    def pure() -> Iterator[Event]:
        return events_mod.iter_events(
            data if is_str else decode_buffer(data),
            strip_whitespace=strip_whitespace, engine=PURE, skip=skip,
        )

    if _diverges(data):
        return pure()
    try:
        if is_str:
            root = events_mod._skip_string_prolog(data)
        else:
            root = _skip_bytes_prolog(data, len(data))
    except XMLSyntaxError:
        return pure()
    if root >= len(data) or data[root] not in ("<", 0x3C):
        return pure()
    if is_str:
        body: Union[str, memoryview] = data if root == 0 else data[root:]
    else:
        body = memoryview(data)[root:]

    def batches() -> Iterator[Iterable[Event]]:
        emitted = 0
        try:
            for batch in _expat_segments(body, strip_whitespace, skip):
                yield batch
                emitted += len(batch)
        except _Fallback:
            # The replay runs with the *same* skip set: skip decisions are
            # a deterministic function of (document, skip set), so the
            # pure stream reproduces the delivered prefix event-for-event
            # and the count-based resume stays exact.
            replay = pure()
            if emitted:
                next(itertools.islice(replay, emitted, emitted), None)
            yield replay

    return itertools.chain.from_iterable(batches())


def _mapped_events(path: str, strip_whitespace: bool, skip=None) -> Iterator[Event]:
    """Tokenize a file by path: ``mmap`` it and feed the map zero-copy.

    The mapping is released by a terminal link in the returned chain
    rather than a wrapping generator: a ``yield from`` wrapper would put
    one Python frame resume on *every* event, which is exactly the
    per-event overhead this module exists to remove.  A stream abandoned
    mid-iteration drops its references and CPython closes the map and
    handle at dealloc.
    """
    handle = open(path, "rb")
    try:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError:  # zero-length file cannot be mapped
        try:
            data = handle.read()
        finally:
            handle.close()
        return _buffer_events(data, strip_whitespace, skip)
    except BaseException:
        handle.close()
        raise
    inner = _buffer_events(mapped, strip_whitespace, skip)
    return itertools.chain(inner, _release_mapping(mapped, handle))


def _release_mapping(mapped: "mmap.mmap", handle) -> Iterator[Event]:
    """An empty tail iterator that closes the map once the stream ends."""
    try:
        mapped.close()
    except BufferError:  # pragma: no cover - a leaked exported view
        pass
    handle.close()
    return
    yield  # pragma: no cover - unreachable; makes this a generator


def _materialize(source) -> Union[str, bytes]:
    """Buffer a file-like object or chunk iterable for expat."""
    read = getattr(source, "read", None)
    if read is not None:
        return read()
    pieces = list(source)
    if not pieces:
        return ""
    if isinstance(pieces[0], str):
        return "".join(pieces)
    return b"".join(pieces)


def accelerated_events(
    source, strip_whitespace: bool, resolved: str, skip=None
) -> Optional[Iterator[Event]]:
    """The accelerated side of :func:`repro.xmlmodel.events.iter_events`.

    ``resolved`` is the output of :func:`resolve_engine` (never ``pure``).
    Returns ``None`` when ``auto`` decides the source belongs on the pure
    tokenizer: small strings (fixed costs dominate), and file-like objects
    or chunk iterables (whose bounded-memory contract buffering would
    break).  An *explicit* backend request accepts every source and
    buffers when it must.
    """
    if resolved == AUTO:
        if _expat_module() is None:  # pragma: no cover - expat ships with CPython
            return None
        if isinstance(source, (str, bytes, bytearray, memoryview, mmap.mmap)):
            if len(source) < _AUTO_THRESHOLD:
                return None
            return _buffer_events(source, strip_whitespace, skip)
        if hasattr(source, "__fspath__"):
            return _mapped_events(os.fspath(source), strip_whitespace, skip)
        return None
    if isinstance(source, (str, bytes, bytearray, memoryview, mmap.mmap)):
        return _buffer_events(source, strip_whitespace, skip)
    if hasattr(source, "__fspath__"):
        return _mapped_events(os.fspath(source), strip_whitespace, skip)
    return _buffer_events(_materialize(source), strip_whitespace, skip)
