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
accelerated backend for in-memory strings and file paths, and leaves
file-like objects and chunk iterables on the pure incremental tokenizer,
whose peak memory is bounded by the longest token rather than the
document.  Expat always emits the full stream: a run with a
:class:`~repro.xmlmodel.static.SkipSet` goes to the string scanner of
:mod:`repro.xmlmodel.events`, the one tokenizer that elides subtrees, so
no skip set reaches this module.  Only the tokenizer entry points of
:mod:`repro.xmlmodel` (:func:`~repro.xmlmodel.events.iter_events` and
:func:`~repro.xmlmodel.shards.fragment_events`) take an ``engine=``
keyword, so tests and benchmarks can pin each backend; every plane above
consumes :class:`~repro.xmlmodel.events.Event` streams and never names
one.

Expat is only ever given text.  A file given by path is read whole and
decoded as UTF-8 by :func:`~repro.xmlmodel.events.read_document`, the
reader every plane shares, so the probe, the prolog skip and the replay
all see the one string the other planes see; byte buffers were decoded
by :func:`~repro.xmlmodel.events.iter_events` before they get here.
"""

from __future__ import annotations

import gc
import itertools
import re
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.xmlmodel.events import ATTR, END, START, TEXT, Event, read_document
from repro.xmlmodel.parser import XMLSyntaxError

#: ``tokenizer.calls`` label of the default, source-routed backend choice.
AUTO = "auto"
PURE = "pure"
EXPAT = "expat"

#: Characters fed to the C parser per ``Parse`` call.  Events are handed to
#: the consumer between segments, so peak accelerated memory is one
#: segment's events (and its slice), not the whole document's.
_SEGMENT = 1 << 18

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
# between attributes instead of walking every character.
_DIVERGENCE = re.compile("=[ \t\n]*(?:\"[^\"]*[\t\n]|'[^']*[\t\n])")


def _diverges(data: str) -> bool:
    """Whether expat could normalize ``data`` away from pure."""
    if data.startswith("\ufeff") or "\r" in data:
        return True
    if "\t" not in data and "\n" not in data:
        return False
    return _DIVERGENCE.search(data) is not None


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
def _expat_segments(data: str, root: int, strip_whitespace: bool) -> Iterator[List[Event]]:
    """Parse ``data`` from ``root`` with expat, yielding batches of
    pure-dialect events.

    ``root`` is the offset of the root element's ``<``: the prolog is the
    pure tokenizer's dialect and is never handed to expat.  Each segment
    is sliced from there, so a prolog does not cost a copy of the body.

    Raises :exc:`_Fallback` on any parse error — the caller owns the
    replay.  The handler bodies are the throughput floor of the whole
    accelerated plane, hence the caching: START/END events are interned
    per tag, so the steady state allocates one tuple per *distinct*
    element name rather than two per element.  Every node is emitted:
    eliding skippable subtrees is the string scanner's job alone.
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

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = parts_append  # C-to-C, no Python frame
    parser.CommentHandler = flush_misc
    parser.ProcessingInstructionHandler = flush_misc
    # An empty-string sentinel per CDATA section: ``<![CDATA[]]>`` must
    # yield an (empty) text event in keep-whitespace mode, as pure does.
    parser.StartCdataSectionHandler = lambda: parts_append("")
    parser.EndCdataSectionHandler = lambda: None

    parse = parser.Parse
    try:
        # One pause for the whole parse, not one per segment: every
        # re-enable triggers a gen-0 collection that walks the ~100k
        # young event tuples, so fewer enables means fewer walks.  The
        # pause spans the batch yields; if the stream is abandoned the
        # suspended ``with`` unwinds on generator close and re-enables.
        with _gc_paused():
            for cursor in range(root, len(data), _SEGMENT):
                parse(data[cursor : cursor + _SEGMENT], False)
                if out:
                    yield out
                    out = []
                    append = out.append
            parse("", True)
    except expat_mod.ExpatError:
        raise _Fallback from None
    if out:
        yield out


# ----------------------------------------------------------------------
# Source coercion + the public accelerated entry point
# ----------------------------------------------------------------------
def _expat_events(data: str, strip_whitespace: bool) -> Iterator[Event]:
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

    def pure() -> Iterator[Event]:
        return events_mod.iter_events(data, strip_whitespace=strip_whitespace, engine=PURE)

    if _diverges(data):
        return pure()
    try:
        root = events_mod._skip_string_prolog(data)
    except XMLSyntaxError:
        return pure()
    if root >= len(data) or data[root] != "<":
        return pure()

    def batches() -> Iterator[Iterable[Event]]:
        emitted = 0
        try:
            for batch in _expat_segments(data, root, strip_whitespace):
                yield batch
                emitted += len(batch)
        except _Fallback:
            replay = pure()
            if emitted:
                next(itertools.islice(replay, emitted, emitted), None)
            yield replay

    return itertools.chain.from_iterable(batches())


def _materialize(source) -> str:
    """Buffer a file-like object or chunk iterable for expat."""
    read = getattr(source, "read", None)
    return read() if read is not None else "".join(source)


def accelerated_events(
    source, strip_whitespace: bool, resolved: str
) -> Optional[Iterator[Event]]:
    """The accelerated side of :func:`repro.xmlmodel.events.iter_events`.

    ``source`` is text, a path, a file-like object or a chunk iterable
    (byte buffers arrive decoded).  ``resolved`` is the output of
    :func:`resolve_engine` (never ``pure``).  Returns ``None`` when
    ``auto`` decides the source belongs on the pure tokenizer: small
    strings (fixed costs dominate), and file-like objects or chunk
    iterables (whose bounded-memory contract buffering would break).  A
    path is read here, past the size rule for text, so it reaches expat
    at any size.  An *explicit* backend request accepts every source and
    buffers when it must.  The stream is always the full one: a skip set
    never reaches this module, because only the string scanner elides.
    """
    if resolved == AUTO and _expat_module() is None:  # pragma: no cover
        return None  # expat ships with CPython
    if isinstance(source, str):
        if resolved == AUTO and len(source) < _AUTO_THRESHOLD:
            return None
        return _expat_events(source, strip_whitespace)
    if hasattr(source, "__fspath__"):
        return _expat_events(read_document(source), strip_whitespace)
    if resolved == AUTO:
        return None
    return _expat_events(_materialize(source), strip_whitespace)
