"""PR-7 accelerated tokenizer front-end: resolution, parity, fallback.

The accelerated plane (:mod:`repro.xmlmodel.accel`) must be *invisible*:
same events, same errors, same positions as the pure tokenizer, for every
source kind it accepts.  These tests pin

* engine resolution (``None`` is ``auto``; ``pure`` and ``expat`` are
  the only names; an unavailable backend is a :exc:`ValueError`);
* event-for-event parity on the adversarial corpus in both whitespace
  modes;
* error parity (exception type, message, position) on malformed inputs;
* the capability probe: documents expat would silently normalize
  (BOM, carriage returns, tabs/newlines in attribute values) fall back
  to the pure tokenizer rather than diverge;
* mid-stream failure: events already emitted are not re-emitted when the
  replay fallback takes over;
* source plumbing: str, bytes, bytearray, memoryview, mmap, paths
  (including empty files), file-likes and chunk iterables;
* the segmented parse loop (tiny ``_SEGMENT``) and the ``auto``
  small-input heuristic.
"""

import io
import mmap

import pytest

from test_chunk_boundaries import ADVERSARIAL_DOCUMENTS

from repro.xmlmodel import accel
from repro.xmlmodel.accel import available_backends, resolve_engine
from repro.xmlmodel.events import iter_events
from repro.xmlmodel.parser import XMLSyntaxError
from repro.xmlmodel.shards import fragment_events

MALFORMED_DOCUMENTS = {
    "mismatched-close": "<a><b></a>",
    "undefined-entity-eof": "<a>&bogus text",
    "space-after-lt": "<a>< b/></a>",
    "unterminated-cdata": "<a><![CDATA[oops</a>",
    "unquoted-attribute": "<a attr=novalue/>",
    "unterminated-comment": "<a><!-- never closed",
    "two-roots": "<a></a><b></b>",
    "no-markup": "text only",
    "empty": "",
}

#: Constructs expat normalizes away from the pure dialect — the probe
#: must route all of these to the pure tokenizer.
PROBE_DOCUMENTS = {
    "carriage-returns": "<a>line1\r\nline2</a>",
    "bare-carriage-return": "<a>one\rtwo</a>",
    "byte-order-mark": "\ufeff<a>x</a>",
    "tab-in-double-quoted-attr": '<a k="v\tw">x</a>',
    "newline-in-single-quoted-attr": "<a k='v\nw'>y</a>",
}


def outcome(source, strip=True, engine=None):
    """Events, or the error signature — comparable across engines."""
    try:
        return ("events", list(
            iter_events(source, strip_whitespace=strip, engine=engine)
        ))
    except XMLSyntaxError as error:
        return ("error", type(error).__name__, str(error), error.position)


def prefix_and_error(source, engine):
    """Consume until a raise: (events so far, error signature or None)."""
    events = []
    try:
        for event in iter_events(source, engine=engine):
            events.append(event)
    except XMLSyntaxError as error:
        return events, (type(error).__name__, str(error), error.position)
    return events, None


# ----------------------------------------------------------------------
# Engine resolution
# ----------------------------------------------------------------------
class TestEngineResolution:
    def test_default_is_auto(self):
        assert resolve_engine() == "auto"

    @pytest.mark.parametrize("engine", ["pure", "expat"])
    def test_backend_names_resolve_to_themselves(self, engine):
        assert resolve_engine(engine) == engine

    @pytest.mark.parametrize(
        "engine", ["bogus", "accel", "  EXPAT "], ids=["bogus", "accel", "padded"]
    )
    def test_unknown_name_raises_value_error(self, engine):
        # No alias and no case folding: only "pure" and "expat" pin a backend.
        with pytest.raises(ValueError, match="unknown tokenizer engine"):
            iter_events("<a/>", engine=engine)

    def test_missing_expat_raises_value_error(self, monkeypatch):
        monkeypatch.setattr(accel, "_expat_module", lambda: None)
        with pytest.raises(ValueError, match="expat"):
            resolve_engine("expat")
        assert available_backends() == ("pure",)
        assert resolve_engine() == "auto"

    def test_available_backends_end_with_pure(self):
        backends = available_backends()
        assert backends[-1] == "pure"
        assert "expat" in backends


# ----------------------------------------------------------------------
# Event parity on the adversarial corpus
# ----------------------------------------------------------------------
class TestEventParity:
    @pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_DOCUMENTS))
    def test_adversarial_corpus(self, name, strip):
        document = ADVERSARIAL_DOCUMENTS[name]
        assert outcome(document, strip, "expat") == outcome(document, strip, "pure")

    def test_node_id_positions_match(self):
        # Node ids are positional in this dialect: equality of full event
        # streams on a document with repeated tags pins the numbering.
        document = "<r><a>1</a><a>2</a><b c='d'/><a>3</a></r>"
        assert outcome(document, engine="expat") == outcome(document, engine="pure")


# ----------------------------------------------------------------------
# Error parity on malformed inputs
# ----------------------------------------------------------------------
class TestErrorParity:
    @pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
    def test_same_error_type_message_position(self, name, strip):
        document = MALFORMED_DOCUMENTS[name]
        pure = outcome(document, strip, "pure")
        assert pure[0] == "error", "corpus document must be malformed"
        assert outcome(document, strip, "expat") == pure

    def test_midstream_failure_does_not_replay_emitted_events(self):
        document = "<r>" + "".join(f"<x>{i}</x>" for i in range(50)) + "<bad"
        pure_events, pure_error = prefix_and_error(document, "pure")
        accel_events, accel_error = prefix_and_error(document, "expat")
        assert pure_error is not None
        assert accel_error == pure_error
        assert accel_events == pure_events


# ----------------------------------------------------------------------
# The capability probe
# ----------------------------------------------------------------------
class TestCapabilityProbe:
    @pytest.mark.parametrize("name", sorted(PROBE_DOCUMENTS))
    def test_probed_documents_match_pure(self, name):
        document = PROBE_DOCUMENTS[name]
        for strip in (True, False):
            assert outcome(document, strip, "expat") == outcome(
                document, strip, "pure"
            )

    @pytest.mark.parametrize("name", sorted(PROBE_DOCUMENTS))
    def test_probe_detects_divergent_constructs(self, name):
        assert accel._diverges(PROBE_DOCUMENTS[name])
        assert accel._diverges(PROBE_DOCUMENTS[name].encode("utf-8"))

    def test_probe_accepts_benign_whitespace(self):
        # Tabs and newlines in *text* do not trip the probe — only inside
        # attribute values does expat normalize them.
        document = "<a>tab\there\nand a line</a>"
        assert not accel._diverges(document)
        assert not accel._diverges(document.encode("utf-8"))


# ----------------------------------------------------------------------
# Source plumbing
# ----------------------------------------------------------------------
class TestSources:
    REFERENCE = ADVERSARIAL_DOCUMENTS["comments"]

    def test_buffer_sources_match_text(self):
        raw = self.REFERENCE.encode("utf-8")
        expected = outcome(self.REFERENCE, engine="pure")
        for source in (raw, bytearray(raw), memoryview(raw)):
            assert outcome(source, engine="expat") == expected

    def test_path_source_uses_mmap(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text(self.REFERENCE, encoding="utf-8")
        assert outcome(target, engine="expat") == outcome(
            self.REFERENCE, engine="pure"
        )

    def test_mmap_source_directly(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text(self.REFERENCE, encoding="utf-8")
        with open(target, "rb") as handle:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                assert outcome(mapped, engine="expat") == outcome(
                    self.REFERENCE, engine="pure"
                )

    def test_empty_file_matches_pure_error(self, tmp_path):
        # Zero-length files cannot be mmap-ed; the fallback read must
        # still produce the pure tokenizer's error.
        target = tmp_path / "empty.xml"
        target.write_bytes(b"")
        assert outcome(target, engine="expat") == outcome("", engine="pure")

    def test_file_like_and_chunk_iterable(self):
        expected = outcome(self.REFERENCE, engine="pure")
        assert outcome(io.StringIO(self.REFERENCE), engine="expat") == expected
        chunks = [self.REFERENCE[i : i + 5] for i in range(0, len(self.REFERENCE), 5)]
        assert outcome(iter(chunks), engine="expat") == expected

    def test_abandoned_stream_releases_the_file(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text("<r>" + "<a>x</a>" * 200 + "</r>", encoding="ascii")
        stream = iter_events(target, engine="expat")
        next(stream)
        del stream  # CPython refcounting must close the map and handle
        # The file stays usable (re-tokenized) after the abandoned stream.
        assert outcome(target, engine="expat")[0] == "events"


# ----------------------------------------------------------------------
# Segmentation and the auto heuristic
# ----------------------------------------------------------------------
class TestSegmentsAndAuto:
    @pytest.mark.parametrize("segment", [1, 7, 64])
    def test_tiny_segments_match(self, monkeypatch, segment):
        monkeypatch.setattr(accel, "_SEGMENT", segment)
        for name in ("cdata", "entities"):
            document = ADVERSARIAL_DOCUMENTS[name]
            assert outcome(document, engine="expat") == outcome(
                document, engine="pure"
            )

    def test_auto_declines_small_strings(self):
        assert accel.accelerated_events("<a/>", True, "auto") is None

    def test_auto_accepts_large_strings(self, monkeypatch):
        monkeypatch.setattr(accel, "_AUTO_THRESHOLD", 0)
        stream = accel.accelerated_events("<a>x</a>", True, "auto")
        assert stream is not None
        assert list(stream) == list(iter_events("<a>x</a>", engine="pure"))

    def test_auto_declines_file_likes(self):
        # Buffering would break the bounded-memory contract of streams.
        assert accel.accelerated_events(io.StringIO("<a/>"), True, "auto") is None

    def test_explicit_backend_accepts_file_likes(self):
        stream = accel.accelerated_events(io.StringIO("<a>x</a>"), True, "expat")
        assert list(stream) == list(iter_events("<a>x</a>", engine="pure"))
