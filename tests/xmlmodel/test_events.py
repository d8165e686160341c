"""Unit tests for the event-driven tokenizer (the streaming front end)."""

import io

import pytest

from repro.xmlmodel.events import (
    ATTR,
    END,
    START,
    TEXT,
    Event,
    as_events,
    element_from_events,
    iter_events,
    iter_tree_events,
    tree_from_events,
)
from repro.xmlmodel.parser import XMLSyntaxError, parse_document
from repro.xmlmodel.serializer import serialize


def chunked(text, size):
    return iter(text[i : i + size] for i in range(0, len(text), size))


def kinds(events):
    return [event.kind for event in events]


class TestEventStream:
    def test_simple_element(self):
        events = list(iter_events('<a x="1">hi</a>'))
        assert events == [
            Event(START, "a"),
            Event(ATTR, "x", "1"),
            Event(TEXT, "#text", "hi"),
            Event(END, "a"),
        ]

    def test_self_closing_element(self):
        assert list(iter_events("<a/>")) == [Event(START, "a"), Event(END, "a")]

    def test_attribute_order_is_document_order(self):
        events = list(iter_events('<a b="2" a="1" c="3"/>'))
        assert [e.name for e in events if e.kind == ATTR] == ["b", "a", "c"]

    def test_whitespace_only_text_dropped_by_default(self):
        assert kinds(iter_events("<a> <b/> </a>")) == [START, START, END, END]

    def test_whitespace_kept_when_not_stripping(self):
        events = list(iter_events("<a> <b/></a>", strip_whitespace=False))
        assert events[1] == Event(TEXT, "#text", " ")

    def test_cdata_merges_with_surrounding_text(self):
        events = list(iter_events("<a>x<![CDATA[<&>]]>y</a>"))
        assert events[1] == Event(TEXT, "#text", "x<&>y")

    def test_comment_splits_text(self):
        events = list(iter_events("<a>x<!--c-->y</a>"))
        assert [e.value for e in events if e.kind == TEXT] == ["x", "y"]

    def test_entities_expanded(self):
        events = list(iter_events('<a v="&lt;&amp;&#65;">&gt;&#x41;</a>'))
        assert events[1].value == "<&A"
        assert events[2].value == ">A"

    def test_prolog_doctype_and_trailing_misc_skipped(self):
        text = (
            '<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r ANY>]>'
            "<!--pre--><r/><!--post--> "
        )
        assert kinds(iter_events(text)) == [START, END]


class TestChunkedInput:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    def test_chunked_equals_string(self, size):
        text = '<?xml version="1.0"?><r a="1&amp;2"><b>t<!--c-->u</b><![CDATA[]]><c/></r>'
        assert list(iter_events(chunked(text, size))) == list(iter_events(text))

    def test_file_like_input(self):
        text = '<r x="1"><b>text</b></r>'
        assert list(iter_events(io.StringIO(text))) == list(iter_events(text))

    def test_marker_spanning_chunk_boundary(self):
        text = "<a><!--" + "x" * 10 + "--><b/></a>"
        for size in (1, 5, 9):
            assert kinds(iter_events(chunked(text, size))) == [START, START, END, END]

    @pytest.mark.parametrize("size", [1, 7])
    def test_chunked_errors_match_string_errors(self, size):
        for text in ["<a><b></a>", "<a", "<a>text", "junk", "<a/><b/>"]:
            with pytest.raises(XMLSyntaxError) as string_error:
                list(iter_events(text))
            with pytest.raises(XMLSyntaxError) as chunked_error:
                list(iter_events(chunked(text, size)))
            assert str(string_error.value) == str(chunked_error.value)


class TestErrors:
    # The dialect's canonical messages and offsets, as literals: the
    # in-memory scanner, the chunked tokenizer and parse_document must all
    # report exactly these.
    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("<a><b></a>", "mismatched end tag </a> for <b>", 9),
            ("<a", "unterminated start tag", 0),
            ("<a>text", "unterminated element <a>", 7),
            ("<a><!--oops</a>", "unterminated construct (missing '-->')", 3),
            ("junk", "expected a root element", 0),
            ("<a/><b/>", "content after the root element", 4),
            ("<a foo=bar/>", "expected a quoted attribute value", 7),
            ('<a foo="1/>', "unterminated attribute value", 8),
            ("<a></ >", "expected a name", 5),
            ("<>", "expected a name", 1),
        ],
    )
    def test_errors_are_pinned(self, text, message, position):
        expected = f"{message} (at offset {position})"
        for source in (text, chunked(text, 1)):
            with pytest.raises(XMLSyntaxError) as error:
                list(iter_events(source))
            assert (str(error.value), error.value.position) == (expected, position)
        with pytest.raises(XMLSyntaxError) as error:
            parse_document(text)
        assert (str(error.value), error.value.position) == (expected, position)


class TestTreeBridge:
    def test_tree_from_events_matches_figure1(self, figure1):
        text = serialize(figure1, xml_declaration=True)
        via_events = tree_from_events(iter_events(text))
        assert serialize(via_events) == serialize(figure1)
        assert [(n.node_id, n.label) for n in via_events.iter_nodes()] == [
            (n.node_id, n.label) for n in figure1.iter_nodes()
        ]

    def test_iter_tree_events_round_trip(self, figure1):
        rebuilt = tree_from_events(iter_tree_events(figure1))
        assert serialize(rebuilt) == serialize(figure1)

    def test_incomplete_stream_rejected(self):
        with pytest.raises(ValueError):
            element_from_events([Event(START, "a")])

    def test_second_root_rejected(self):
        with pytest.raises(ValueError):
            element_from_events(
                [Event(START, "a"), Event(END, "a"), Event(START, "b"), Event(END, "b")]
            )


class TestAsEvents:
    def test_accepts_tree_string_chunks_and_events(self, figure1):
        text = serialize(figure1)
        reference = list(iter_events(text))
        assert list(as_events(figure1)) == list(iter_tree_events(figure1))
        assert list(as_events(text)) == reference
        assert list(as_events(chunked(text, 16))) == reference
        assert list(as_events(iter(reference))) == reference

    def test_empty_iterable_is_the_empty_document(self):
        with pytest.raises(XMLSyntaxError, match="expected a root element"):
            list(as_events(iter([])))
