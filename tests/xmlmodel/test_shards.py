"""Unit tests for the document splitter (:mod:`repro.xmlmodel.shards`)."""

import pytest

from repro.xmlmodel.events import Event, END, iter_events
from repro.xmlmodel.shards import split_document


def replay(shards, strip_whitespace=True):
    return list(shards.replay_events(strip_whitespace=strip_whitespace))


def serial(text, strip_whitespace=True):
    return list(iter_events(text, strip_whitespace=strip_whitespace))


class TestSplitting:
    def test_basic_split_covers_all_children(self):
        text = "<r><a>1</a><b x='2'>2</b><c>3</c><d>4</d></r>"
        shards = split_document(text, 2)
        assert shards is not None
        assert len(shards) == 2
        assert sum(piece.subtrees for piece in shards.slices) == 4
        assert replay(shards) == serial(text)

    def test_more_shards_than_children_caps_at_children(self):
        text = "<r><a/><b/></r>"
        shards = split_document(text, 8)
        assert shards is not None
        assert len(shards) == 2
        assert [piece.subtrees for piece in shards.slices] == [1, 1]

    def test_prologue_carries_root_attributes(self):
        text = '<r id="1" note="a&amp;b"><a/><b/></r>'
        shards = split_document(text, 2)
        assert shards is not None
        assert [e.kind for e in shards.prologue_events] == ["start", "attr", "attr"]
        assert shards.prologue_events[2].value == "a&b"
        assert shards.prologue_ids == 3
        assert replay(shards) == serial(text)

    def test_top_level_text_comments_cdata_pis(self):
        text = (
            "<r>lead<a>1</a><!-- c -->mid<a>2</a>"
            "<![CDATA[raw <>&]]><a>3</a><?pi data?>tail</r>"
        )
        shards = split_document(text, 3)
        assert shards is not None
        assert replay(shards) == serial(text)
        assert replay(shards, strip_whitespace=False) == serial(
            text, strip_whitespace=False
        )

    def test_prolog_and_epilog_constructs(self):
        text = (
            '<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r ANY>]>'
            "<!-- head --><r><a>1</a><b>2</b></r><!-- tail --><?pi?>"
        )
        shards = split_document(text, 2)
        assert shards is not None
        assert replay(shards) == serial(text)

    def test_nested_same_tag_children(self):
        text = "<r><r><r/></r><r>x</r><r/></r>"
        shards = split_document(text, 2)
        assert shards is not None
        assert replay(shards) == serial(text)

    def test_entities_in_content_and_attributes(self):
        text = '<r><a v="&lt;&amp;&gt;">&#65;B</a><a>&quot;q&apos;</a></r>'
        shards = split_document(text, 2)
        assert shards is not None
        assert replay(shards) == serial(text)

    def test_self_closing_children(self):
        text = "<r><a/><b x='1'/><c/></r>"
        shards = split_document(text, 3)
        assert shards is not None
        assert replay(shards) == serial(text)

    def test_final_event_is_root_end(self):
        text = "<r><a/><b/></r>"
        shards = split_document(text, 2)
        events = replay(shards)
        assert events[-1] == Event(END, "r")


class TestSerialFallback:
    @pytest.mark.parametrize(
        "text",
        [
            "<r/>",  # childless root
            "<r>text only</r>",  # no element children
            "<r><only/></r>",  # a single subtree cannot be split
            "<r><a></r>",  # malformed: let the serial tokenizer error
            "<r><a/></r><r/>",  # content after the root element
            "not xml at all",
            "<root><a/><b/><",  # truncated input ending on a bare '<'
            "<root><a/><b/></",  # truncated input ending on '</'
        ],
    )
    def test_unsliceable_documents_return_none(self, text):
        assert split_document(text, 4) is None

    def test_num_shards_below_two_returns_none(self):
        assert split_document("<r><a/><b/></r>", 1) is None

    def test_slices_partition_the_content(self):
        text = "<r>x<a>1</a>y<b>2</b>z<c>3</c>w</r>"
        shards = split_document(text, 3)
        assert shards is not None
        assert shards.slices[0].start == shards.content_start
        assert shards.slices[-1].end == shards.content_end
        for left, right in zip(shards.slices, shards.slices[1:]):
            assert left.end == right.start


class TestDuplicateRootAttributes:
    def test_prologue_replays_raw_events_but_counts_one_id(self):
        # The tokenizer emits one attr event per occurrence; the DOM keeps
        # one node (last value wins), so the id budget counts names.
        text = '<r a="1" a="2" b="3"><x/><y/></r>'
        shards = split_document(text, 2)
        assert shards is not None
        assert [e.name for e in shards.prologue_events] == ["r", "a", "a", "b"]
        assert shards.prologue_ids == 3  # root + {a, b}
        assert replay(shards) == serial(text)


class TestIdAccounting:
    def test_consumed_ids_match_serial_numbering(self):
        """Prologue + per-shard event counts must reproduce reindex ids."""
        from repro.keys.stream import KeyStreamChecker

        text = '<r a="0"><x i="1">t</x><x i="2"/><x>u</x><x i="3"><y/></x></r>'
        shards = split_document(text, 2)
        assert shards is not None
        total = 0
        for index in range(len(shards)):
            checker = KeyStreamChecker([])
            for event in shards.prologue_events:
                checker.feed(event)
            checker.begin_shard(first=index == 0)
            consumed_prologue = checker._next_id
            assert consumed_prologue == shards.prologue_ids
            for event in shards.shard_events(index):
                checker.feed(event)
            total += checker._next_id - consumed_prologue
        serial_checker = KeyStreamChecker([])
        for event in iter_events(text):
            serial_checker.feed(event)
        assert shards.prologue_ids + total == serial_checker._next_id


class TestStructuralScan:
    """The scan settles each top-level child with one pattern match and
    walks only what the match fails on; offsets are the per-tag walk's
    (``tests/xmlmodel/shards_reference.py``) either way."""

    @staticmethod
    def offsets(text):
        from repro.xmlmodel.shards import _scan_structure
        from tests.xmlmodel.shards_reference import walk_structure

        scan = _scan_structure(text)
        assert scan == walk_structure(text)
        return scan[4] if scan is not None else None

    @staticmethod
    def matched(text, offset):
        from repro.xmlmodel.shards import _child_pattern

        return _child_pattern().match(text, offset) is not None

    @pytest.mark.parametrize(
        "text, offsets",
        [
            ("<r><a><a>x</a></a><a/></r>", [3, 18]),  # nested same-name child
            ('<r><a>x/><b y="</a>"/></a><c/></r>', [3, 26]),  # </a> in a value
            ('<r><a><b y="<c>"/></a><d/></r>', [3, 22]),  # a tag in a value
            ("<r><a>x/>y>z</a><c/></r>", [3, 16]),  # '/>' and '>' in text
            ('<r><a/><b x="1"/></r>', [3, 7]),  # self-closing children
            ("<r><a></x><y></a></r>", [3, 10]),  # close names are not compared
        ],
    )
    def test_the_pattern_reads_each_child_like_the_walk(self, text, offsets):
        assert self.offsets(text) == offsets
        assert all(self.matched(text, offset) for offset in offsets)

    @pytest.mark.parametrize(
        "text, offsets",
        [
            ("<r><a><!--</a>--></a><c/></r>", [3, 21]),
            ("<r><a><![CDATA[</a>]]></a><c/></r>", [3, 26]),
            ("<r><a><?p </a>?></a><c/></r>", [3, 20]),
            ("<r><a>" + "<b>" * 14 + "</b>" * 14 + "</a><c/></r>", [3, 108]),
        ],
        ids=["comment", "cdata", "pi", "deeper-than-the-pattern"],
    )
    def test_the_walk_settles_what_the_pattern_cannot(self, text, offsets):
        assert self.offsets(text) == offsets
        assert not self.matched(text, offsets[0])
        assert self.matched(text, offsets[1])

    @pytest.mark.parametrize(
        "text",
        [
            "<r><a><b y=1></b></a><c/></r>",  # unquoted value inside a child
            "<r><a><!X></a><c/></r>",  # a '<!' element inside a child
            "<r><a><b></a></r>",  # the root never closes
        ],
    )
    def test_a_child_the_walk_rejects_is_rejected(self, text):
        assert self.offsets(text) is None

    def test_mondial_shaped_documents_never_take_the_walk(self, monkeypatch):
        from repro.experiments.scenarios import mondial_shaped_chunks
        from repro.xmlmodel import shards

        def walk(text, pos):
            raise AssertionError(f"child at {pos} took the per-tag walk")

        text = "".join(mondial_shaped_chunks(countries=30, organizations=5))
        expected = self.offsets(text)
        monkeypatch.setattr(shards, "_walk_child", walk)
        assert shards._scan_structure(text)[4] == expected
