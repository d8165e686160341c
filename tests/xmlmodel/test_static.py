"""Unit tests for the static optimization plane (label graph, NFA
specialization, skip sets, plan compilation)."""

import pickle

import pytest

from repro.keys.key import parse_key
from repro.transform.rule import TableRule
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.events import SKIP, iter_events
from repro.xmlmodel.matching import PathNFA
from repro.xmlmodel.paths import parse_path
from repro.xmlmodel.static import (
    OTHER_LABEL,
    LabelGraph,
    SkipSet,
    SpecializedNFA,
    StaticPlan,
    compile_plan,
)

from tests.xmlmodel.elision import assert_elides_only


BOOK_DTD = """
<!ELEMENT r (book*)>
<!ELEMENT book (title, chapter*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT chapter (title, section*)>
<!ELEMENT section (title)>
<!ATTLIST book isbn ID #REQUIRED>
<!ATTLIST chapter number CDATA #REQUIRED>
"""


@pytest.fixture()
def dtd():
    return parse_dtd(BOOK_DTD)


# ----------------------------------------------------------------------
# LabelGraph
# ----------------------------------------------------------------------
class TestLabelGraph:
    def test_children_are_declared_labels_only(self, dtd):
        graph = LabelGraph(dtd)
        assert graph.children("book") == frozenset({"title", "chapter"})
        assert graph.children("title") == frozenset()
        assert graph.children("undeclared") == frozenset()

    def test_reachable_is_strict_descendant_closure(self, dtd):
        graph = LabelGraph(dtd)
        assert graph.reachable("book") == frozenset({"title", "chapter", "section"})
        assert graph.reachable("section") == frozenset({"title"})
        assert "r" not in graph.reachable("r")

    def test_root_labels_pin_declared_root(self, dtd):
        graph = LabelGraph(dtd)
        assert graph.root_labels() == frozenset({"r"})

    def test_reachable_handles_cycles(self):
        graph = LabelGraph(parse_dtd("<!ELEMENT a (a|b)*>\n<!ELEMENT b EMPTY>"))
        assert graph.reachable("a") == frozenset({"a", "b"})


# ----------------------------------------------------------------------
# SpecializedNFA: full-table transitions must agree with the on-line
# automaton for every label, declared or not.
# ----------------------------------------------------------------------
PATHS = ["//chapter", "book/chapter", "//book//section", "r//title", "//chapter/@number"]
TAG_RUNS = [
    ["r", "book", "chapter"],
    ["r", "book", "title"],
    ["book", "book", "chapter", "section"],
    ["zzz", "book", "chapter"],  # undeclared label takes the other column
    ["r", "zzz", "zzz", "section"],
]


class TestSpecializedNFA:
    @pytest.mark.parametrize("path_text", PATHS)
    @pytest.mark.parametrize("run", TAG_RUNS, ids=["-".join(r) for r in TAG_RUNS])
    def test_agrees_with_base_automaton(self, dtd, path_text, run):
        path = parse_path(path_text)
        base = PathNFA([path])
        spec = SpecializedNFA(path, dtd)
        base_state, spec_state = base.initial, spec.initial
        assert spec_state == frozenset(pos for _, pos in base_state.items)
        for tag in run:
            base_state = base.move(base_state, tag)
            spec_state = spec.advance(spec_state, tag)
            assert spec_state == frozenset(pos for _, pos in base_state.items)
            assert spec.accepts(spec_state) == (base_state.accepts == (0,))
            for name in ("number", "isbn", "nope"):
                completed = (base_state.attrs or {}).get(name, ())
                assert (name in spec.attr_names(spec_state)) == (completed == (0,))

    def test_alphabet_covers_mentioned_and_declared(self, dtd):
        spec = SpecializedNFA(parse_path("//chapter"), dtd)
        assert set(spec.alphabet) == {"r", "book", "title", "chapter", "section"}
        assert OTHER_LABEL not in spec.alphabet

    def test_mismatch_state_is_dead(self, dtd):
        spec = SpecializedNFA(parse_path("section/book"), dtd)
        mismatch = spec.advance(spec.initial, "book")
        assert mismatch == frozenset()
        assert spec.dead(mismatch)
        assert not spec.dead(spec.initial)

    def test_descendant_paths_have_no_dead_states(self, dtd):
        spec = SpecializedNFA(parse_path("//chapter"), dtd)
        assert spec.dead_states == frozenset()

    def test_without_dtd_nothing_is_dead(self):
        spec = SpecializedNFA(parse_path("section/book"))
        # With no content models, any label may follow any other: the
        # mismatch state is still unable to accept, but the analysis only
        # declares states dead relative to a DTD's declared labels.
        assert spec.advance(spec.initial, "book") == frozenset()

    def test_attribute_acceptance_at_target(self, dtd):
        spec = SpecializedNFA(parse_path("//chapter/@number"), dtd)
        at_chapter = spec.advance(spec.initial, "chapter")
        assert spec.attr_names(at_chapter) == frozenset({"number"})
        assert spec.can_accept_attribute(at_chapter)
        assert not spec.can_accept_attribute(spec.initial) or spec.attr_names(
            spec.initial
        )


# ----------------------------------------------------------------------
# SkipSet
# ----------------------------------------------------------------------
class TestSkipSet:
    def test_disabled_is_falsy_and_attempts_nothing(self):
        skip = SkipSet.disabled()
        assert not skip
        assert "anything" not in skip.attempt
        assert skip.unverified_tag.search("<anything>")

    def test_verdicts_fall_back_to_other_verdict(self):
        search = SkipSet({"a"}, {"a": True, "b": False}, other_safe=True).unverified_tag.search
        assert search("<a x='1'></a>") is None
        assert search("<ab/>") is None  # a longer name is not its prefix
        assert search("<b/>")
        assert search("<never-mentioned>") is None
        strict = SkipSet({"a"}, {"a": True}, other_safe=False).unverified_tag.search
        assert strict("<a></a>") is None
        assert strict("<x ")

    def test_nothing_rejected_finds_nothing(self):
        # Every label safe: close tags and self-closing tags find no hit.
        skip = SkipSet({"a"}, {"a": True}, other_safe=True)
        assert skip.unverified_tag.search("<a><b/> <c></c></a>") is None

    def test_pickles_across_process_boundaries(self):
        skip = SkipSet({"a", "b"}, {"a": True, "b": True, "c": False}, other_safe=True)
        clone = pickle.loads(pickle.dumps(skip))
        assert clone.attempt == skip.attempt
        assert clone.verdicts == skip.verdicts
        assert clone.other_safe == skip.other_safe


# ----------------------------------------------------------------------
# compile_plan
# ----------------------------------------------------------------------
class TestCompilePlan:
    def test_selective_key_yields_skippable_labels(self, dtd):
        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        assert isinstance(plan, StaticPlan)
        # chapter is the target (unsafe); r and book contain chapters.
        assert plan.skipset.attempt == frozenset({"section", "title"})
        assert plan.skipset.other_safe  # undeclared labels never match //chapter
        assert plan.skipset.attempt.isdisjoint({"chapter", "r", "book"})

    def test_key_touching_everything_disables_skipping(self, dtd):
        plan = compile_plan(dtd, keys=[parse_key("(., (//title, {}))")])
        # title occurs under every element: nothing is skippable.
        assert plan.skipset.attempt == frozenset()
        assert not plan.skipset

    def test_element_capturing_rule_disables_skipping(self, dtd):
        rule = TableRule("T")
        rule.add_mapping("v", rule.root_variable, "//book")
        rule.add_field("f", "v")
        plan = compile_plan(dtd, rules=[rule])
        assert plan.skip_disabled_by_rules
        assert not plan.skipset

    def test_attribute_anchored_rule_keeps_skipping(self, dtd):
        rule = TableRule("T")
        rule.add_mapping("v", rule.root_variable, "//chapter/@number")
        rule.add_field("f", "v")
        plan = compile_plan(dtd, rules=[rule])
        assert not plan.skip_disabled_by_rules
        assert "section" in plan.skipset.attempt

    def test_statically_dead_key_is_diagnosed(self, dtd):
        dead = parse_key("(., (//ghost, {@x}))")
        live = parse_key("(., (//book, {@isbn}))")
        plan = compile_plan(dtd, keys=[dead, live])
        assert dead in plan.dead_keys
        assert live in plan.live_keys
        assert dead not in plan.live_keys

    def test_describe_mentions_the_essentials(self, dtd):
        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        report = plan.describe()
        assert "static plan" in report
        assert "skippable labels" in report
        assert "section" in report

    def test_empty_workload_compiles(self, dtd):
        plan = compile_plan(dtd)
        assert plan.keys == ()
        assert plan.rules == ()


# ----------------------------------------------------------------------
# The tokenizer-level contract: a SKIP event elides exactly the ids the
# full stream would have spent on the subtree, so downstream node ids in
# the pruned and unpruned streams coincide.
# ----------------------------------------------------------------------
DOC = (
    "<r><book isbn='1'><title>T</title>"
    "<chapter number='1'><title>C</title><section><title>S</title></section></chapter>"
    "</book></r>"
)


class TestBulkFastForward:
    """The skip is one exact pattern match or a refusal.  On every
    document, with and without whitespace stripping, the pruned stream is
    the unpruned one with whole subtrees elided, each SKIP spending the
    ids its subtree spends, and it raises the unpruned stream's error."""

    DOCS = [
        DOC,
        # attribute-free regions (the simple-tag branch)
        "<r><book isbn='1'><title>T</title><chapter number='2'>"
        "<title>C</title><section><title> </title></section>"
        "<section><title></title></section></chapter></book></r>",
        # self-closing interior tags, single and double quotes
        '<r><book isbn="1"><title/><chapter number="n"><title/>'
        "<section><title>x</title></section></chapter></book></r>",
        # whitespace-only and mixed text runs
        "<r><book isbn='1'><title>  \n </title><chapter number='1'>"
        "<title>a b</title><section><title>\t</title></section></chapter></book></r>",
        # entities, comments, PIs and CDATA: the element tokenizes in full
        "<r><book isbn='1'><title>a&amp;b</title></book></r>",
        "<r><book isbn='1'><title>a<!-- c -->b</title></book></r>",
        "<r><book isbn='1'><title><?pi d?>x</title></book></r>",
        "<r><book isbn='1'><title><![CDATA[ z ]]></title></book></r>",
        # a close tag whose name shares the skipped label as a prefix
        "<r><book isbn='1'><chapter number='1'><title>T</title>"
        "<section><titlex>y</titlex></section></chapter></book></r>",
        # attributes inside the skipped region
        "<r><book isbn='1'><chapter number='1'><title>T</title>"
        "<section><title a='1' b='2'>s</title></section></chapter></book></r>",
        # tag-shaped and '='-bearing attribute values
        "<r><book isbn='1'><chapter number='1'><title a='<x>' b=\"</title>\">T</title>"
        "<section><title c='k=v' d='x>y'>s</title></section></chapter></book></r>",
        # '>', '=' and '&' in text
        "<r><book isbn='1'><chapter number='1'><title>a>b k=v x & y</title>"
        "<section><title> > </title></section></chapter></book></r>",
        # a skippable element nested inside itself
        "<r><book isbn='1'><chapter number='1'><title>T</title><section><section>"
        "<title>S</title></section> <section/></section></chapter></book></r>",
        # nesting beyond the bulk pattern's levels
        "<r><book isbn='1'><chapter number='1'><title>T</title>"
        + "<section> " * 14 + "<title>deep</title>" + "</section> " * 14
        + "</chapter></book></r>",
        # ill-formed regions: interleaved closes (balanced per label), a
        # close crossing a nested skippable element, and a stray close
        "<r><book isbn='1'><chapter number='1'><title>T</title>"
        "<section><title><x></title></x></section></chapter></book></r>",
        "<r><book isbn='1'><chapter number='1'><title>T</title><section><section>"
        "<title></section></title></section></chapter></book></r>",
        "<r><book isbn='1'><title>T</x></title></book></r>",
    ]

    #: Shapes with the SKIP events their pruned streams hold, in order.
    SHAPES = [
        # still skipped: a self-closing element with attributes, a close
        # tag with blanks before its '>', and nesting the pattern spells
        ("<r><book isbn='1'><title a='1' b=\"2\" /></book></r>", ["title"]),
        ("<r><book isbn='1'><title>T</title ></book></r>", ["title"]),
        (
            "<r><book isbn='1'><chapter number='1'><section>" + "<x>" * 12
            + "</x>" * 12 + "</section></chapter></book></r>",
            ["section"],
        ),
        # tokenized in full: an entity, comment, CDATA section or PI in
        # the region, 13 levels below the skipped element, and '>', '='
        # or '<' in its own attribute value
        ("<r><book isbn='1'><title>a&lt;b</title></book></r>", []),
        ("<r><book isbn='1'><title>a<!--c-->b</title></book></r>", []),
        ("<r><book isbn='1'><title><![CDATA[c]]></title></book></r>", []),
        ("<r><book isbn='1'><title>a<?pi?></title></book></r>", []),
        (
            "<r><book isbn='1'><chapter number='1'><section>" + "<x>" * 13
            + "</x>" * 13 + "</section></chapter></book></r>",
            [],
        ),
        ("<r><book isbn='1'><title a='x>y'>T</title></book></r>", []),
        ("<r><book isbn='1'><title a='k=v'/></book></r>", []),
        ("<r><book isbn='1'><title a='<t'>T</title></book></r>", []),
    ]

    @staticmethod
    def _pruned(dtd, doc, strip_whitespace):
        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        return assert_elides_only(
            iter_events(doc, strip_whitespace, skip=plan.skipset),
            iter_events(doc, strip_whitespace),
        )

    @pytest.mark.parametrize("strip_whitespace", [True, False])
    @pytest.mark.parametrize("doc", DOCS + [doc for doc, _ in SHAPES])
    def test_pruned_stream_elides_only(self, dtd, doc, strip_whitespace):
        self._pruned(dtd, doc, strip_whitespace)

    @pytest.mark.parametrize("doc, skipped", SHAPES)
    def test_skip_settles_or_refuses(self, dtd, doc, skipped):
        pruned = self._pruned(dtd, doc, True)
        assert [event.name for event in pruned if event.kind == SKIP] == skipped

    def test_duplicate_attribute_ids_match_the_scanner(self, dtd):
        # The scanner emits one attr event per occurrence, repeated names
        # included; the skip accounting must agree.
        doc = (
            "<r><book isbn='1'><chapter number='1'><title>T</title>"
            "<section><title a='1' a='2'>s</title></section></chapter></book></r>"
        )
        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        pruned = list(iter_events(doc, skip=plan.skipset))
        full = list(iter_events(doc))
        spent_full = sum(1 for e in full if e.kind in ("start", "attr", "text"))
        spent_pruned = sum(
            e.value if e.kind == SKIP else 1
            for e in pruned
            if e.kind in ("start", "attr", "text", SKIP)
        )
        assert spent_pruned == spent_full

    def test_auto_engine_prefers_pure_scanner_under_skip(self, dtd, monkeypatch, tmp_path):
        # With a non-empty skip set, auto sends text and paths to the
        # string scanner, the one tokenizer that elides; an explicit
        # expat request tokenizes in full.
        from repro.xmlmodel import accel

        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        calls = []
        original = accel.accelerated_events

        def spying(source, strip_whitespace, resolved):
            calls.append(resolved)
            return original(source, strip_whitespace, resolved)

        monkeypatch.setattr(accel, "accelerated_events", spying)
        path = tmp_path / "doc.xml"
        path.write_text(DOC)
        for source in (DOC, path):
            assert any(e.kind == SKIP for e in iter_events(source, skip=plan.skipset))
        assert calls == []  # the pure scanner handled both directly
        full = list(iter_events(DOC, engine="expat", skip=plan.skipset))
        assert calls == ["expat"]  # explicit requests are honored
        assert full == list(iter_events(DOC))


class TestSkipEvents:
    def test_skip_elides_whole_subtrees(self, dtd):
        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        events = list(iter_events(DOC, skip=plan.skipset))
        skips = [event for event in events if event.kind == SKIP]
        assert {event.name for event in skips} == {"title", "section"}
        assert all(isinstance(event.value, int) for event in skips)
        assert not any(
            event.kind != SKIP and event.name in {"section"} for event in events
        )

    def test_id_accounting_matches_full_stream(self, dtd):
        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        full = list(iter_events(DOC))
        pruned = list(iter_events(DOC, skip=plan.skipset))
        # Ids spent: every element, every attribute occurrence, every
        # flushed text event.  The pruned stream must spend exactly as many.
        spent_full = sum(1 for e in full if e.kind in ("start", "attr", "text"))
        spent_pruned = sum(
            e.value if e.kind == SKIP else 1
            for e in pruned
            if e.kind in ("start", "attr", "text", SKIP)
        )
        assert spent_pruned == spent_full

    def test_unsafe_interior_tag_aborts_the_skip(self, dtd):
        # A document that violates the DTD: a chapter nested inside a
        # section.  The section looks skippable, but fast-forwarding must
        # abort when it sees the chapter, and the answer stays exact.
        doc = (
            "<r><book isbn='1'>"
            "<section><chapter number='9'><title>X</title></chapter></section>"
            "</book></r>"
        )
        plan = compile_plan(dtd, keys=[parse_key("(., (//chapter, {@number}))")])
        pruned = list(iter_events(doc, skip=plan.skipset))
        # The section attempt was aborted (its events are all present);
        # only the innocent title subtree inside the chapter was elided.
        assert {e.name for e in pruned if e.kind == SKIP} == {"title"}
        assert [e for e in pruned if e.name == "chapter" and e.kind == "start"]
        assert [e for e in pruned if e.name == "section" and e.kind == "start"]
        # And the pruned stream is the full stream minus that one subtree.
        full = [e for e in iter_events(doc) if e.name not in ("title", "#text")]
        skipless = [e for e in pruned if e.kind != SKIP]
        assert skipless == full
