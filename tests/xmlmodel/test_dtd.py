"""Unit tests for the DTD subsystem (parsing, validation, key derivation)."""

import pytest

from repro.keys.satisfaction import satisfies
from repro.xmlmodel.builder import document, element, text
from repro.xmlmodel.dtd import (
    DTDSyntaxError,
    existence_facts,
    keys_from_dtd,
    parse_dtd,
)


BOOK_DTD = """
<!-- the book catalogue DTD of the running example -->
<!ELEMENT r (book*)>
<!ELEMENT book (author*, title, chapter*)>
<!ELEMENT author (name, contact?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT chapter (name, section*)>
<!ELEMENT section (name)>
<!ATTLIST book
          isbn ID #REQUIRED
          lang CDATA #IMPLIED
          format CDATA #FIXED "hardcover">
<!ATTLIST chapter number CDATA #REQUIRED>
<!ATTLIST section number CDATA #REQUIRED
                  ref IDREF #IMPLIED>
"""


@pytest.fixture()
def dtd():
    return parse_dtd(BOOK_DTD)


class TestParsing:
    def test_elements_parsed(self, dtd):
        assert set(dtd.elements) == {
            "r",
            "book",
            "author",
            "title",
            "name",
            "contact",
            "chapter",
            "section",
        }

    def test_root_defaults_to_first_declared_element(self, dtd):
        assert dtd.root_name == "r"

    def test_explicit_root_name(self):
        assert parse_dtd(BOOK_DTD, root_name="book").root_name == "book"

    def test_content_model_children(self, dtd):
        assert dtd.elements["book"].allowed_children() == {"author", "title", "chapter"}
        assert dtd.elements["title"].allowed_children() == set()
        assert dtd.elements["title"].allows_text

    def test_attlist_parsed(self, dtd):
        isbn = dtd.attributes[("book", "isbn")]
        assert isbn.attr_type == "ID"
        assert isbn.is_required and isbn.is_id
        lang = dtd.attributes[("book", "lang")]
        assert not lang.is_required
        fixed = dtd.attributes[("book", "format")]
        assert fixed.is_fixed and fixed.fixed_value == "hardcover"

    def test_attributes_of(self, dtd):
        assert {decl.name for decl in dtd.attributes_of("book")} == {"isbn", "lang", "format"}

    def test_required_attributes(self, dtd):
        names = {(decl.element, decl.name) for decl in dtd.required_attributes()}
        assert ("book", "isbn") in names
        assert ("chapter", "number") in names
        assert ("book", "lang") not in names

    def test_empty_and_any_content_models(self):
        dtd = parse_dtd("<!ELEMENT br EMPTY><!ELEMENT anything ANY>")
        assert dtd.elements["br"].is_empty
        assert dtd.elements["anything"].is_any
        assert dtd.elements["anything"].allows_text

    def test_garbage_rejected(self):
        with pytest.raises(DTDSyntaxError):
            parse_dtd("this is not a dtd")


def valid_doc():
    return document(
        element(
            "r",
            element(
                "book",
                {"isbn": "b1", "format": "hardcover"},
                element("author", element("name", text("A"))),
                element("title", text("XML")),
                element(
                    "chapter",
                    {"number": "1"},
                    element("name", text("Intro")),
                    element("section", {"number": "1", "ref": "b1"}, element("name", text("s"))),
                ),
            ),
        )
    )


class TestValidation:
    def test_valid_document(self, dtd):
        assert dtd.is_valid(valid_doc())

    def test_wrong_root(self, dtd):
        doc = document(element("library", element("book", {"isbn": "b1"})))
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "wrong-root" in kinds

    def test_undeclared_element(self, dtd):
        doc = document(element("r", element("magazine")))
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "undeclared-element" in kinds
        assert "unexpected-child" in kinds

    def test_missing_required_attribute(self, dtd):
        doc = document(element("r", element("book", element("title", text("X")))))
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "missing-required-attribute" in kinds

    def test_undeclared_attribute(self, dtd):
        doc = document(element("r", element("book", {"isbn": "b1", "publisher": "x"})))
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "undeclared-attribute" in kinds

    def test_fixed_attribute_mismatch(self, dtd):
        doc = document(element("r", element("book", {"isbn": "b1", "format": "paperback"})))
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "fixed-attribute-mismatch" in kinds

    def test_duplicate_id(self, dtd):
        doc = document(
            element("r", element("book", {"isbn": "same"}), element("book", {"isbn": "same"}))
        )
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "duplicate-id" in kinds

    def test_dangling_idref(self, dtd):
        doc = document(
            element(
                "r",
                element(
                    "book",
                    {"isbn": "b1"},
                    element(
                        "chapter",
                        {"number": "1"},
                        element("name", text("n")),
                        element("section", {"number": "1", "ref": "nowhere"}, element("name", text("s"))),
                    ),
                ),
            )
        )
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "dangling-idref" in kinds

    def test_unexpected_text(self, dtd):
        doc = document(element("r", "stray text", element("book", {"isbn": "b1"})))
        kinds = {v.kind for v in dtd.validate(doc)}
        assert "unexpected-text" in kinds

    def test_violation_str(self, dtd):
        doc = document(element("r", element("magazine")))
        assert any("magazine" in str(v) for v in dtd.validate(doc))


class TestConstraintExtraction:
    def test_id_attributes_become_absolute_keys(self, dtd):
        keys = keys_from_dtd(dtd)
        assert len(keys) == 1
        key = keys[0]
        assert key.is_absolute
        assert key.target.text == "//book"
        assert key.attributes == frozenset({"isbn"})

    def test_derived_keys_hold_on_valid_documents(self, dtd):
        # ID uniqueness is enforced by DTD validity, so the derived key must
        # be satisfied by every valid document.
        doc = valid_doc()
        assert dtd.is_valid(doc)
        for key in keys_from_dtd(dtd):
            assert satisfies(doc, key)

    def test_derived_keys_usable_for_propagation(self, dtd):
        from repro.core import check_propagation
        from repro.transform.dsl import parse_rule

        rule = parse_rule(
            """
            table book
              var b <- xr : //book
              var i <- b  : @isbn
              var t <- b  : title
              field isbn  = value(i)
              field title = value(t)
            """
        )
        keys = keys_from_dtd(dtd)
        # The DTD alone does not bound the number of <title> children, so the
        # FD needs the provider's at-most-one key in addition to the ID key.
        assert not check_propagation(keys, rule, "isbn -> title").holds
        from repro.keys.key import parse_key

        keys.append(parse_key("(//book, (title, {}))"))
        assert check_propagation(keys, rule, "isbn -> title").holds

    def test_existence_facts(self, dtd):
        facts = existence_facts(dtd)
        assert facts["book"] >= {"isbn", "format"}
        assert facts["chapter"] == {"number"}
        assert "author" not in facts


# ----------------------------------------------------------------------
# PR 9 pins: hostile / truncated declarations, declaration caches,
# and the streaming validator against the DOM validator.
# ----------------------------------------------------------------------
class TestParseErrorPinning:
    """parse_dtd's contract on malformed input: declarations the regex
    grammar cannot read are *ignored*; if nothing readable remains, the
    parse fails loudly with :class:`DTDSyntaxError`."""

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "   \n\t  ",
            "<!ELEMENT",  # truncated mid-keyword
            "<!ELEMENT r ",  # truncated before the content model
            "random garbage, no markup at all",
            "<!ATTLIST a >",  # ATTLIST with no attribute definitions
            "<!ATTLIST a x CDATA>",  # attribute definition missing its default
            "<!-- <!ELEMENT x (y)> -->",  # declarations inside comments don't count
        ],
        ids=[
            "empty",
            "whitespace",
            "truncated-keyword",
            "truncated-model",
            "garbage",
            "empty-attlist",
            "attdef-no-default",
            "commented-out",
        ],
    )
    def test_unreadable_input_raises(self, source):
        with pytest.raises(DTDSyntaxError):
            parse_dtd(source)

    def test_truncated_content_model_keeps_readable_prefix(self):
        # "(a,>" is cut short at the first ">": the declaration parses and
        # the child-name extraction still sees the labels before the cut.
        parsed = parse_dtd("<!ELEMENT r (a,>")
        assert parsed.elements["r"].allowed_children() == frozenset({"a"})

    def test_duplicate_element_declaration_last_wins(self):
        parsed = parse_dtd("<!ELEMENT r (a)*>\n<!ELEMENT r EMPTY>")
        assert parsed.elements["r"].is_empty

    def test_doctype_wrapper_sets_root_name(self):
        parsed = parse_dtd("<!DOCTYPE r [ <!ELEMENT r (a)> ]>")
        assert parsed.root_name == "r"

    def test_hostile_attlist_defaults_normalized(self):
        parsed = parse_dtd(
            '<!ELEMENT a EMPTY>\n<!ATTLIST a x CDATA #FIXED\n\t  "v">'
        )
        decl = parsed.attributes[("a", "x")]
        assert decl.is_fixed
        assert decl.default == '#FIXED "v"'


class TestDeclarationCaches:
    def test_allowed_children_is_cached(self, dtd):
        decl = dtd.elements["book"]
        first = decl.allowed_children()
        assert decl.allowed_children() is first
        assert first == frozenset({"author", "title", "chapter"})

    def test_path_nfa_attribute_matching_is_memoised(self):
        from repro.xmlmodel.matching import PathNFA
        from repro.xmlmodel.paths import parse_path

        nfa = PathNFA([parse_path("//book/@isbn")])
        state = nfa.move(nfa.initial, "book")
        # Attribute acceptance is computed once, with the state.
        assert state.attrs == {"isbn": (0,)}
        assert nfa.initial.attrs is None
        # The transition is memoised on the parent state ...
        assert nfa.initial.moves["book"] is state
        assert nfa.move(nfa.initial, "book") is state
        # ... and states are interned: every route to the same live pairs
        # ends at the same object, memo and attribute table included.
        assert nfa.move(state, "book") is state
        assert nfa.move(nfa.initial, "other") is nfa.initial
        assert state.moves["book"] is state


class TestStreamingValidator:
    """Deterministic pins of validate-while-shredding; the property suite
    (tests/property/test_static_differential.py) fuzzes the same
    equivalence on random documents and DTDs."""

    def _doc(self):
        return (
            "<r><book isbn='x1' format='hardcover'>"
            "<author><name>A</name></author><title>T</title>"
            "<chapter number='1'><name>C</name></chapter>"
            "</book></r>"
        )

    def test_valid_document_streams_clean(self, dtd):
        from repro.xmlmodel.dtd import stream_dtd_violations

        assert stream_dtd_violations(self._doc(), dtd) == []

    def test_streaming_matches_dom_witness_for_witness(self, dtd):
        from repro.xmlmodel.dtd import stream_dtd_violations
        from repro.xmlmodel.parser import parse_document

        bad = (
            "<r><book isbn='d' format='paperback'><wat/>"
            "<chapter><name>C</name></chapter></book>"
            "<book isbn='d'><title>T</title></book></r>"
        )
        streamed = stream_dtd_violations(bad, dtd)
        dom = dtd.validate(parse_document(bad))
        assert [(v.kind, v.node_id, v.detail) for v in streamed] == [
            (v.kind, v.node_id, v.detail) for v in dom
        ]
        kinds = {v.kind for v in streamed}
        assert {
            "fixed-attribute-mismatch",
            "undeclared-element",
            "duplicate-id",
            "missing-required-attribute",
        } <= kinds

    def test_streaming_validator_works_per_event(self, dtd):
        from repro.xmlmodel.dtd import DTDStreamValidator
        from repro.xmlmodel.events import iter_events

        validator = DTDStreamValidator(dtd)
        for event in iter_events(self._doc()):
            validator.feed(event)
        assert validator.finish() == []
