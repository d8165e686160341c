"""Unit tests for the XML parser (and its round trip with the serializer)."""

import pytest

from repro.experiments.scenarios import deep_nesting_chunks
from repro.xmlmodel.events import iter_events, tree_from_events
from repro.xmlmodel.parser import XMLSyntaxError, expand_entities, parse_document
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tree import XMLTree


class TestBasicParsing:
    def test_single_empty_element(self):
        tree = parse_document("<root/>")
        assert tree.root.label == "root"
        assert len(tree.root.children) == 0

    def test_element_with_text(self):
        tree = parse_document("<title>XML</title>")
        assert tree.root.text_content() == "XML"

    def test_attributes_single_and_double_quotes(self):
        tree = parse_document("""<book isbn="123" lang='en'/>""")
        assert tree.root.attribute_value("isbn") == "123"
        assert tree.root.attribute_value("lang") == "en"

    def test_nested_elements(self):
        tree = parse_document("<r><book><title>XML</title></book></r>")
        book = tree.root.child_elements("book")[0]
        assert book.child_elements("title")[0].text_content() == "XML"

    def test_self_closing_inside_parent(self):
        tree = parse_document("<r><empty/><b>x</b></r>")
        assert [c.label for c in tree.root.child_elements()] == ["empty", "b"]

    def test_whitespace_only_text_is_stripped_by_default(self):
        tree = parse_document("<r>\n  <a/>\n  <b/>\n</r>")
        assert [c.label for c in tree.root.children] == ["a", "b"]

    def test_whitespace_preserved_when_requested(self):
        tree = parse_document("<r>  <a/></r>", strip_whitespace=False)
        assert tree.root.children[0].is_text()

    def test_mixed_content_text_kept(self):
        tree = parse_document("<p>hello <b>world</b>!</p>")
        kinds = [child.label for child in tree.root.children]
        assert kinds == ["#text", "b", "#text"]


class TestPrologAndMisc:
    def test_xml_declaration_skipped(self):
        tree = parse_document('<?xml version="1.0" encoding="UTF-8"?><r/>')
        assert tree.root.label == "r"

    def test_doctype_skipped(self):
        tree = parse_document("<!DOCTYPE r SYSTEM 'r.dtd'><r/>")
        assert tree.root.label == "r"

    def test_doctype_with_internal_subset(self):
        source = "<!DOCTYPE r [<!ELEMENT r (#PCDATA)> <!ATTLIST r a CDATA #IMPLIED>]><r a='1'/>"
        tree = parse_document(source)
        assert tree.root.attribute_value("a") == "1"

    def test_comments_skipped(self):
        tree = parse_document("<!-- top --><r><!-- inner --><a/></r><!-- bottom -->")
        assert [c.label for c in tree.root.children] == ["a"]

    def test_processing_instruction_skipped(self):
        tree = parse_document("<r><?pi data?><a/></r>")
        assert [c.label for c in tree.root.children] == ["a"]

    def test_cdata_section(self):
        tree = parse_document("<r><![CDATA[a < b & c]]></r>")
        assert tree.root.text_content() == "a < b & c"


class TestEntities:
    def test_predefined_entities_in_text(self):
        tree = parse_document("<r>&lt;tag&gt; &amp; &quot;x&quot; &apos;y&apos;</r>")
        assert tree.root.text_content() == "<tag> & \"x\" 'y'"

    def test_entities_in_attributes(self):
        tree = parse_document('<r a="&lt;&amp;&gt;"/>')
        assert tree.root.attribute_value("a") == "<&>"

    def test_numeric_character_references(self):
        tree = parse_document("<r>&#65;&#x42;</r>")
        assert tree.root.text_content() == "AB"

    def test_unknown_entity_left_verbatim(self):
        tree = parse_document("<r>&unknown;</r>")
        assert tree.root.text_content() == "&unknown;"

    @pytest.mark.parametrize(
        "reference",
        ["&#1_0;", "&#+10;", "&# 10;", "&#x_a;", "&#X41;", "&#x;", "&#;"],
    )
    def test_reference_outside_the_grammar_left_verbatim(self, reference):
        # int() would read a sign, an underscore or blanks; the dialect
        # takes decimal digits, or 'x' and hex digits, only.
        assert expand_entities(f"a{reference}b") == f"a{reference}b"

    @pytest.mark.parametrize(
        "reference",
        ["&#1114112;", "&#99999999999999999999;", "&#x110000;", "&#" + "9" * 5000 + ";"],
        ids=["&#1114112;", "&#99999999999999999999;", "&#x110000;", "5000-digit-reference"],
    )
    def test_reference_past_the_code_point_range_left_verbatim(self, reference):
        tree = parse_document(f'<r k="{reference}">{reference}</r>')
        assert tree.root.text_content() == reference
        assert tree.root.attribute_value("k") == reference

    @pytest.mark.parametrize(
        "reference",
        ["&#0;", "&#x1;", "&#x1F;", "&#xD800;", "&#xDFFF;", "&#xFFFE;", "&#65535;"],
    )
    def test_reference_naming_no_xml_character_left_verbatim(self, reference):
        # XML's Char production excludes C0 controls but tab/LF/CR,
        # surrogates, U+FFFE and U+FFFF: no encoder or SQL literal could
        # carry them, so they stay as written.
        tree = parse_document(f'<r k="{reference}">{reference}</r>')
        assert tree.root.text_content() == reference
        assert tree.root.attribute_value("k") == reference

    @pytest.mark.parametrize(
        "reference, character",
        [
            ("&#9;", "\t"), ("&#xA;", "\n"), ("&#13;", "\r"), ("&#x20;", " "),
            ("&#xD7FF;", "\ud7ff"), ("&#xE000;", "\ue000"), ("&#xFFFD;", "\ufffd"),
            ("&#x10000;", "\U00010000"), ("&#x10FFFF;", "\U0010ffff"),
        ],
    )
    def test_char_production_bounds_expand(self, reference, character):
        assert expand_entities(f"a{reference}b") == f"a{character}b"


class TestDepth:
    @pytest.mark.parametrize("engine", ["pure", "expat"])
    def test_nesting_deeper_than_the_recursion_limit(self, engine):
        # parse_document is tree_from_events over iter_events; composing the
        # two reaches each backend.
        text = "".join(deep_nesting_chunks(depth=5000, repeat=1))
        tree = tree_from_events(iter_events(text, engine=engine))
        # chain + 5000 links + 5000 @n + payload + its text
        assert len(tree) == 10_003
        assert tree.elements_by_tag("payload")[0].text_content() == "bottom 0"


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "",
            "just text",
            "<r>",
            "<r></s>",
            "<r><a></r></a>",
            "<r a=></r>",
            "<r a='1></r>",
            "<r/><extra/>",
            "<r><![CDATA[never closed</r>",
        ],
    )
    def test_malformed_documents_raise(self, source):
        with pytest.raises(XMLSyntaxError):
            parse_document(source)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_document("<r></wrong>")
        assert excinfo.value.position >= 0


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "<r/>",
            "<r a='1' b='2'/>",
            "<r><a>x</a><b><c n='1'>y</c></b></r>",
            "<book isbn='123'><title>XML &amp; more</title></book>",
        ],
    )
    def test_parse_serialize_parse_is_stable(self, source):
        first = parse_document(source)
        text1 = serialize(first)
        second = parse_document(text1)
        assert XMLTree.value(first.root) == XMLTree.value(second.root)

    def test_figure1_like_document(self):
        source = """
        <r>
          <book isbn="123">
            <title>XML</title>
            <chapter number="1"><name>Introduction</name></chapter>
            <chapter number="10"><name>Conclusion</name></chapter>
          </book>
          <book isbn="234">
            <title>XML</title>
            <chapter number="1"><name>Getting Acquainted</name></chapter>
          </book>
        </r>
        """
        tree = parse_document(source)
        assert len(tree.elements_by_tag("book")) == 2
        assert len(tree.elements_by_tag("chapter")) == 3
