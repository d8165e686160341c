"""Unit tests for the XML serializer."""

import pytest

from repro.experiments.scenarios import deep_nesting_chunks
from repro.xmlmodel.builder import document, element, text
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


class TestSerialize:
    def test_empty_element_self_closes(self):
        assert serialize(element("r")) == "<r/>"

    def test_attributes_rendered(self):
        rendered = serialize(element("book", {"isbn": "123", "lang": "en"}))
        assert rendered == '<book isbn="123" lang="en"/>'

    def test_text_only_element_on_one_line(self):
        rendered = serialize(element("title", text("XML")))
        assert rendered == "<title>XML</title>"

    def test_nested_elements_indented(self):
        rendered = serialize(element("r", element("a", text("x"))))
        assert rendered.splitlines() == ["<r>", "  <a>x</a>", "</r>"]

    def test_compact_mode(self):
        rendered = serialize(element("r", element("a", text("x"))), indent=0)
        assert rendered == "<r><a>x</a></r>"

    def test_xml_declaration(self):
        rendered = serialize(element("r"), xml_declaration=True)
        assert rendered.startswith('<?xml version="1.0"')

    def test_special_characters_escaped_in_text(self):
        rendered = serialize(element("t", text("a < b & c > d")))
        assert "&lt;" in rendered and "&amp;" in rendered and "&gt;" in rendered

    def test_quotes_escaped_in_attributes(self):
        rendered = serialize(element("t", {"a": 'say "hi" & go'}))
        assert "&quot;" in rendered and "&amp;" in rendered

    def test_accepts_tree_or_element(self):
        tree = document(element("r", element("a")))
        assert serialize(tree) == serialize(tree.root)

    def test_round_trip_preserves_structure(self):
        original = element(
            "r",
            element("book", {"isbn": "1&2"}, element("title", text("A<B"))),
        )
        reparsed = parse_document(serialize(original))
        book = reparsed.root.child_elements("book")[0]
        assert book.attribute_value("isbn") == "1&2"
        assert book.child_elements("title")[0].text_content() == "A<B"


def _signature(tree):
    """The tree as a pre-order list of node facts (recursion-free)."""
    facts = []
    for node in tree.root.iter_preorder(include_attributes=True):
        if node.is_element():
            facts.append(("element", node.tag, len(node.children)))
        elif node.is_attribute():
            facts.append(("attribute", node.name, node.value))
        else:
            facts.append(("text", node.text))
    return facts


class TestDeepNesting:
    """Nesting depth is bounded by memory, not the recursion limit."""

    @pytest.mark.parametrize("indent", [0, 2])
    def test_1500_deep_chain_round_trips(self, indent):
        source = "".join(deep_nesting_chunks(depth=1500, repeat=1))
        tree = parse_document(source)
        reparsed = parse_document(serialize(tree, indent=indent))
        assert _signature(reparsed) == _signature(tree)
        assert len(_signature(tree)) > 3000

