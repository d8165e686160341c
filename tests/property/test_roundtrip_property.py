"""Parser/serializer round-trip fuzzing.

For data-centric documents (the documents the paper shreds: no mixed
content, at most one text run per leaf) ``parse(serialize(tree))`` must
reproduce the tree node-for-node — tags, attribute order and values,
text — and ``parse(serialize(parse(doc)))`` must be identity on parsed
documents, including the edge cases the serializer has to escape (quotes,
angle brackets, ampersands, entity-looking text) and the ones the parser
has to assemble (CDATA runs, character references, attribute ordering).
``parse_document`` is the event tokenizer feeding ``tree_from_events``, so
these round trips pin the tokenizer too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.xmlmodel.builder import document, element, text
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize

pytestmark = pytest.mark.slow

roundtrip_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_NAMES = ["a", "b", "chapter", "x-1", "_n"]
# Attribute values may contain everything the serializer must escape; our
# parser does not normalize whitespace in attribute values, so tabs and
# newlines round-trip too.
_ATTR_VALUES = st.text(
    alphabet='abc<>&"\'\t\n ;#x0123', min_size=0, max_size=8
)
# Text content: no leading/trailing whitespace (the pretty-printer owns the
# surrounding whitespace) and not whitespace-only (stripped at parse time).
_TEXT = (
    st.text(alphabet="abc<>&'\";#x012 ", min_size=1, max_size=10)
    .map(str.strip)
    .filter(lambda value: value)
)


@st.composite
def data_centric_trees(draw):
    """Trees in the serializer's data-centric shape: an element holds either
    one text run or child elements, never mixed content."""

    def build(depth):
        node = element(draw(st.sampled_from(_NAMES)))
        for name in draw(st.lists(st.sampled_from(["p", "q", "r"]), max_size=3, unique=True)):
            node.set_attribute(name, draw(_ATTR_VALUES))
        if depth < 3 and draw(st.booleans()):
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                node.append_child(build(depth + 1))
        elif draw(st.booleans()):
            node.append_child(text(draw(_TEXT)))
        return node

    return document(build(0))


def assert_trees_equal(left, right):
    assert left.root is not None
    stack = [(left.root, right.root)]
    while stack:
        a, b = stack.pop()
        assert a.tag == b.tag
        assert [(n.name, n.value) for n in a.attributes.values()] == [
            (n.name, n.value) for n in b.attributes.values()
        ]
        assert len(a.children) == len(b.children)
        for ca, cb in zip(a.children, b.children):
            assert ca.kind == cb.kind
            if ca.is_text():
                assert ca.text == cb.text
            else:
                stack.append((ca, cb))
    # Same structure → same document-order identifiers.
    assert [(n.node_id, n.label) for n in left.iter_nodes()] == [
        (n.node_id, n.label) for n in right.iter_nodes()
    ]


class TestSerializeParseRoundTrip:
    @roundtrip_settings
    @given(tree=data_centric_trees(), indent=st.sampled_from([0, 2, 4]))
    def test_parse_of_serialize_is_identity(self, tree, indent):
        reparsed = parse_document(serialize(tree, indent=indent))
        assert_trees_equal(tree, reparsed)

    @roundtrip_settings
    @given(tree=data_centric_trees())
    def test_parse_serialize_parse_fixpoint(self, tree):
        first = parse_document(serialize(tree))
        second = parse_document(serialize(first))
        assert_trees_equal(first, second)
        assert serialize(first) == serialize(second)


class TestHandwrittenEdgeCases:
    @pytest.mark.parametrize(
        "doc",
        [
            "<a>x<![CDATA[<not-a-tag>&amp;]]>y</a>",
            "<a><![CDATA[]]></a>",
            '<a v="&quot;&apos;&lt;&gt;&amp;">&#65;&#x42;</a>',
            "<a>&undefined; &amp standalone &;</a>",
            '<a z="1" a="2" m="3"><b b="1" a="2"/></a>',
            "<a>  padded  </a>",
            '<?xml version="1.0"?><!DOCTYPE a [<!ENTITY x "y">]><a><!-- c --><b/></a>',
        ],
    )
    def test_parse_serialize_parse_is_identity(self, doc):
        first = parse_document(doc)
        second = parse_document(serialize(first))
        assert_trees_equal(first, second)

    def test_attribute_order_preserved(self):
        doc = '<a z="1" a="2" m="3"/>'
        reparsed = parse_document(serialize(parse_document(doc)))
        assert [n.name for n in reparsed.root.attributes.values()] == ["z", "a", "m"]
