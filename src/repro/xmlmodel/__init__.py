"""XML data model substrate.

This package provides the tree model of XML documents used throughout the
library: element / attribute / text nodes with identities, document order,
a small parser and serializer, a programmatic builder, and the path language
``PL = {epsilon, label, /, //}`` of the paper (parsing, evaluation,
containment and concatenation).

The model deliberately mirrors Figure 1 of the paper: every node has a
numeric identifier, elements carry attributes as first-class nodes, and the
``value`` of a node is the string produced by a pre-order traversal of its
subtree (Example 2.5).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "nodes": ("AttributeNode", "ElementNode", "Node", "NodeKind", "TextNode"),
        "tree": ("XMLTree",),
        "builder": ("attr", "element", "text", "document"),
        "parser": ("parse_document", "XMLSyntaxError"),
        "events": (
            "ATTR",
            "END",
            "SKIP",
            "START",
            "TEXT",
            "Event",
            "as_events",
            "element_from_events",
            "iter_events",
            "iter_tree_events",
            "tree_from_events",
        ),
        "static": (
            "LabelGraph",
            "SkipSet",
            "SpecializedNFA",
            "StaticPlan",
            "compile_plan",
        ),
        "accel": ("available_backends",),
        "serializer": ("serialize",),
        "shards": (
            "DocumentShards",
            "ShardSlice",
            "split_document",
        ),
        "paths": (
            "PathExpression",
            "PathStep",
            "StepKind",
            "concat",
            "contains",
            "parse_path",
        ),
    },
)

__all__ = [
    "AttributeNode",
    "ElementNode",
    "Node",
    "NodeKind",
    "TextNode",
    "XMLTree",
    "attr",
    "element",
    "text",
    "document",
    "parse_document",
    "XMLSyntaxError",
    "ATTR",
    "END",
    "SKIP",
    "START",
    "TEXT",
    "Event",
    "LabelGraph",
    "SkipSet",
    "SpecializedNFA",
    "StaticPlan",
    "compile_plan",
    "as_events",
    "element_from_events",
    "iter_events",
    "iter_tree_events",
    "tree_from_events",
    "serialize",
    "available_backends",
    "DocumentShards",
    "ShardSlice",
    "split_document",
    "PathExpression",
    "PathStep",
    "StepKind",
    "concat",
    "contains",
    "parse_path",
]
