"""Serialization of the tree model back to XML text."""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.xmlmodel.nodes import ElementNode, Node
from repro.xmlmodel.tree import XMLTree


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


def serialize(
    tree_or_node: Union[XMLTree, ElementNode],
    indent: int = 2,
    xml_declaration: bool = False,
) -> str:
    """Serialize a tree or element to XML text.

    ``indent=0`` produces a compact single-line serialization; any positive
    value pretty-prints with that many spaces per nesting level.
    """
    root = tree_or_node.root if isinstance(tree_or_node, XMLTree) else tree_or_node
    lines: List[str] = []
    if xml_declaration:
        lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    _serialize_element(root, lines, indent)
    joiner = "\n" if indent > 0 else ""
    return joiner.join(lines)


def _serialize_element(root: ElementNode, lines: List[str], indent: int) -> None:
    """Append the lines of ``root``'s subtree, depth-first in document order.

    Iterative, so nesting depth is bounded by memory rather than the
    interpreter's recursion limit.  The stack holds elements still to open
    (with their nesting level) and finished lines (closing tags, text)
    waiting behind them; children are pushed in reverse so they pop in order.
    """
    stack: List[Union[Tuple[ElementNode, int], str]] = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        element, level = item
        pad = " " * (indent * level) if indent > 0 else ""
        attrs = "".join(
            f' {attr.name}="{_escape_attribute(attr.value)}"'
            for attr in element.attributes.values()
        )
        if not element.children:
            lines.append(f"{pad}<{element.tag}{attrs}/>")
            continue
        only_text = all(child.is_text() for child in element.children)
        if only_text:
            text = "".join(_escape_text(child.text) for child in element.children)  # type: ignore[attr-defined]
            lines.append(f"{pad}<{element.tag}{attrs}>{text}</{element.tag}>")
            continue
        lines.append(f"{pad}<{element.tag}{attrs}>")
        stack.append(f"{pad}</{element.tag}>")
        child_pad = " " * (indent * (level + 1)) if indent > 0 else ""
        for child in reversed(element.children):
            if child.is_element():
                stack.append((child, level + 1))  # type: ignore[arg-type]
            elif child.is_text():
                text = _escape_text(child.text.strip())  # type: ignore[attr-defined]
                if text:
                    stack.append(f"{child_pad}{text}")
