"""The :class:`XMLTree` document wrapper.

An :class:`XMLTree` owns a root :class:`~repro.xmlmodel.nodes.ElementNode`
and assigns document-order identifiers to every node, exactly like the
numeric identifiers of Figure 1 in the paper.  It also implements the
``value`` function of the transformation semantics (Example 2.5): the string
produced by a pre-order traversal of a subtree.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.xmlmodel.nodes import ElementNode, Node, NodeKind, TextNode


class XMLTree:
    """A rooted, ordered XML document tree with node identifiers."""

    def __init__(self, root: ElementNode) -> None:
        if not isinstance(root, ElementNode):
            raise TypeError("the root of an XMLTree must be an element node")
        self._root = root
        self._nodes_by_id: Dict[int, Node] = {}
        self.reindex()

    # ------------------------------------------------------------------
    # Identity management
    # ------------------------------------------------------------------
    def reindex(self) -> None:
        """(Re)assign pre-order node identifiers after structural edits."""
        self._nodes_by_id.clear()
        next_id = 0
        for node in self._root.iter_preorder(include_attributes=True):
            node.node_id = next_id
            self._nodes_by_id[next_id] = node
            next_id += 1

    @property
    def root(self) -> ElementNode:
        return self._root

    def node(self, node_id: int) -> Node:
        """Return the node with the given document-order identifier."""
        try:
            return self._nodes_by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id} in this tree") from None

    def __len__(self) -> int:
        return len(self._nodes_by_id)

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes in document order (elements, attributes and text)."""
        for node_id in sorted(self._nodes_by_id):
            yield self._nodes_by_id[node_id]

    def iter_elements(self) -> Iterator[ElementNode]:
        for node in self.iter_nodes():
            if node.is_element():
                yield node  # type: ignore[misc]

    # ------------------------------------------------------------------
    # value() — Example 2.5 of the paper
    # ------------------------------------------------------------------
    @staticmethod
    def value(node: Node) -> str:
        """Return the pre-order traversal string of the subtree at ``node``.

        For attribute and text nodes this is simply their character data.
        For element nodes the paper's Example 2.5 shows the format
        ``(@number:1, name: (S: Introduction))`` — a parenthesised pre-order
        listing of attributes and children.  Two subtrees are value-equal iff
        their serializations are equal, which is all that the relational
        semantics requires.
        """
        if node.is_attribute():
            return node.value  # type: ignore[attr-defined]
        if node.is_text():
            return node.text  # type: ignore[attr-defined]
        return XMLTree._element_value(node)  # type: ignore[arg-type]

    @staticmethod
    def _element_value(element: ElementNode) -> str:
        # Leaf elements — most field values — take one pass over their text.
        parts = _attribute_parts(element)
        for child in element.children:
            if child.kind is not _TEXT:
                break
            text = child.text.strip()  # type: ignore[attr-defined]
            if text:
                parts.append("S:" + text)
        else:
            return compose_value(parts)
        # Otherwise an explicit stack of (element, its parts, remaining
        # children), so nesting depth is bounded by memory, not by the
        # interpreter's recursion limit.
        stack = [(element, _attribute_parts(element), iter(element.children))]
        while True:
            node, parts, children = stack[-1]
            for child in children:
                if child.kind is _TEXT:
                    text = child.text.strip()  # type: ignore[attr-defined]
                    if text:
                        parts.append("S:" + text)
                else:
                    element = child  # type: ignore[assignment]
                    stack.append(
                        (element, _attribute_parts(element), iter(element.children))
                    )
                    break
            else:
                stack.pop()
                value = compose_value(parts)
                if not stack:
                    return value
                stack[-1][1].append(f"{node.tag}: {value}")

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    def elements_by_tag(self, tag: str) -> List[ElementNode]:
        return [node for node in self.iter_elements() if node.label == tag]

    def find_first(self, tag: str) -> Optional[ElementNode]:
        for node in self.iter_elements():
            if node.label == tag:
                return node
        return None

    def copy(self) -> "XMLTree":
        """Deep copy of the document (new node objects, fresh identifiers)."""
        return XMLTree(_copy_element(self._root))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<XMLTree root={self._root.label!r} nodes={len(self)}>"


_TEXT = NodeKind.TEXT


def _attribute_parts(element: ElementNode) -> List[str]:
    attributes = element.attributes
    if not attributes:
        return []
    return [f"@{attr.name}:{attr.value}" for attr in attributes.values()]


def compose_value(parts: List[str]) -> str:
    """``value()`` of an element from its parts, in document order.

    The parts are ``@name:value`` per attribute, ``S:text`` per non-blank
    text child (stripped) and ``label: value`` per child element.  A leaf
    element holding a single piece of text collapses to that text, which
    matches how the paper populates relational fields such as ``title`` and
    ``name``.
    """
    if len(parts) == 1 and parts[0].startswith("S:"):
        return parts[0][2:]
    return "(" + ", ".join(parts) + ")"


def _copy_element(element: ElementNode) -> ElementNode:
    clone = ElementNode(element.tag)
    for attr_node in element.attributes.values():
        clone.set_attribute(attr_node.name, attr_node.value)
    for child in element.children:
        if child.is_element():
            clone.append_child(_copy_element(child))  # type: ignore[arg-type]
        elif child.is_text():
            clone.append_child(TextNode(child.text))  # type: ignore[attr-defined]
    return clone
