"""The structural scan answers exactly as the per-tag walk it replaced.

:func:`repro.xmlmodel.shards._scan_structure` settles each top-level child
with one regular-expression match and walks only the children that match
fails on.  Its result — root tag, prologue events, content range and
child offsets, or ``None`` — must be the per-tag walk's
(``tests/xmlmodel/shards_reference.py``) on every input, not only on
well-formed documents: the incremental engine's fragment validation and
the splitter's serial fallback both read the ``None``.

The generated texts mix the shapes the regular expression must read like
the walk (nested same-name elements, ``<``, ``>``, ``/>`` and ``</a>``
inside quoted values, ``>`` and ``/>`` in text, self-closing children,
close tags whose names do not match) with the ones it must hand to the
walk (comments, CDATA sections and processing instructions holding
``</a>``, nesting deeper than the pattern spells out), and then damage a
share of them (a stray ``<``, an unquoted value, a ``<!`` element, a
truncation) so the rejecting paths are compared too.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.incremental.engine as engine_module
from repro.incremental.engine import IncrementalEngine
from repro.xmlmodel import shards
from tests.xmlmodel.shards_reference import walk_structure

pytestmark = pytest.mark.slow

scan_settings = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

NAMES = ["a", "b", "ab"]
VALUES = ["1", "</a>", "<", ">", "/>", "<c>", "x y", "&lt;"]
TEXTS = ["t", " ", ">", "/>", "x/>", 'y="', "'", "&amp;"]
OPAQUE = ["<!--</a>-->", "<![CDATA[</a><b>]]>", "<?p </a>?>", "<!---->"]
DAMAGE = ["<", "</", "<b y=1>", "<!X>", "<b", '"', "<a x='1>", "</a", "<?"]


@st.composite
def attributes(draw):
    name = draw(st.sampled_from(["x", "y"]))
    value = draw(st.sampled_from(VALUES))
    quote = draw(st.sampled_from(['"', "'"]))
    if quote in value:
        quote = '"' if quote == "'" else "'"
    space = draw(st.sampled_from([" ", "  ", "\n"]))
    return f"{space}{name}={quote}{value}{quote}"


@st.composite
def elements(draw, depth=0):
    name = draw(st.sampled_from(NAMES))
    head = name + "".join(draw(st.lists(attributes(), max_size=2)))
    if depth >= 4 or draw(st.integers(min_value=0, max_value=3)) == 0:
        return f"<{head}{draw(st.sampled_from(['/>', ' />']))}"
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind == 0:
            parts.append(draw(st.sampled_from(TEXTS)))
        elif kind == 1:
            parts.append(draw(st.sampled_from(OPAQUE)))
        else:
            parts.append(draw(elements(depth + 1)))
    body = "".join(parts)
    # A chain deeper than the pattern spells out takes the walk.
    chain = draw(st.sampled_from([0, 0, 0, 2, shards._CHILD_NESTING + 1]))
    body = "<c>" * chain + body + "</c>" * chain
    # The walk does not compare close names; neither may the scan.
    close = draw(st.sampled_from([name, name, name, "b", "zz "]))
    return f"<{head}>{body}</{close}>"


@st.composite
def scan_inputs(draw):
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind == 0:
            pieces.append(draw(st.sampled_from(TEXTS + OPAQUE)))
        else:
            pieces.append(draw(elements()))
    root_attrs = "".join(draw(st.lists(attributes(), max_size=1)))
    text = f"<r{root_attrs}>" + "".join(pieces) + "</r>"
    damage = draw(st.integers(min_value=0, max_value=3))
    if damage == 1:
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(DAMAGE)) + text[at:]
    elif damage == 2:
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return text


def validation_outcome(fragment):
    """``None`` when the engine accepts the fragment, else its message."""
    engine = SimpleNamespace(_root_tag="r")
    try:
        IncrementalEngine._validate_fragment(engine, fragment)
    except ValueError as error:
        return str(error)
    return None


class TestScanEqualsWalk:
    @scan_settings
    @given(scan_inputs())
    def test_scan_equals_the_walk(self, text):
        assert shards._scan_structure(text) == walk_structure(text)

    @scan_settings
    @given(st.lists(elements(), min_size=1, max_size=3).map("".join))
    def test_well_formed_children_agree(self, content):
        # Undamaged content always has a root the walk accepts, so this
        # compares child offsets, not just two ``None``s.
        text = f"<r>{content}</r>"
        walked = walk_structure(text)
        assert walked is not None
        assert shards._scan_structure(text) == walked

    @scan_settings
    @given(scan_inputs())
    def test_fragment_validation_is_unchanged(self, text):
        fragment = text[3:-4] if text.startswith("<r>") and text.endswith("</r>") else text
        scanned = validation_outcome(fragment)
        with mock.patch.object(engine_module, "_scan_structure", walk_structure):
            walked = validation_outcome(fragment)
        assert scanned == walked
