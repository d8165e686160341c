"""Differential pinning of the static optimization plane (PR 9).

The schema-guided plane — :func:`repro.xmlmodel.static.compile_plan` and
the :class:`~repro.xmlmodel.static.SkipSet` it produces — is a pure
*optimization*: consulting a plan may only change how fast an answer is
computed, never the answer.  These properties hold the plane to that
contract on random documents, random keys, random rules **and random
DTDs**, with no conformance assumption whatsoever: the documents here
routinely violate the DTD the plan was compiled from (wrong roots,
undeclared elements, stray attributes), and the pruned run must *still*
be answer-identical, because every skip is re-verified against the
actual tags on the wire and refused on mismatch.

* **Key checking** — :func:`stream_violations` with a plan equals the
  unpruned run violation-for-violation: kinds, witnesses, context ids,
  node ids *and rendered detail strings*, on both tokenizer backends;

* **Shredding** — :func:`stream_evaluate_rule` with a plan yields the
  exact row list (same rows, same order) under bag and set semantics;

* **Parallel** — :func:`run_sharded` with a plan matches its own
  unpruned run on merged violations and merged instances;

* **Incremental** — an :class:`IncrementalEngine` built with a plan
  stays indistinguishable from a plan-less twin across subtree deltas;

* **Validate-while-shredding** — :func:`stream_dtd_violations` equals
  the DOM :meth:`DTD.validate` witness-for-witness (kind, node id and
  detail) on arbitrary — mostly invalid — documents;

* **DTD keys** — :func:`keys_from_dtd`, the library bridge from a DTD's
  ``ID`` attributes to keys (no command calls it), derives exactly one
  absolute key per ``ID`` attribute, in declaration order, under a name
  that survives the key syntax;

* **The skip set itself** — :func:`compile_plan`'s skip set, read off
  each path's :class:`~repro.xmlmodel.matching.PathNFA` states, equals the
  table-walk reference of ``tests/xmlmodel/static_reference.py`` on
  ``attempt``, ``verdicts`` and ``other_safe``;

* **Damaged documents** — on ill-formed and markup-dense documents
  (interleaved closes, tag-shaped values, ``>``/``=``/``&`` in text, deep
  skippable nesting) a pruned stream is the unpruned one with whole
  subtrees elided, or raises the unpruned stream's syntax error, on text,
  path and sharded sources.
"""

import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.incremental import IncrementalEngine, insert, replace
from repro.keys import parse_keys
from repro.keys.stream import stream_violations
from repro.parallel import run_pipeline, run_sharded
from repro.transform.stream import stream_evaluate_rule
from repro.xmlmodel.dtd import keys_from_dtd, parse_dtd, stream_dtd_violations
from repro.xmlmodel.events import iter_events
from repro.xmlmodel.parser import XMLSyntaxError, parse_document
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.static import SkipSet, compile_plan

from tests.xmlmodel.elision import assert_elides_only
from tests.xmlmodel.static_reference import reference_skipset
from test_parallel_differential import (
    ATTRIBUTES,
    LABELS,
    differential_settings,
    fingerprint,
    table_rules,
    xml_documents,
    xml_keys,
)

pytestmark = pytest.mark.slow


# ----------------------------------------------------------------------
# Random DTDs over the documents' vocabulary.  Content models range from
# permissive (ANY, full choice) to narrow (one child label, EMPTY), so
# the compiled skip sets range from empty to aggressive; attribute
# declarations are drawn independently of what documents actually carry.
# ----------------------------------------------------------------------
@st.composite
def random_dtd_texts(draw):
    declared = draw(
        st.lists(st.sampled_from(LABELS), min_size=1, max_size=len(LABELS), unique=True)
    )
    lines = []
    for label in declared:
        model = draw(
            st.sampled_from(
                [
                    "EMPTY",
                    "ANY",
                    "(#PCDATA)",
                    "(" + "|".join(declared) + ")*",
                    f"({declared[0]}*)",
                    f"(#PCDATA|{declared[-1]})*",
                ]
            )
        )
        lines.append(f"<!ELEMENT {label} {model}>")
    for label in declared:
        for name in ATTRIBUTES:
            if draw(st.booleans()):
                attr_type = draw(st.sampled_from(["CDATA", "ID", "IDREF"]))
                default = draw(st.sampled_from(["#REQUIRED", "#IMPLIED"]))
                lines.append(f"<!ATTLIST {label} {name} {attr_type} {default}>")
    return "\n".join(lines)


def random_dtds():
    return random_dtd_texts().map(parse_dtd)


def witness(found):
    """Everything a DTD violation reports."""
    return [(v.kind, v.node_id, v.detail) for v in found]


# ----------------------------------------------------------------------
# 1. Key checking: pruned ≡ unpruned, per backend, on any document
# ----------------------------------------------------------------------
class TestPrunedCheckerDifferential:
    @differential_settings
    @given(
        tree=xml_documents(),
        keys=st.lists(xml_keys(), min_size=1, max_size=3),
        dtd=random_dtds(),
        engine=st.sampled_from([None, "pure"]),
    )
    def test_violations_identical(self, tree, keys, dtd, engine):
        compact = serialize(tree, indent=0)
        plan = compile_plan(dtd, keys=keys)
        unpruned = stream_violations(iter_events(compact, engine=engine), keys)
        pruned = stream_violations(
            iter_events(compact, engine=engine, skip=plan.skipset), keys, plan=plan
        )
        assert fingerprint(pruned) == fingerprint(unpruned)

    @differential_settings
    @given(tree=xml_documents(), keys=st.lists(xml_keys(), min_size=1, max_size=3), dtd=random_dtds())
    def test_backends_agree_under_pruning(self, tree, keys, dtd):
        compact = serialize(tree, indent=0)
        plan = compile_plan(dtd, keys=keys)
        default_run = stream_violations(compact, keys, plan=plan)
        pure_run = stream_violations(
            iter_events(compact, engine="pure", skip=plan.skipset), keys, plan=plan
        )
        assert fingerprint(default_run) == fingerprint(pure_run)


# ----------------------------------------------------------------------
# 2. Shredding: pruned rows ≡ unpruned rows, exact order
# ----------------------------------------------------------------------
class TestPrunedShredDifferential:
    @differential_settings
    @given(rule=table_rules(), tree=xml_documents(), dtd=random_dtds(), dedup=st.booleans())
    def test_rows_identical(self, rule, tree, dtd, dedup):
        compact = serialize(tree, indent=0)
        plan = compile_plan(dtd, rules=[rule])
        unpruned = stream_evaluate_rule(rule, compact, deduplicate=dedup)
        pruned = stream_evaluate_rule(rule, compact, deduplicate=dedup, plan=plan)
        assert pruned.rows == unpruned.rows


# ----------------------------------------------------------------------
# 3. Parallel: a plan handed to run_sharded changes nothing but speed
# ----------------------------------------------------------------------
class TestPrunedShardedDifferential:
    @differential_settings
    @given(
        rule=table_rules(),
        tree=xml_documents(),
        keys=st.lists(xml_keys(), min_size=1, max_size=2),
        dtd=random_dtds(),
        jobs=st.integers(min_value=2, max_value=4),
    )
    def test_sharded_run_identical(self, rule, tree, keys, dtd, jobs):
        compact = serialize(tree, indent=0)
        plan = compile_plan(dtd, keys=keys, rules=[rule])
        unpruned = run_sharded(
            compact, transformation=[rule], keys=keys, jobs=jobs, use_processes=False
        )
        pruned = run_sharded(
            compact,
            transformation=[rule],
            keys=keys,
            jobs=jobs,
            use_processes=False,
            plan=plan,
        )
        assert fingerprint(pruned.violations) == fingerprint(unpruned.violations)
        assert pruned.instances["R"].rows == unpruned.instances["R"].rows
        if not plan.skipset:
            assert pruned.skipped_subtrees == 0


# ----------------------------------------------------------------------
# 4. Incremental: a planned engine tracks a plan-less twin across deltas
# ----------------------------------------------------------------------
@st.composite
def fragments(draw):
    from repro.xmlmodel.builder import element, text

    node = element(draw(st.sampled_from(LABELS)))
    for name in ATTRIBUTES:
        if draw(st.booleans()):
            node.set_attribute(name, draw(st.sampled_from(["0", "1"])))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        child = element(draw(st.sampled_from(LABELS)))
        if draw(st.booleans()):
            child.append_child(text("t"))
        node.append_child(child)
    return serialize(node, indent=0)


class TestPrunedIncrementalDifferential:
    @differential_settings
    @given(
        tree=xml_documents(),
        keys=st.lists(xml_keys(), min_size=1, max_size=2),
        dtd=random_dtds(),
        edits=st.lists(fragments(), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_engine_with_plan_identical(self, tree, keys, dtd, edits, data):
        compact = serialize(tree, indent=0)
        plan = compile_plan(dtd, keys=keys)
        baseline = IncrementalEngine(keys=keys)
        planned = IncrementalEngine(keys=keys, plan=plan)
        try:
            count = baseline.load(compact)
        except ValueError:
            return  # childless roots stay on the batch planes
        planned.load(compact)
        assert fingerprint(planned.violations()) == fingerprint(baseline.violations())
        for fragment in edits:
            position = data.draw(st.integers(min_value=0, max_value=count))
            if position < count and data.draw(st.booleans()):
                delta = replace(position, fragment)
            else:
                delta = insert(min(position, count), fragment)
            baseline.apply(delta)
            planned.apply(delta)
            count = baseline.subtree_count
            assert planned.text() == baseline.text()
            assert fingerprint(planned.violations()) == fingerprint(
                baseline.violations()
            )


# ----------------------------------------------------------------------
# 5. Validate-while-shredding ≡ DOM validation, witness-for-witness
# ----------------------------------------------------------------------
class TestStreamingValidatorDifferential:
    @differential_settings
    @given(tree=xml_documents(), dtd=random_dtds(), engine=st.sampled_from([None, "pure"]))
    def test_streaming_matches_dom(self, tree, dtd, engine):
        compact = serialize(tree, indent=0)
        streamed = stream_dtd_violations(iter_events(compact, engine=engine), dtd)
        dom = dtd.validate(parse_document(compact))
        assert witness(streamed) == witness(dom)

    @differential_settings
    @given(tree=xml_documents(), dtd=random_dtds())
    def test_validity_verdicts_agree(self, tree, dtd):
        compact = serialize(tree, indent=0)
        streamed = stream_dtd_violations(compact, dtd)
        assert bool(streamed) == (not dtd.is_valid(parse_document(compact)))


#: ``(element, attribute)`` of every ``ID`` declaration in a DTD text.
ID_DECLARATION = re.compile(r"<!ATTLIST (\S+) (\S+) ID ")


class TestDTDKeyDerivation:
    @differential_settings
    @given(text=random_dtd_texts())
    def test_keys_are_the_id_attributes_in_declaration_order(self, text):
        keys = keys_from_dtd(parse_dtd(text))
        assert [(key.target.text, key.attribute_list) for key in keys] == [
            (f"//{element}", [attribute])
            for element, attribute in ID_DECLARATION.findall(text)
        ]

    @differential_settings
    @given(text=random_dtd_texts())
    def test_every_key_is_absolute(self, text):
        assert all(key.is_absolute for key in keys_from_dtd(parse_dtd(text)))

    @differential_settings
    @given(text=random_dtd_texts())
    def test_names_are_preserved(self, text):
        keys = keys_from_dtd(parse_dtd(text))
        assert [key.name for key in keys] == [
            f"dtd_id_{element}_{attribute}"
            for element, attribute in ID_DECLARATION.findall(text)
        ]
        back = parse_keys("\n".join(key.text for key in keys))
        assert back == keys
        assert [key.name for key in back] == [key.name for key in keys]

    @differential_settings
    @given(text=random_dtd_texts())
    def test_derivation_is_deterministic(self, text):
        first, second = (keys_from_dtd(parse_dtd(text)) for _ in range(2))
        assert [key.text for key in first] == [key.text for key in second]


# ----------------------------------------------------------------------
# 6. The skip set ≡ the table-walk reference
# ----------------------------------------------------------------------
class TestSkipSetDifferential:
    @differential_settings
    @given(
        dtd=random_dtds(),
        keys=st.lists(xml_keys(), max_size=3),
        rules=st.lists(table_rules(), max_size=2),
    )
    def test_skipset_matches_reference(self, dtd, keys, rules):
        skip = compile_plan(dtd, keys=keys, rules=rules).skipset
        reference = reference_skipset(dtd, keys=keys, rules=rules)
        assert skip.attempt == reference.attempt
        assert skip.verdicts == reference.verdicts
        assert skip.other_safe == reference.other_safe


# ----------------------------------------------------------------------
# 7. Damaged documents: pruning elides whole subtrees or nothing
# ----------------------------------------------------------------------
#: A key on ``//chapter`` makes every label but ``r``, ``book`` and
#: ``chapter`` skippable under this book schema; ``chapter`` is the only
#: label the skip set rejects.
DAMAGE_PLAN = compile_plan(
    parse_dtd(
        "<!ELEMENT r (book|chapter|section)*>\n<!ELEMENT book (title, chapter*)>\n"
        "<!ELEMENT chapter (title, section*)>\n<!ELEMENT title (#PCDATA)>\n"
        "<!ELEMENT section (title|section|para|note)*>\n"
        "<!ELEMENT para (#PCDATA|em|note)*>\n<!ELEMENT note (#PCDATA|em)*>\n"
        "<!ELEMENT em (#PCDATA)>\n<!ATTLIST chapter number CDATA #REQUIRED>\n"
    ),
    keys=parse_keys("K = (., (//chapter, {@number}))\n"),
)
DAMAGE_KEYS = DAMAGE_PLAN.keys
SKIPPABLE = ["title", "section", "para", "note", "em"]
#: The same attempts with undeclared labels unverified, so an ``x``
#: inside a skippable element refuses the skip.
STRICT_SKIP = SkipSet(SKIPPABLE, dict.fromkeys(SKIPPABLE, True), False)
DAMAGE_LABELS = SKIPPABLE + ["x", "book", "chapter"]
#: Skippable labels drawn most often, so damage lands in skipped regions.
ELEMENT_LABELS = SKIPPABLE + DAMAGE_LABELS
#: Text and attribute values, plain or markup-dense.  A markup character
#: makes the skip refuse its element, which is then tokenized in full, so
#: half the documents keep them out and leave their other damage within
#: the skip's reach.
PLAIN = (["t", " ", "\n "], ["1", "v", ""])
MARKUP = (
    PLAIN[0] + ["a>b", "k=v", "&amp;", "&#62;", "x & y"],
    PLAIN[1] + ["<title>", "</section>", "a=b", "x>y", "&lt;"],
)


@st.composite
def damaged_elements(draw, alphabet, depth=0):
    """One element as a token list: start tag, content, end tag."""
    texts, values = alphabet
    label = draw(st.sampled_from(ELEMENT_LABELS))
    start = "<" + label
    for name in draw(st.sampled_from([[], [], ["n"], ["number", "n"]])):
        quote = draw(st.sampled_from(['"', "'"]))
        start += f" {name}={quote}{draw(st.sampled_from(values))}{quote}"
    if depth >= 4 or draw(st.sampled_from([False, False, True])):
        return [start + "/>"]
    content = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            content.append(draw(st.sampled_from(texts)))
        else:
            content.extend(draw(damaged_elements(alphabet, depth + 1)))
    if draw(st.sampled_from([False] * 7 + [True])):
        # Nesting past the bulk skip's pattern levels.
        chain = draw(st.lists(st.sampled_from(ELEMENT_LABELS), min_size=11, max_size=15))
        opens = [f"<{tag}>" for tag in chain]
        content = opens + content + [f"</{tag}>" for tag in reversed(chain)]
    if depth and content and content[-1].startswith("</") and draw(st.booleans()):
        # Interleaved closes: the last child closes after its parent.
        return [start + ">"] + content[:-1] + [f"</{label}>", content[-1]]
    return [start + ">"] + content + [f"</{label}>"]


@st.composite
def damaged_documents(draw):
    """A document whose root content then takes up to two more damages."""
    alphabet = draw(st.sampled_from([PLAIN, MARKUP]))
    tokens = []
    for _ in range(draw(st.integers(1, 5))):
        tokens.extend(draw(damaged_elements(alphabet)))
    for _ in range(draw(st.integers(0, 2))):
        if not tokens:
            break
        damage = draw(st.sampled_from(["rename", "drop", "double"]))
        at = draw(st.integers(0, len(tokens) - 1))
        if damage == "rename" and tokens[at].startswith("</"):
            tokens[at] = f"</{draw(st.sampled_from(DAMAGE_LABELS))}>"
        elif damage == "drop":
            del tokens[at]
        else:
            tokens.insert(at, tokens[at])
    return "<r>" + "".join(tokens) + "</r>"


def pipeline_answer(doc, plan):
    try:
        run = run_pipeline(doc, keys=DAMAGE_KEYS, jobs=2, plan=plan, use_processes=False)
    except XMLSyntaxError as error:
        return error.message, error.position
    return fingerprint(run.violations)


class TestDamagedDocumentsDifferential:
    @differential_settings
    @given(doc=damaged_documents(), strip=st.booleans(), strict=st.booleans())
    def test_text_and_path_streams_elide_only(self, doc, strip, strict, tmp_path_factory):
        skip = STRICT_SKIP if strict else DAMAGE_PLAN.skipset
        assert_elides_only(
            iter_events(doc, strip_whitespace=strip, skip=skip),
            iter_events(doc, strip_whitespace=strip),
        )
        path = tmp_path_factory.getbasetemp() / "damaged.xml"
        path.write_text(doc)
        assert_elides_only(
            iter_events(path, strip_whitespace=strip, skip=skip),
            iter_events(path, strip_whitespace=strip),
        )

    @differential_settings
    @given(doc=damaged_documents())
    def test_sharded_answers_match(self, doc):
        assert pipeline_answer(doc, DAMAGE_PLAN) == pipeline_answer(doc, None)
