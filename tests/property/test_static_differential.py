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
actual tags on the wire and aborted on mismatch.

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
  detail) on arbitrary — mostly invalid — documents.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.incremental import IncrementalEngine, insert, replace
from repro.keys.stream import stream_violations
from repro.parallel import run_sharded
from repro.transform.stream import stream_evaluate_rule
from repro.xmlmodel.dtd import parse_dtd, stream_dtd_violations
from repro.xmlmodel.events import iter_events
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.static import compile_plan

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
def random_dtds(draw):
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
    return parse_dtd("\n".join(lines))


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
