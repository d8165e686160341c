"""Unit tests for the single-pass streaming key checker."""

import pytest

from repro import obs
from repro.experiments.scenarios import ScenarioSpec, build_scenario, scenario_text
from repro.keys.key import XMLKey, parse_key
from repro.keys.satisfaction import satisfies, violations
from repro.keys.stream import KeyStreamChecker, stream_satisfies, stream_violations
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


def canonical(found):
    return sorted(
        (v.key.text, v.context_node_id, v.kind, tuple(sorted(v.node_ids))) for v in found
    )


VIOLATING_DOC = """
<r>
 <book isbn="1">
  <title>T</title>
  <chapter number="1">
   <name>A</name>
   <section number="1"><name>s</name></section>
   <section number="1"><name>s2</name></section>
  </chapter>
  <chapter number="1"><name>B</name></chapter>
  <chapter><name>C</name></chapter>
 </book>
 <book isbn="1"><title>U</title></book>
 <book><title>V</title><title>W</title></book>
</r>
"""


class TestStreamViolations:
    def test_satisfied_document(self, figure1, paper_keys):
        assert stream_violations(figure1, paper_keys) == []
        assert stream_satisfies(serialize(figure1), paper_keys)

    def test_single_key_argument(self, figure1, paper_keys):
        assert stream_violations(figure1, paper_keys[0]) == []

    def test_matches_dom_on_violating_document(self, paper_keys):
        tree = parse_document(VIOLATING_DOC)
        dom = [v for key in paper_keys for v in violations(tree, key)]
        stream = stream_violations(tree, paper_keys)
        assert canonical(stream) == canonical(dom)
        assert stream  # the document does violate the paper's keys

    def test_node_ids_match_dom_numbering(self, paper_keys):
        tree = parse_document(VIOLATING_DOC)
        text = serialize(tree)
        reparsed = parse_document(text)
        dom = [v for key in paper_keys for v in violations(reparsed, key)]
        stream = stream_violations(text, paper_keys)
        assert canonical(stream) == canonical(dom)

    def test_duplicate_chapter_numbers_found(self):
        key = parse_key("(//book, (chapter, {@number}))")
        found = stream_violations(parse_document(VIOLATING_DOC), key)
        assert any(v.kind == "duplicate-value" for v in found)

    def test_missing_attribute_found(self):
        key = parse_key("(//book, (chapter, {@number}))")
        found = stream_violations(parse_document(VIOLATING_DOC), key)
        assert any(v.kind == "missing-attribute" for v in found)

    def test_violations_sorted_by_key_then_context(self, paper_keys):
        found = stream_violations(parse_document(VIOLATING_DOC), paper_keys)
        order = [(paper_keys.index(v.key), v.context_node_id) for v in found]
        assert order == sorted(order)

    @pytest.mark.parametrize(
        "key_text",
        [
            "(., (//book/@isbn, {}))",  # attribute targets
            "(//book/@isbn, (//, {}))",  # attribute contexts
            "(//chapter, (., {@number}))",  # epsilon target
            "(., (//, {}))",  # descendant-only target
            "(//book, (//section, {@number}))",  # '//' in the target
        ],
    )
    def test_exotic_paths_match_dom(self, key_text):
        tree = parse_document(VIOLATING_DOC)
        key = parse_key(key_text)
        assert canonical(stream_violations(tree, key)) == canonical(violations(tree, key))
        assert stream_satisfies(tree, key) == satisfies(tree, key)

    def test_shared_context_keys_are_bucketed(self, paper_keys):
        checker = KeyStreamChecker(paper_keys)
        # K2/K3/K7 share the //book context, K4/K6 share //book/chapter.
        assert len(checker.buckets) < len(paper_keys)

    def test_single_pass_multi_key(self):
        tree = parse_document(VIOLATING_DOC)
        keys = [
            parse_key("(//book, (chapter, {@number}))"),
            parse_key("(//book, (title, {}))"),
        ]
        merged = stream_violations(tree, keys)
        separate = [v for key in keys for v in violations(tree, key)]
        assert canonical(merged) == canonical(separate)


class TestInjectedScenarios:
    def test_injected_counts_exact(self):
        spec = ScenarioSpec(
            num_fields=16,
            depth=3,
            num_keys=8,
            fanout=3,
            duplicate_violations=4,
            missing_violations=3,
            seed=11,
        )
        scenario = build_scenario(spec)
        found = stream_violations(scenario_text(scenario), scenario.keys)
        by_kind = {}
        for violation in found:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        assert by_kind == {
            "duplicate-value": scenario.expected_duplicates,
            "missing-attribute": scenario.expected_missing,
        }

    def test_clean_scenario_satisfies(self):
        spec = ScenarioSpec(num_fields=16, depth=3, num_keys=8, fanout=3, seed=2)
        scenario = build_scenario(spec)
        assert stream_satisfies(scenario_text(scenario), scenario.keys)


class TestMemoBound:
    """The checker's automaton memos are bounded per state, so check-doc
    memory does not grow with the number of distinct tag names."""

    @staticmethod
    def _memo_entries(distinct_tags):
        body = "".join(f"<t{i} id='{i}'><name/></t{i}>" for i in range(distinct_tags))
        keys = [parse_key("(., (//t1, {@id}))"), parse_key("(//t2, (name, {}))")]
        with obs.collect() as registry:
            stream_violations(f"<r>{body}</r>", keys, jobs=1)
        return registry.snapshot().gauge("check.nfa_memo_entries")

    def test_memo_entries_do_not_grow_with_distinct_tags(self):
        assert self._memo_entries(20_000) == self._memo_entries(40_000)
