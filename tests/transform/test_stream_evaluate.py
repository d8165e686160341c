"""Unit tests for the streaming evaluator (shredding over events)."""

from collections import Counter

from repro.relational.instance import NULL, is_null
from repro.transform.evaluate import evaluate_rule, evaluate_transformation
from repro.transform.rule import TableRule
from repro.transform.stream import (
    StreamShredder,
    iter_rule_rows,
    stream_evaluate_rule,
    stream_evaluate_transformation,
)
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize


def bag(instance):
    return Counter(instance.rows)


class TestStreamEvaluateRule:
    def test_paper_rules_agree_with_dom(self, figure1, sigma):
        text = serialize(figure1)
        for rule in sigma:
            dom = evaluate_rule(rule, figure1, deduplicate=False)
            stream = stream_evaluate_rule(rule, text, deduplicate=False)
            assert bag(dom) == bag(stream)

    def test_set_semantics(self, figure1, sigma):
        text = serialize(figure1)
        for rule in sigma:
            dom = evaluate_rule(rule, figure1, deduplicate=True)
            stream = stream_evaluate_rule(rule, text, deduplicate=True)
            assert set(dom.rows) == set(stream.rows)
            assert len(stream) == len(set(stream.rows))

    def test_accepts_tree_input(self, figure1, sigma):
        rule = sigma.rule("chapter")
        dom = evaluate_rule(rule, figure1, deduplicate=False)
        stream = stream_evaluate_rule(rule, figure1, deduplicate=False)
        assert bag(dom) == bag(stream)

    def test_unmatched_rule_produces_null_row(self, figure1):
        rule = TableRule("missing")
        rule.add_mapping("z", "xr", "//nothing")
        rule.add_mapping("zv", "z", "@v")
        rule.add_field("v", "zv")
        instance = stream_evaluate_rule(rule, figure1, deduplicate=False)
        assert len(instance) == 1
        assert is_null(instance.rows[0]["v"])

    def test_partial_nulls_for_missing_subelements(self, figure1, sigma):
        instance = stream_evaluate_rule(sigma.rule("book"), figure1)
        authors = {row["author"] for row in instance if not is_null(row["author"])}
        assert authors == {"Tim Bray"}
        assert any(is_null(row["author"]) for row in instance)  # the second book

    def test_multi_anchor_product(self):
        tree = parse_document('<r><a v="1"/><a v="2"/><b w="x"/><b w="y"/></r>')
        rule = TableRule("prod")
        rule.add_mapping("a", "xr", "a")
        rule.add_mapping("av", "a", "@v")
        rule.add_mapping("b", "xr", "b")
        rule.add_mapping("bw", "b", "@w")
        rule.add_field("v", "av")
        rule.add_field("w", "bw")
        dom = evaluate_rule(rule, tree, deduplicate=False)
        stream = stream_evaluate_rule(rule, tree, deduplicate=False)
        assert bag(dom) == bag(stream)
        assert len(stream) == 4

    def test_root_field_rule(self, figure1):
        rule = TableRule("whole")
        rule.add_field("doc", "xr")
        dom = evaluate_rule(rule, figure1, deduplicate=False)
        stream = stream_evaluate_rule(rule, figure1, deduplicate=False)
        assert bag(dom) == bag(stream)

    def test_nested_anchor_matches(self):
        tree = parse_document('<r><a id="1"><a id="2"><b v="x"/></a><b v="y"/></a></r>')
        rule = TableRule("nested")
        rule.add_mapping("a", "xr", "//a")
        rule.add_mapping("ai", "a", "@id")
        rule.add_mapping("ab", "a", "b")
        rule.add_mapping("abv", "ab", "@v")
        rule.add_field("id", "ai")
        rule.add_field("bv", "abv")
        dom = evaluate_rule(rule, tree, deduplicate=False)
        stream = stream_evaluate_rule(rule, tree, deduplicate=False)
        assert bag(dom) == bag(stream)

    def test_attribute_anchor(self, figure1):
        rule = TableRule("attr_anchor")
        rule.add_mapping("i", "xr", "//book/@isbn")
        rule.add_field("isbn", "i")
        stream = stream_evaluate_rule(rule, figure1, deduplicate=False)
        assert sorted(row["isbn"] for row in stream) == ["123", "234"]

    def test_duplicated_attribute_binds_one_node_with_final_value(self):
        # XML allows one attribute per name; the DOM parser keeps the last
        # occurrence.  The streaming evaluator must bind one attribute node
        # (with that final value), not one per attr event.
        rule = TableRule("dup")
        rule.add_mapping("za", "xr", "//chapter/@n")
        rule.add_field("n", "za")
        doc = '<book><chapter n="1" n="2">x</chapter></book>'
        dom = evaluate_rule(rule, parse_document(doc), deduplicate=False)
        stream = stream_evaluate_rule(rule, doc, deduplicate=False)
        assert bag(dom) == bag(stream)
        assert [dict(row) for row in stream.rows] == [{"n": "2"}]


class TestSharedPlan:
    """Streamers of one rule share its compiled plan and memo tables."""

    def test_plan_is_cached_by_rule_content(self):
        from repro.transform.stream import compile_rule

        def build():
            rule = TableRule("t")
            rule.add_mapping("a", "xr", "//a")
            rule.add_mapping("av", "a", "@v")
            rule.add_field("v", "av")
            return rule

        first, second = build(), build()
        assert compile_rule(first) is compile_rule(second)
        second.add_mapping("aw", "a", "@w")  # a mutated rule is a different rule
        second.add_field("w", "aw")
        assert compile_rule(first) is not compile_rule(second)

    def test_threads_filling_one_plan_agree_with_serial(self):
        import sys
        import threading

        from repro.transform.stream import _compile

        # Many distinct tags, so the threads race on memo misses.
        doc = "<r>" + "".join(
            f'<a v="{i}"><t{i % 40}><b x="{i % 7}">v{i}</b></t{i % 40}><b x="y"/></a>'
            for i in range(400)
        ) + "</r>"
        rule = TableRule("race")
        rule.add_mapping("a", "xr", "//a")
        rule.add_mapping("av", "a", "@v")
        rule.add_mapping("ab", "a", "t3/b")
        rule.add_mapping("abx", "ab", "@x")
        rule.add_mapping("ac", "a", "b")
        rule.add_field("v", "av")
        rule.add_field("x", "abx")
        rule.add_field("c", "ac")
        expected = list(iter_rule_rows(rule, doc))
        _compile.cache_clear()
        results = [None] * 8

        def work(slot):
            results[slot] = list(iter_rule_rows(rule, doc))

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(rows == expected for rows in results)


class TestIterRuleRows:
    def test_rows_stream_incrementally_per_anchor(self, figure1, sigma):
        rule = sigma.rule("chapter")
        rows = list(iter_rule_rows(rule, figure1))
        dom = evaluate_rule(rule, figure1, deduplicate=False)
        assert Counter(map(tuple, (sorted(r.items()) for r in map(dict, dom.rows)))) and len(
            rows
        ) == len(dom)

    def test_deduplicated_iteration(self, figure1):
        rule = TableRule("titles")
        rule.add_mapping("b", "xr", "//book")
        rule.add_mapping("t", "b", "title")
        rule.add_field("title", "t")
        rows = list(iter_rule_rows(rule, figure1, deduplicate=True))
        assert rows == [{"title": "XML"}]


class TestStreamShredder:
    def test_transformation_single_pass(self, figure1, sigma):
        text = serialize(figure1)
        dom = evaluate_transformation(sigma, figure1)
        stream = stream_evaluate_transformation(sigma, text)
        assert set(dom) == set(stream)
        for name in dom:
            assert set(dom[name].rows) == set(stream[name].rows)

    def test_respects_target_schema(self, figure1, sigma, paper_schema):
        instances = stream_evaluate_transformation(sigma, figure1, schema=paper_schema)
        assert instances["chapter"].schema.primary_key == frozenset({"inBook", "number"})

    def test_manual_feed_loop(self, figure1, sigma):
        from repro.xmlmodel.events import iter_tree_events

        shredder = StreamShredder(sigma)
        for event in iter_tree_events(figure1):
            shredder.feed(event)
        instances = shredder.finish()
        dom = evaluate_transformation(sigma, figure1)
        for name in dom:
            assert set(dom[name].rows) == set(instances[name].rows)
