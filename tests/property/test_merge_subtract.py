"""Retraction properties: ``merge(a, b).subtract(b) == a`` everywhere.

The incremental plane (:mod:`repro.incremental`) leans on one algebraic
fact: every mergeable shard state also supports subtracting the most
recently merged piece, restoring the pre-merge state exactly.  These
properties pin that inverse for random documents, rules, keys and shard
counts, on every state that crosses the merge seams:

* :class:`repro.transform.stream.RuleShardResult` — per-anchor row bags,
  match counters, root value parts;
* :class:`repro.keys.stream.CheckerShardResult` — flushed contexts and the
  root's partial hash indexes, including the node-id rebase round-trip;
* :class:`repro.relational.instance.FDViolationAccumulator` and
  :class:`~repro.relational.instance.RelationInstance` — the relational
  merge layer.

Each property also re-checks that the *merged* answer still matches the
serial plane after a merge → subtract → merge round-trip, so subtraction
cannot quietly corrupt state that later merges depend on.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.keys.stream import merge_shard_results, stream_violations
from repro.parallel import _ShardWorker
from repro.transform.stream import merge_rule_shards, stream_evaluate_rule
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.shards import split_document

from test_parallel_differential import (
    differential_settings,
    fingerprint,
    shard_counts,
    table_rules,
    xml_documents,
    xml_keys,
)

pytestmark = pytest.mark.slow


def _shard_outputs(compact, rules, keys, num_shards):
    """Per-shard mergeable states, or None when the document is unsliceable."""
    shards = split_document(compact, num_shards)
    if shards is None:
        return None, None
    worker = _ShardWorker(shards, rules, keys)
    return shards, [worker.run(index) for index in range(len(shards))]


class TestRuleShardResultSubtract:
    @differential_settings
    @given(rule=table_rules(), tree=xml_documents(), num_shards=shard_counts)
    def test_merge_then_subtract_restores_state(self, rule, tree, num_shards):
        compact = serialize(tree, indent=0)
        shards, outputs = _shard_outputs(compact, [rule], [], num_shards)
        if outputs is None or len(outputs) < 2:
            return
        states = [output.rules[0] for output in outputs]
        # Fold all shards but the last, snapshot, merge + subtract the last.
        accumulated = states[0]
        for state in states[1:-1]:
            accumulated.merge(state)
        snapshot = copy.deepcopy(accumulated)
        accumulated.merge(states[-1]).subtract(states[-1])
        assert accumulated == snapshot
        # The round-trip must not have corrupted anything the final merge
        # needs: re-merging still reproduces the serial row list.
        accumulated.merge(states[-1])
        merged = merge_rule_shards(rule, [accumulated], deduplicate=False)
        serial = stream_evaluate_rule(rule, compact, deduplicate=False)
        assert list(merged) == [row.as_dict() for row in serial.rows]

    @differential_settings
    @given(rule=table_rules(), tree=xml_documents(), num_shards=shard_counts)
    def test_subtracting_foreign_state_raises(self, rule, tree, num_shards):
        compact = serialize(tree, indent=0)
        shards, outputs = _shard_outputs(compact, [rule], [], num_shards)
        if outputs is None or len(outputs) < 2:
            return
        states = [output.rules[0] for output in outputs]
        first, second = states[0], states[1]
        if any(first.anchor_rows) and first.anchor_rows != second.anchor_rows:
            merged = copy.deepcopy(second)
            for state in states[2:]:
                merged.merge(state)
            # ``first`` was never merged into this state; unless its rows
            # happen to coincide with the real suffix, subtract must raise
            # rather than silently drop the wrong rows.
            snapshot = copy.deepcopy(merged)
            try:
                merged.subtract(first)
            except ValueError:
                assert merged == snapshot


class TestCheckerShardResultSubtract:
    @differential_settings
    @given(
        tree=xml_documents(),
        keys=st.lists(xml_keys(), min_size=1, max_size=3),
        num_shards=shard_counts,
    )
    def test_merge_then_subtract_restores_state(self, tree, keys, num_shards):
        compact = serialize(tree, indent=0)
        shards, outputs = _shard_outputs(compact, [], keys, num_shards)
        if outputs is None or len(outputs) < 2:
            return
        states = [output.checker for output in outputs]
        prologue_ids = shards.prologue_ids
        accumulated = states[0]
        for state in states[1:-1]:
            accumulated.merge(state, prologue_ids)
        snapshot = copy.deepcopy(accumulated)
        accumulated.merge(states[-1], prologue_ids)
        accumulated.subtract(states[-1], prologue_ids)
        # Structural equality, node-id rebase round-trip included: the
        # subtracted ids must come back down to the pre-merge values.
        assert accumulated == snapshot
        accumulated.merge(states[-1], prologue_ids)
        merged = merge_shard_results(keys, [accumulated], prologue_ids)
        serial = stream_violations(compact, keys)
        assert fingerprint(merged) == fingerprint(serial)

    @differential_settings
    @given(
        tree=xml_documents(),
        keys=st.lists(xml_keys(), min_size=1, max_size=3),
        num_shards=shard_counts,
    )
    def test_fold_equals_merge_shard_results(self, tree, keys, num_shards):
        from repro.keys.stream import CheckerShardResult

        compact = serialize(tree, indent=0)
        shards, outputs = _shard_outputs(compact, [], keys, num_shards)
        if outputs is None:
            return
        states = [output.checker for output in outputs]
        prologue_ids = shards.prologue_ids
        reference = merge_shard_results(
            keys, copy.deepcopy(states), prologue_ids
        )
        # Folding the binary merge from the left identity must agree.
        folded = CheckerShardResult(consumed=prologue_ids)
        for state in states:
            folded.merge(state, prologue_ids)
        assert fingerprint(
            merge_shard_results(keys, [folded], prologue_ids)
        ) == fingerprint(reference)


class TestRelationalSubtract:
    rows_strategy = st.lists(
        st.tuples(
            st.sampled_from(["0", "1", None]),
            st.sampled_from(["0", "1", None]),
            st.sampled_from(["0", "1", None]),
        ),
        max_size=12,
    )

    @staticmethod
    def _instance(rows):
        from repro.relational.instance import NULL, RelationInstance
        from repro.relational.schema import RelationSchema

        schema = RelationSchema("R", ["a", "b", "c"])
        return RelationInstance(
            schema,
            [{"a": a or NULL, "b": b or NULL, "c": c or NULL} for a, b, c in rows],
        )

    @differential_settings
    @given(rows=rows_strategy, cut=st.integers(min_value=0, max_value=12))
    def test_accumulator_merge_subtract_round_trip(self, rows, cut):
        from repro.relational.instance import FDViolationAccumulator

        cut = min(cut, len(rows))
        instance = self._instance(rows)
        head = FDViolationAccumulator(["a"], ["b"])
        for row in instance.rows[:cut]:
            head.observe(row)
        tail = FDViolationAccumulator(["a"], ["b"])
        for row in instance.rows[cut:]:
            tail.observe(row)
        snapshot = copy.deepcopy(head)
        head.merge(tail).subtract(tail)
        assert head == snapshot
        # And the round-trip still finalizes to the serial answer.
        head.merge(tail)
        assert head.finalize() == instance.fd_violations(["a"], ["b"])

    @differential_settings
    @given(rows=rows_strategy, cut=st.integers(min_value=0, max_value=12))
    def test_instance_merge_subtract_round_trip(self, rows, cut):
        cut = min(cut, len(rows))
        instance = self._instance(rows)
        head = self._instance(rows[:cut])
        tail = self._instance(rows[cut:])
        merged = head.merge(tail)
        assert merged.rows == instance.rows
        restored = merged.subtract(tail)
        assert restored.rows == head.rows
        assert restored.rows == instance.rows[:cut]

    @differential_settings
    @given(rows=rows_strategy)
    def test_subtracting_rows_never_merged_raises(self, rows):
        instance = self._instance(rows)
        foreign = self._instance([("0", "0", "0")] * (len(rows) + 1))
        with pytest.raises(ValueError):
            instance.subtract(foreign)
