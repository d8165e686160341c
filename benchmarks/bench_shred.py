"""PR-3 data-plane benchmarks: the streaming path vs. the DOM path.

The streaming data plane replaces three DOM-bound stages with single-pass
event processing:

* **tokenization** — ``iter_events`` instead of ``parse_document``;
* **shredding** — ``stream_evaluate_rule`` (per-subtree binding products)
  instead of ``evaluate_rule`` (global Cartesian product over a DOM);
* **key checking** — ``stream_violations`` (one pass, context-bucketed
  hash indexes) instead of per-key ``violations`` over a DOM.

Three gates pin the claims, in the style of PR 1/PR 2's speedup gates
(plain ``perf_counter`` timing, so they run under ``--benchmark-disable``):

* ``test_checker_speedup_report`` — streaming key checking must beat the
  DOM pipeline (parse + per-key checks) ≥ 5× on a ~10k-node document;
* ``test_event_iterator_memory_report`` — tokenizing a 10× larger document
  must not grow the event iterator's peak memory (documents are synthesized
  as lazy text chunks, so nothing ever holds the full input);
* ``test_shredder_vs_checker_report`` — on the ~104k-node gate document of
  ``benchmarks/bench_parallel.py``, with the events materialized first,
  the streaming shredder's ``feed`` must cost at most 2× the 24-key
  streaming checker's: the two consumers step the same kind of automata
  over the same events, and a ratio holds across hardware.

The ``@pytest.mark.benchmark`` cases record the absolute throughputs per
push into the ``BENCH_PR3.json`` CI artifact.  PR 7 adds the
``events_per_second`` group: the same gate document tokenized by the pure
oracle and by the accelerated backend, with the derived rate stored in
each record's ``extra_info``.
"""

import time
import tracemalloc

import pytest

from repro.experiments.generators import generate_workload
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_scenario,
    scenario_text,
    synthesize_document_chunks,
    synthesized_node_count,
)
from repro.keys.satisfaction import violations
from repro.keys.stream import KeyStreamChecker, stream_violations
from repro.relational import sql as sql_module
from repro.transform.evaluate import evaluate_rule
from repro.transform.rule import Transformation
from repro.transform.stream import StreamShredder, stream_evaluate_rule
from repro.xmlmodel.events import iter_events
from repro.xmlmodel.parser import parse_document

#: ~10.9k nodes, 24 keys (the paper's Fig. 7c scales keys to 100, so a
#: couple of dozen live keys is a modest consumer workload).
GATE_SPEC = ScenarioSpec(
    num_fields=28,
    depth=4,
    num_keys=24,
    fanout=5,
    duplicate_violations=5,
    missing_violations=5,
    seed=1,
)

REQUIRED_CHECKER_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def gate_scenario():
    scenario = build_scenario(GATE_SPEC)
    return scenario, scenario_text(scenario)


def _best_of(callable_, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - begin)
    return best, result


# ----------------------------------------------------------------------
# Gate 1: streaming key checking ≥ 5× the DOM pipeline at ~10k nodes
# ----------------------------------------------------------------------
def test_checker_speedup_report(gate_scenario):
    scenario, text = gate_scenario
    keys = scenario.keys
    assert scenario.num_nodes >= 8_000, "gate document must stay data-scale"

    def dom_pipeline():
        tree = parse_document(text)
        return [v for key in keys for v in violations(tree, key)]

    def streaming_pipeline():
        return stream_violations(text, keys)

    dom_time, dom_found = _best_of(dom_pipeline)
    stream_time, stream_found = _best_of(streaming_pipeline)

    # Same verdict and the same witnesses before any speed claims.
    def canonical(found):
        return sorted(
            (v.key.text, v.context_node_id, v.kind, tuple(sorted(v.node_ids)))
            for v in found
        )

    assert canonical(dom_found) == canonical(stream_found)
    expected = scenario.expected_duplicates + scenario.expected_missing
    assert len(stream_found) == expected

    speedup = dom_time / stream_time
    print(
        f"\n[bench_shred] key checking on {scenario.num_nodes} nodes / "
        f"{len(keys)} keys: DOM {dom_time * 1000:.1f} ms, "
        f"streaming {stream_time * 1000:.1f} ms -> {speedup:.1f}x "
        f"(gate >= {REQUIRED_CHECKER_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_CHECKER_SPEEDUP, (
        f"streaming checker speedup {speedup:.2f}x below the "
        f"{REQUIRED_CHECKER_SPEEDUP:.0f}x gate "
        f"(DOM {dom_time * 1000:.1f} ms vs streaming {stream_time * 1000:.1f} ms)"
    )


# ----------------------------------------------------------------------
# Gate 2: event-iterator peak memory independent of document size
# ----------------------------------------------------------------------
def _peak_tokenizer_memory(workload, top_level_repeat):
    """Peak memory (bytes) while consuming a synthesized document's events."""

    def consume():
        count = 0
        chunks = synthesize_document_chunks(
            workload, fanout=3, top_level_repeat=top_level_repeat
        )
        for _ in iter_events(chunks):
            count += 1
        return count

    tracemalloc.start()
    tracemalloc.reset_peak()
    events = consume()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, events


def test_event_iterator_memory_report():
    workload = generate_workload(20, depth=4, num_keys=10, seed=0)
    small_nodes = synthesized_node_count(workload, fanout=3, top_level_repeat=8)
    large_nodes = synthesized_node_count(workload, fanout=3, top_level_repeat=80)
    assert small_nodes >= 8_000
    assert large_nodes >= 10 * small_nodes - 100

    # Warm up allocator/interning state so the small run is not charged for
    # one-time setup.
    _peak_tokenizer_memory(workload, top_level_repeat=1)
    small_peak, small_events = _peak_tokenizer_memory(workload, top_level_repeat=8)
    large_peak, large_events = _peak_tokenizer_memory(workload, top_level_repeat=80)

    ratio = large_peak / small_peak
    print(
        f"\n[bench_shred] tokenizer peak memory: {small_nodes} nodes "
        f"({small_events} events) -> {small_peak / 1024:.0f} KiB, "
        f"{large_nodes} nodes ({large_events} events) -> "
        f"{large_peak / 1024:.0f} KiB (ratio {ratio:.2f}, gate < 2.0)"
    )
    assert large_events > 9 * small_events
    # A DOM would grow ~10x here; the event iterator's buffer must not.
    assert ratio < 2.0, (
        f"tokenizer peak memory grew {ratio:.2f}x for a 10x larger document "
        f"({small_peak} -> {large_peak} bytes)"
    )


# ----------------------------------------------------------------------
# Gate 3: shredder feed <= 2x the 24-key checker feed on the same events
# ----------------------------------------------------------------------
#: The PR-4 gate document, built as ``benchmarks/bench_parallel.py`` does.
RATIO_GATE = dict(fields=20, depth=4, keys=24, fanout=4, repeat=30, duplicate_every=211)
MAX_SHREDDER_TO_CHECKER = 2.0


def test_shredder_vs_checker_report():
    gate = RATIO_GATE
    workload = generate_workload(
        gate["fields"], depth=gate["depth"], num_keys=gate["keys"], seed=2
    )
    events = list(
        iter_events(
            "".join(
                synthesize_document_chunks(
                    workload,
                    fanout=gate["fanout"],
                    top_level_repeat=gate["repeat"],
                    duplicate_every=gate["duplicate_every"],
                )
            )
        )
    )
    transformation = Transformation([workload.rule])

    def shred():
        shredder = StreamShredder(transformation)
        for event in events:
            shredder.feed(event)
        return shredder

    def check():
        checker = KeyStreamChecker(workload.keys)
        for event in events:
            checker.feed(event)
        return checker

    # Alternate the two consumers so machine noise hits both alike.
    shred_time = check_time = float("inf")
    for _ in range(3):
        elapsed, shredder = _best_of(shred, repeats=1)
        shred_time = min(shred_time, elapsed)
        elapsed, checker = _best_of(check, repeats=1)
        check_time = min(check_time, elapsed)
    rows = shredder.finish()[workload.rule.relation].rows
    # One row per deepest spine element: fanout top-level subtrees per
    # repeat, fanout^(depth-1) leaves each.
    assert len(rows) == gate["repeat"] * gate["fanout"] ** gate["depth"]
    assert checker.finish()

    ratio = shred_time / check_time
    print(
        f"\n[bench_shred] feed over {len(events)} events: shredder "
        f"{shred_time * 1000:.1f} ms ({len(rows)} rows), checker "
        f"{check_time * 1000:.1f} ms ({len(workload.keys)} keys) -> "
        f"{ratio:.2f}x (gate <= {MAX_SHREDDER_TO_CHECKER:.1f}x)"
    )
    assert ratio <= MAX_SHREDDER_TO_CHECKER, (
        f"shredder feed costs {ratio:.2f}x the checker feed "
        f"({shred_time * 1000:.1f} vs {check_time * 1000:.1f} ms)"
    )


# ----------------------------------------------------------------------
# Recorded throughput benchmarks (BENCH_PR3.json)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="shred-tokenize")
def test_tokenize_10k_nodes(benchmark, gate_scenario):
    _, text = gate_scenario
    count = benchmark(lambda: sum(1 for _ in iter_events(text)))
    assert count > 0


@pytest.mark.benchmark(group="shred-key-check")
def test_streaming_key_check_10k_nodes(benchmark, gate_scenario):
    scenario, text = gate_scenario
    found = benchmark(stream_violations, text, scenario.keys)
    assert len(found) == scenario.expected_duplicates + scenario.expected_missing


@pytest.mark.benchmark(group="shred-key-check")
def test_dom_key_check_10k_nodes(benchmark, gate_scenario):
    scenario, text = gate_scenario

    def run():
        tree = parse_document(text)
        return [v for key in scenario.keys for v in violations(tree, key)]

    found = benchmark(run)
    assert len(found) == scenario.expected_duplicates + scenario.expected_missing


@pytest.mark.benchmark(group="shred-evaluate")
def test_streaming_shred_universal(benchmark, workload_cache, document_cache):
    workload = workload_cache(20, 4, 10)
    from repro.xmlmodel.serializer import serialize

    text = serialize(document_cache(20, 4, 10, fanout=3))
    instance = benchmark(stream_evaluate_rule, workload.rule, text)
    assert len(instance) > 0


@pytest.mark.benchmark(group="shred-evaluate")
def test_dom_shred_universal(benchmark, workload_cache, document_cache):
    workload = workload_cache(20, 4, 10)
    doc = document_cache(20, 4, 10, fanout=3)
    instance = benchmark(evaluate_rule, workload.rule, doc)
    assert len(instance) > 0


@pytest.mark.benchmark(group="shred-sql-emit")
def test_bulk_insert_emission(benchmark, gate_scenario):
    scenario, text = gate_scenario
    instance = stream_evaluate_rule(scenario.workload.rule, text)

    def emit():
        return sum(
            len(statement)
            for statement in sql_module.iter_insert_statements(
                instance.schema, instance.rows, batch_size=500
            )
        )

    assert benchmark(emit) > 0


@pytest.mark.benchmark(group="shred-sql-emit")
def test_per_row_insert_emission(benchmark, gate_scenario):
    scenario, text = gate_scenario
    instance = stream_evaluate_rule(scenario.workload.rule, text)

    def emit():
        return sum(len(s) for s in sql_module.insert_statements(instance))

    assert benchmark(emit) > 0


# ----------------------------------------------------------------------
# Tokenizer throughput in events/second, pure vs. accelerated (PR 7)
# ----------------------------------------------------------------------
def _record_events_per_second(benchmark, text, engine):
    events = benchmark(lambda: sum(1 for _ in iter_events(text, engine=engine)))
    assert events > 0
    stats = getattr(benchmark, "stats", None)
    if stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["events_per_second"] = round(
            events / stats.stats.min
        )


@pytest.mark.benchmark(group="events_per_second")
def test_events_per_second_pure(benchmark, gate_scenario):
    _, text = gate_scenario
    _record_events_per_second(benchmark, text, "pure")


@pytest.mark.benchmark(group="events_per_second")
def test_events_per_second_accel(benchmark, gate_scenario):
    _, text = gate_scenario
    _record_events_per_second(benchmark, text, "accel")
