"""Differential pinning of the accelerated tokenizer against the pure oracle.

PR 7 adds a second implementation of the tokenizer contract
(:mod:`repro.xmlmodel.accel`, expat behind the capability probe).  The
pure tokenizer is the reference; these properties force the accelerated
plane to be observationally identical on random documents:

* **Events** — same kinds, names and payloads in the same order, in both
  whitespace modes, for text, bytes, chunked and file (by path) sources.
* **Errors** — truncating a document at a random offset must produce the
  same exception type, message and position from both engines (or the
  same event stream, when the cut happens to leave a well-formed prefix).
* **Consumers** — node-id-bearing results (key violations with context
  and witness ids, shredded rows) must not depend on the engine, and
  :func:`repro.parallel.run_sharded` over a file given by path, cut into
  text slices, must be byte-identical to the serial pure run.  The planes
  take no backend setting, so each consumer is fed
  ``iter_events(text, engine=...)`` directly.
"""

import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_shred_differential import canonical, table_rules, xml_documents, xml_keys

from repro.keys.stream import stream_violations
from repro.parallel import run_sharded
from repro.transform.stream import stream_evaluate_rule
from repro.xmlmodel.events import iter_events
from repro.xmlmodel.parser import XMLSyntaxError
from repro.xmlmodel.serializer import serialize

pytestmark = pytest.mark.slow

differential_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def outcome(source, strip=True, engine=None):
    try:
        return ("events", list(
            iter_events(source, strip_whitespace=strip, engine=engine)
        ))
    except XMLSyntaxError as error:
        return ("error", type(error).__name__, str(error), error.position)


class TestEventStreamDifferential:
    @differential_settings
    @given(tree=xml_documents(), strip=st.booleans())
    def test_text_events_agree(self, tree, strip):
        text = serialize(tree, indent=0)
        assert outcome(text, strip, "expat") == outcome(text, strip, "pure")

    @differential_settings
    @given(tree=xml_documents(), strip=st.booleans())
    def test_indented_text_events_agree(self, tree, strip):
        # Indentation exercises the whitespace-only text drop rule.
        text = serialize(tree, indent=2)
        assert outcome(text, strip, "expat") == outcome(text, strip, "pure")

    @differential_settings
    @given(tree=xml_documents())
    def test_byte_and_chunked_sources_agree(self, tree):
        text = serialize(tree, indent=0)
        expected = outcome(text, engine="pure")
        assert outcome(text.encode("utf-8"), engine="expat") == expected
        chunks = [text[i : i + 3] for i in range(0, len(text), 3)]
        assert outcome(iter(chunks), engine="expat") == expected

    @differential_settings
    @given(tree=xml_documents())
    def test_file_source_agrees(self, tree):
        text = serialize(tree, indent=0)
        descriptor, path = tempfile.mkstemp(suffix=".xml")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert outcome(pathlib.Path(path), engine="expat") == outcome(
                text, engine="pure"
            )
        finally:
            os.unlink(path)


class TestErrorDifferential:
    @differential_settings
    @given(tree=xml_documents(), data=st.data())
    def test_truncated_documents_fail_identically(self, tree, data):
        text = serialize(tree, indent=0)
        cut = data.draw(st.integers(min_value=0, max_value=max(len(text) - 1, 0)))
        truncated = text[:cut]
        assert outcome(truncated, True, "expat") == outcome(truncated, True, "pure")

    @differential_settings
    @given(tree=xml_documents(), data=st.data())
    def test_corrupted_documents_fail_identically(self, tree, data):
        text = serialize(tree, indent=0)
        position = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        glitch = data.draw(st.sampled_from(["<", ">", "&", "=", "'"]))
        corrupted = text[:position] + glitch + text[position + 1 :]
        assert outcome(corrupted, True, "expat") == outcome(corrupted, True, "pure")


class TestConsumerDifferential:
    @differential_settings
    @given(tree=xml_documents(), keys=st.lists(xml_keys(), min_size=1, max_size=3))
    def test_violation_node_ids_agree(self, tree, keys):
        text = serialize(tree, indent=0)
        pure = stream_violations(iter_events(text, engine="pure"), keys)
        accel = stream_violations(iter_events(text, engine="expat"), keys)
        assert canonical(accel) == canonical(pure)

    @differential_settings
    @given(rule=table_rules(), tree=xml_documents())
    def test_shredded_rows_agree(self, rule, tree):
        text = serialize(tree, indent=0)
        pure = stream_evaluate_rule(
            rule, iter_events(text, engine="pure"), deduplicate=False
        )
        accel = stream_evaluate_rule(
            rule, iter_events(text, engine="expat"), deduplicate=False
        )
        assert accel.rows == pure.rows


def fingerprint(run):
    rows = (
        {name: instance.rows for name, instance in run.instances.items()}
        if run.instances is not None
        else None
    )
    violations = (
        [
            (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail)
            for v in run.violations
        ]
        if run.violations is not None
        else None
    )
    return rows, violations


class TestShardedPathDifferential:
    """A sharded run from a path equals the serial pure run."""

    @differential_settings
    @given(rule=table_rules(), tree=xml_documents(), keys=st.lists(xml_keys(), max_size=2))
    def test_path_sliced_run_matches_serial_pure(self, rule, tree, keys):
        text = serialize(tree, indent=0)
        assert text.isascii(), "the strategy vocabulary is ASCII"
        serial = run_sharded(
            iter_events(text, engine="pure"), transformation=[rule], keys=keys, jobs=1
        )
        descriptor, path = tempfile.mkstemp(suffix=".xml")
        try:
            with os.fdopen(descriptor, "w", encoding="ascii") as handle:
                handle.write(text)
            sharded = run_sharded(
                pathlib.Path(path),
                transformation=[rule],
                keys=keys,
                jobs=2,
                use_processes=False,
            )
        finally:
            os.unlink(path)
        assert fingerprint(sharded) == fingerprint(serial)
