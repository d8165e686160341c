"""Tests of the parallel execution plane (:mod:`repro.parallel`).

The shard/merge *semantics* are pinned at scale by the Hypothesis suite in
``tests/property/test_parallel_differential.py`` (in-process executor).
These tests cover the coordinator itself: worker-count resolution, the
real process pool, the serial fallbacks, and the library entry points.
"""

import pytest

from repro.experiments.scenarios import ScenarioSpec, build_scenario, scenario_text
from repro.keys.key import XMLKey
from repro.keys.stream import stream_violations
from repro.parallel import JOBS_ENV, ShardedRun, resolve_jobs, run_sharded
from repro.transform.dsl import parse_transformation
from repro.transform.stream import StreamShredder, stream_evaluate_transformation


TRANSFORM_TEXT = """
table book
  var xa <- xr : //book
  var x1 <- xa : @isbn
  var x2 <- xa : title
  field isbn  = value(x1)
  field title = value(x2)

table chapter
  var ya <- xr : //book
  var yc <- ya : chapter
  var y2 <- yc : @number
  field number = value(y2)
"""

DOC = (
    '<lib year="2003">'
    '<book isbn="1"><title>A</title><chapter number="1"/><chapter number="2"/></book>'
    '<book isbn="2"><title>B</title><chapter number="1"/></book>'
    '<book isbn="2"><title>C</title></book>'
    '<book><title>D</title></book>'
    "</lib>"
)

KEYS = [
    XMLKey(".", "//book", ["isbn"]),
    XMLKey("//book", "chapter", ["number"]),
]


def violation_fingerprint(found):
    return [
        (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail) for v in found
    ]


@pytest.fixture()
def transformation():
    return parse_transformation(TRANSFORM_TEXT)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    def test_zero_means_cpu_count(self, monkeypatch):
        import os

        # Without an affinity call, the machine's CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_jobs(0) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(0) == 1

    def test_zero_means_usable_cpus(self, monkeypatch):
        import os

        # A container or taskset limit shows in the affinity mask, not in
        # the machine's CPU count.
        monkeypatch.setattr(os, "cpu_count", lambda: 64, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert resolve_jobs(0) == 2

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestRunShardedProcesses:
    """Real ProcessPoolExecutor runs (small inputs, few workers)."""

    def test_matches_serial_pipeline(self, transformation):
        serial = run_sharded(DOC, transformation=transformation, keys=KEYS, jobs=1)
        parallel = run_sharded(DOC, transformation=transformation, keys=KEYS, jobs=2)
        assert serial.shards == 1
        assert parallel.shards > 1
        assert set(serial.instances) == set(parallel.instances)
        for name, instance in serial.instances.items():
            assert parallel.instances[name].rows == instance.rows
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )
        # The injected duplicates are found across shard boundaries.
        assert any(v.kind == "duplicate-value" for v in parallel.violations)
        assert any(v.kind == "missing-attribute" for v in parallel.violations)

    def test_keys_only_run(self):
        serial = run_sharded(DOC, keys=KEYS, jobs=1)
        parallel = run_sharded(DOC, keys=KEYS, jobs=2)
        assert parallel.instances is None
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )

    def test_transformation_only_run(self, transformation):
        parallel = run_sharded(DOC, transformation=transformation, jobs=2)
        assert parallel.violations is None
        assert len(parallel.instances["chapter"].rows) == 3

    def test_requires_work(self):
        with pytest.raises(ValueError):
            run_sharded(DOC, jobs=2)


class TestSerialFallbacks:
    def test_unsplittable_document_falls_back(self, transformation):
        doc = '<lib><book isbn="1"><title>A</title></book></lib>'  # one subtree
        run = run_sharded(doc, transformation=transformation, keys=KEYS, jobs=4)
        assert run.shards == 1
        assert len(run.instances["book"].rows) == 1

    def test_root_bound_anchor_falls_back(self):
        rules = parse_transformation(
            """
            table whole
              var xa <- xr : //
              var x1 <- xa : title
              field title = value(x1)
            """
        )
        run = run_sharded(DOC, transformation=rules, jobs=4)
        assert run.shards == 1
        # The `//` anchor binds the root and every element below it.
        assert len(run.instances["whole"].rows) > 1

    def test_jobs_one_is_serial(self, transformation):
        run = run_sharded(DOC, transformation=transformation, jobs=1)
        assert run.shards == 1


class TestLibraryEntryPoints:
    def test_stream_shredder_run_jobs(self, transformation):
        serial = StreamShredder(transformation).run(DOC)
        parallel = StreamShredder(transformation).run(DOC, jobs=2)
        assert {n: i.rows for n, i in parallel.items()} == {
            n: i.rows for n, i in serial.items()
        }

    def test_stream_evaluate_transformation_jobs(self, transformation):
        serial = stream_evaluate_transformation(transformation, DOC)
        parallel = stream_evaluate_transformation(transformation, DOC, jobs=2)
        assert {n: i.rows for n, i in parallel.items()} == {
            n: i.rows for n, i in serial.items()
        }

    def test_stream_violations_jobs(self):
        serial = stream_violations(DOC, KEYS)
        parallel = stream_violations(DOC, KEYS, jobs=2)
        assert violation_fingerprint(parallel) == violation_fingerprint(serial)

    def test_env_variable_selects_parallel_plane(self, monkeypatch, transformation):
        monkeypatch.setenv(JOBS_ENV, "2")
        parallel = StreamShredder(transformation).run(DOC)
        monkeypatch.delenv(JOBS_ENV)
        serial = StreamShredder(transformation).run(DOC)
        assert {n: i.rows for n, i in parallel.items()} == {
            n: i.rows for n, i in serial.items()
        }


class TestDuplicateRootAttributes:
    """Duplicate attribute names: tokenizer emits both, the DOM keeps one
    node per name with the last value — the merge must mirror that."""

    DOC = '<root a="1" a="2" x="9"><u>p</u><v>q</v><u>p</u></root>'

    def test_root_fields_value_matches_serial(self):
        rules = parse_transformation(
            """
            table whole
              var x1 <- xr : u
              field f = value(x1)
            """
        )
        # Also a rule with fields on the root variable itself.
        from repro.transform.rule import TableRule

        root_rule = TableRule("doc")
        root_rule.add_field("content", root_rule.root_variable)
        all_rules = list(rules) + [root_rule]
        serial = run_sharded(self.DOC, transformation=all_rules, jobs=1)
        parallel = run_sharded(
            self.DOC, transformation=all_rules, jobs=2, use_processes=False
        )
        assert parallel.shards > 1
        for name, instance in serial.instances.items():
            assert parallel.instances[name].rows == instance.rows

    def test_violation_node_ids_match_serial(self):
        keys = [XMLKey(".", "//u", [])]
        serial = run_sharded(self.DOC, keys=keys, jobs=1)
        parallel = run_sharded(self.DOC, keys=keys, jobs=2, use_processes=False)
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )
        assert len(serial.violations) == 1  # the two <u>p</u> duplicates

    def test_binding_counters_count_anchor_matches(self):
        from repro.transform.stream import RuleStreamer
        from repro.xmlmodel.events import iter_events

        rules = parse_transformation(
            """
            table t
              var x1 <- xr : //u
              field f = value(x1)
            """
        )
        streamer = RuleStreamer(next(iter(rules)), shard_mode=True)
        for event in iter_events(self.DOC):
            streamer.feed(event)
        result = streamer.shard_result()
        assert result.anchor_matches == [2]
        assert [len(block) for block in result.anchor_rows] == [2]


class TestScenarioScale:
    """A mid-size generated scenario through real processes."""

    def test_scenario_with_injected_violations(self):
        spec = ScenarioSpec(
            num_fields=10,
            depth=3,
            num_keys=5,
            fanout=3,
            duplicate_violations=4,
            missing_violations=4,
            seed=11,
        )
        scenario = build_scenario(spec)
        text = scenario_text(scenario)
        serial = run_sharded(
            text, transformation=[scenario.workload.rule], keys=scenario.keys, jobs=1
        )
        parallel = run_sharded(
            text, transformation=[scenario.workload.rule], keys=scenario.keys, jobs=2
        )
        assert parallel.shards > 1
        assert len(parallel.violations) == 8
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )
        for name, instance in serial.instances.items():
            assert parallel.instances[name].rows == instance.rows


class TestZeroCopyMmapPath:
    """PathLike sources ship a slice table, not the text (PR 7).

    Workers ``mmap`` the file themselves and feed their byte range to the
    tokenizer; the pickled payload must therefore stay slice-table-sized,
    and every result must stay byte-identical to the in-memory text run.
    """

    def _write(self, tmp_path, text, encoding="ascii"):
        target = tmp_path / "doc.xml"
        target.write_text(text, encoding=encoding)
        return target

    def test_path_run_matches_text_run_with_process_pool(
        self, tmp_path, transformation
    ):
        target = self._write(tmp_path, DOC)
        serial = run_sharded(DOC, transformation=transformation, keys=KEYS, jobs=1)
        mapped = run_sharded(target, transformation=transformation, keys=KEYS, jobs=2)
        assert mapped.shards > 1
        assert set(mapped.instances) == set(serial.instances)
        for name, instance in serial.instances.items():
            assert mapped.instances[name].rows == instance.rows
        assert violation_fingerprint(mapped.violations) == violation_fingerprint(
            serial.violations
        )

    def test_non_ascii_file_degrades_to_text_plane(self, tmp_path, transformation):
        # Byte offsets and character offsets disagree: the coordinator
        # must ship text slices instead of mmap ranges — same answer.
        doc = DOC.replace("<title>A</title>", "<title>É</title>")
        target = self._write(tmp_path, doc, encoding="utf-8")
        serial = run_sharded(doc, transformation=transformation, jobs=1)
        run = run_sharded(target, transformation=transformation, jobs=2)
        for name, instance in serial.instances.items():
            assert run.instances[name].rows == instance.rows

    def test_mapped_payload_is_small_and_roundtrips(self, tmp_path):
        import pickle

        from repro.xmlmodel.shards import map_document_shards, split_document

        text = (
            "<lib>"
            + "".join(
                f"<book isbn='{i}'><title>T{i}</title></book>" for i in range(4000)
            )
            + "</lib>"
        )
        target = self._write(tmp_path, text)
        shards = split_document(text, 8)
        mapped = map_document_shards(shards, str(target))
        payload = pickle.dumps(mapped)
        assert len(payload) < len(text) // 50, "payload must not carry the text"
        restored = pickle.loads(payload)
        assert len(restored) == len(shards)
        assert list(restored.prologue_events) == list(shards.prologue_events)
        for index in range(len(shards)):
            assert list(restored.shard_events(index)) == list(
                shards.shard_events(index)
            )


class TestSyntaxErrorsCrossThePool:
    """A worker's tokenizer error reaches the caller as the serial error:
    it pickles across the process boundary and its offset is rebased from
    the slice to the document."""

    # Four books, so the split is real; the mismatched tags sit in the last.
    DOC = DOC.replace(
        "<book><title>D</title></book>", "<book><title><i>D</title></i></book>"
    )

    def test_error_pickles_with_its_position(self):
        import pickle

        from repro.xmlmodel.parser import XMLSyntaxError

        error = pickle.loads(pickle.dumps(XMLSyntaxError("bad tag", 7)))
        assert (error.message, error.position, str(error)) == (
            "bad tag", 7, "bad tag (at offset 7)"
        )

    @pytest.mark.parametrize("on_disk", [False, True], ids=["text", "path"])
    def test_sharded_run_raises_the_serial_error(
        self, tmp_path, transformation, on_disk
    ):
        from repro.xmlmodel.parser import XMLSyntaxError

        source = self.DOC
        if on_disk:
            source = tmp_path / "doc.xml"
            source.write_text(self.DOC)
        with pytest.raises(XMLSyntaxError) as serial:
            run_sharded(source, transformation=transformation, keys=KEYS, jobs=1)
        with pytest.raises(XMLSyntaxError) as sharded:
            run_sharded(source, transformation=transformation, keys=KEYS, jobs=2)
        assert serial.value.message == "mismatched end tag </title> for <i>"
        assert (sharded.value.message, sharded.value.position) == (
            serial.value.message, serial.value.position
        )
        assert str(sharded.value) == str(serial.value)


class TestMetricParity:
    """Serial and sharded runs record the same metric names, and the same
    value for every counter and gauge outside ``SHARD_DEPENDENT_METRICS``."""

    @staticmethod
    def _snapshot(source, jobs, **kwargs):
        from repro import obs

        with obs.collect() as registry:
            run = run_sharded(source, jobs=jobs, **kwargs)
        assert run.shards == (1 if jobs == 1 else 4)
        return registry.snapshot()

    def _assert_parity(self, source, **kwargs):
        from repro.parallel import SHARD_DEPENDENT_METRICS

        serial = self._snapshot(source, 1, **kwargs)
        sharded = self._snapshot(source, 2, **kwargs)

        def names(snapshot):
            return {key[0] for series in (
                snapshot.counters, snapshot.gauges, snapshot.histograms
            ) for key in series}

        assert names(sharded) == names(serial)
        for kind in ("counters", "gauges"):
            mine, theirs = getattr(serial, kind), getattr(sharded, kind)
            assert set(mine) == set(theirs), kind
            for key, value in mine.items():
                if key[0] not in SHARD_DEPENDENT_METRICS:
                    assert theirs[key] == value, key
        assert serial.gauge("shard.count") == 1
        assert sharded.gauge("shard.count") == 4
        return serial

    @pytest.fixture()
    def mondial(self, tmp_path):
        from repro.experiments.scenarios import mondial_shaped_chunks

        target = tmp_path / "mondial.xml"
        target.write_text("".join(mondial_shaped_chunks(countries=60)))
        return target

    def test_shred_and_check(self, mondial):
        from repro.keys import parse_keys

        rules = parse_transformation(
            "table city\n  var c <- xr : //city\n  var n <- c : name\n"
            "  field name = value(n)\n"
        )
        keys = parse_keys("K1 = (., (//country, {@car_code}))\nK2 = (//province, (city, {}))\n")
        serial = self._assert_parity(mondial, transformation=rules, keys=keys)
        assert serial.counter("check.violations") > 0
        assert serial.counter("shred.rows", relation="city") > 0

    def test_root_context_flushes_count_once(self, mondial):
        from repro.keys import parse_keys

        # Duplicate car codes: the root's context records flush with
        # violations, which the sharded arm sees only at the merge.
        text = mondial.read_text()
        mondial.write_text(text.replace('car_code="C7"', 'car_code="C3"'))
        keys = parse_keys("K1 = (., (//country, {@car_code}))\n")
        serial = self._assert_parity(mondial, keys=keys)
        assert serial.gauge("check.flushed_contexts") == 1
        assert serial.counter("tokenizer.bytes") == mondial.stat().st_size

    def test_pruned_check(self, mondial):
        from repro.experiments.scenarios import MONDIAL_DTD
        from repro.keys import parse_keys
        from repro.xmlmodel.dtd import parse_dtd
        from repro.xmlmodel.static import compile_plan

        keys = parse_keys("K = (., (//country, {@car_code}))\n")
        plan = compile_plan(parse_dtd(MONDIAL_DTD), keys=keys)
        serial = self._assert_parity(mondial, keys=keys, plan=plan)
        assert serial.counter("pipeline.skips") > 0


class TestShardRouteCounters:
    """``shard.fallback{reason}`` counts every ``jobs > 1`` run that
    executed on the serial arm, with why."""

    @staticmethod
    def _fallbacks(source, **kwargs):
        from repro import obs

        with obs.collect() as registry:
            run = run_sharded(source, jobs=2, **kwargs)
        snapshot = registry.snapshot()
        assert run.shards == snapshot.gauge("shard.count")
        return run, {
            dict(labels)["reason"]: value
            for (name, labels), value in snapshot.counters.items()
            if name == "shard.fallback"
        }

    def test_a_sharded_run_counts_no_fallback(self):
        run, fallbacks = self._fallbacks(DOC, keys=KEYS)
        assert run.shards > 1
        assert fallbacks == {}

    def test_unsliceable_scan(self):
        # A self-closing root has no content range to cut.
        run, fallbacks = self._fallbacks('<lib year="2003"/>', keys=KEYS)
        assert run.shards == 1
        assert fallbacks == {"unsliceable": 1}

    def test_fewer_than_two_slices(self):
        doc = '<lib><book isbn="1"><title>A</title></book></lib>'
        run, fallbacks = self._fallbacks(doc, keys=KEYS)
        assert run.shards == 1
        assert fallbacks == {"one-slice": 1}

    def test_root_bound_anchor(self):
        rules = parse_transformation(
            "table whole\n  var xa <- xr : //\n  var x1 <- xa : title\n"
            "  field title = value(x1)\n"
        )
        run, fallbacks = self._fallbacks(DOC, transformation=rules)
        assert run.shards == 1
        assert fallbacks == {"root-anchor": 1}

    def test_source_that_is_not_text_or_a_path(self):
        from repro.xmlmodel.events import iter_events

        run, fallbacks = self._fallbacks(iter_events(DOC), keys=KEYS)
        assert run.shards == 1
        assert fallbacks == {"source": 1}

    def test_serial_arm_counts_no_fallback(self):
        from repro import obs

        with obs.collect() as registry:
            run_sharded(DOC, keys=KEYS, jobs=1)
        snapshot = registry.snapshot()
        assert snapshot.gauge("shard.count") == 1
        assert not any(name == "shard.fallback" for name, _ in snapshot.counters)
