"""Unit tests for the incremental constraint plane (engine + delta store)."""

import pytest

from repro.incremental import (
    DeltaStore,
    IncrementalEngine,
    delete,
    insert,
    replace,
)
from repro.keys import parse_keys
from repro.keys.stream import stream_violations
from repro.relational.fd import FunctionalDependency as FD
from repro.relational.sql import encode_row
from repro.storage import (
    BulkLoader,
    IntegrityViolation,
    SQLiteBackend,
    StorageError,
    compile_ddl,
)
from repro.transform import parse_transformation
from repro.transform.stream import stream_evaluate_transformation

TRANSFORM_TEXT = """
table chapter
  var ya <- xr : //book
  var y1 <- ya : @isbn
  var yc <- ya : chapter
  var y2 <- yc : @number
  var y3 <- yc : name
  field inBook = value(y1)
  field number = value(y2)
  field name   = value(y3)
"""

KEYS_TEXT = "K1 = (//book, (chapter, {number}))\nK2 = (/, (//book, {isbn}))\n"

DOC = (
    '<bib><book isbn="111"><chapter number="1"><name>A</name></chapter>'
    '<chapter number="2"><name>B</name></chapter></book>'
    '<book isbn="222"><chapter number="1"><name>C</name></chapter></book></bib>'
)

BOOK_333 = '<book isbn="333"><chapter number="9"><name>Z</name></chapter></book>'
BOOK_DUP_CHAPTER = (
    '<book isbn="444"><chapter number="5"><name>x</name></chapter>'
    '<chapter number="5"><name>y</name></chapter></book>'
)


@pytest.fixture()
def transformation():
    return parse_transformation(TRANSFORM_TEXT)


@pytest.fixture()
def keys():
    return parse_keys(KEYS_TEXT)


@pytest.fixture()
def engine(transformation, keys):
    eng = IncrementalEngine(transformation, keys)
    eng.load(DOC)
    return eng


def fingerprint(found):
    return [
        (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail) for v in found
    ]


def assert_matches_batch(eng, transformation, keys):
    """The engine's answers must equal a from-scratch run on its text."""
    text = eng.text()
    assert fingerprint(eng.violations()) == fingerprint(stream_violations(text, keys))
    fresh = stream_evaluate_transformation(transformation, text)
    instances = eng.instances()
    assert set(instances) == set(fresh)
    for table in fresh:
        assert instances[table].rows == fresh[table].rows


class TestConstruction:
    def test_needs_rules_or_keys(self):
        with pytest.raises(ValueError, match="transformation, keys, or both"):
            IncrementalEngine()

    def test_root_bound_rule_rejected(self):
        rules = parse_transformation(
            """
            table whole
              var xa <- xr : //
              var x1 <- xa : title
              field title = value(x1)
            """
        )
        with pytest.raises(ValueError, match="anchors at the document root"):
            IncrementalEngine(rules)

    def test_queries_require_load(self, transformation):
        eng = IncrementalEngine(transformation)
        with pytest.raises(ValueError, match="no document loaded"):
            eng.violations()
        with pytest.raises(ValueError, match="no document loaded"):
            eng.apply(delete(0))


class TestLoading:
    def test_load_counts_subtrees(self, engine):
        assert engine.subtree_count == 2
        assert engine.text() == DOC

    def test_childless_root_rejected(self, transformation):
        eng = IncrementalEngine(transformation)
        with pytest.raises(ValueError, match="cannot be incrementally indexed"):
            eng.load("<bib>only text</bib>")

    def test_malformed_document_rejected(self, transformation):
        eng = IncrementalEngine(transformation)
        with pytest.raises(ValueError, match="cannot be incrementally indexed"):
            eng.load("<bib><book></bib>")

    def test_reload_replaces_state(self, engine, transformation, keys):
        engine.load('<bib><book isbn="9"><chapter number="1"><name>N</name></chapter></book></bib>')
        assert engine.subtree_count == 1
        assert_matches_batch(engine, transformation, keys)


class TestDeltas:
    def test_insert_append_and_prepend(self, engine, transformation, keys):
        report = engine.apply(insert(2, BOOK_333))
        assert report.subtrees == 3
        assert engine.fragment(2) == BOOK_333
        engine.apply(insert(0, '<book isbn="000"><chapter number="0"><name>0</name></chapter></book>'))
        assert engine.subtree_count == 4
        assert_matches_batch(engine, transformation, keys)

    def test_delete_takes_riding_text(self, transformation, keys):
        doc = "<bib>lead<book isbn='1'><chapter number='1'><name>A</name></chapter></book>tail<book isbn='2'><chapter number='2'><name>B</name></chapter></book>end</bib>"
        eng = IncrementalEngine(transformation, keys)
        eng.load(doc)
        # Slice boundaries sit at a child's '<', so "tail" rides with
        # slice 0 and "end" with slice 1: deleting slice 1 removes "end" too.
        eng.apply(delete(1))
        assert eng.text() == "<bib>lead<book isbn='1'><chapter number='1'><name>A</name></chapter></book>tail</bib>"
        assert_matches_batch(eng, transformation, keys)

    def test_replace_reports_violation_diff(self, engine):
        report = engine.apply(replace(1, BOOK_DUP_CHAPTER))
        assert len(report.appeared) == 1
        assert report.appeared[0].kind == "duplicate-value"
        assert not report.disappeared
        assert report.violations == 1
        # Repairing the subtree makes the violation disappear again.
        report = engine.apply(replace(1, BOOK_333))
        assert len(report.disappeared) == 1
        assert not report.appeared
        assert report.violations == 0

    def test_delete_to_empty_and_refill(self, engine, transformation, keys):
        engine.apply(delete(0))
        engine.apply(delete(0))
        assert engine.subtree_count == 0
        # The shredded table collapses to the paper's all-NULL row.
        rows = engine.instances()["chapter"].rows
        assert len(rows) == 1
        engine.apply(insert(0, BOOK_333))
        assert_matches_batch(engine, transformation, keys)

    def test_positions_are_checked(self, engine):
        with pytest.raises(IndexError):
            engine.apply(delete(2))
        with pytest.raises(IndexError):
            engine.apply(insert(3, BOOK_333))
        with pytest.raises(IndexError):
            engine.apply(replace(-1, BOOK_333))
        with pytest.raises(ValueError, match="unknown delta kind"):
            engine.apply(type(delete(0))("frobnicate", 0))

    def test_fragment_required(self, engine):
        with pytest.raises(ValueError, match="needs a fragment"):
            engine.apply(type(delete(0))("insert", 0, None))


class TestFragmentValidation:
    def test_malformed_fragment_leaves_engine_untouched(self, engine, transformation, keys):
        before = engine.text()
        with pytest.raises(ValueError):
            engine.apply(insert(0, "<book><unclosed></book>"))
        assert engine.text() == before
        assert_matches_batch(engine, transformation, keys)

    def test_two_elements_rejected(self, engine):
        with pytest.raises(ValueError, match="exactly one top-level element"):
            engine.apply(insert(0, "<a/><b/>"))

    def test_leading_text_rejected(self, engine):
        with pytest.raises(ValueError, match="must start at its element"):
            engine.apply(insert(0, "hello<a/>"))

    def test_trailing_text_allowed(self, engine, transformation, keys):
        engine.apply(insert(2, BOOK_333 + "\n  "))
        assert engine.text().endswith(BOOK_333 + "\n  </bib>")
        assert_matches_batch(engine, transformation, keys)


class TestKeysOnlyAndRulesOnly:
    def test_keys_only(self, keys):
        eng = IncrementalEngine(keys=keys)
        eng.load(DOC)
        assert eng.violations() == []
        assert eng.instances() == {}
        report = eng.apply(insert(2, '<book isbn="111"><chapter number="7"><name>D</name></chapter></book>'))
        assert len(report.appeared) == 1  # duplicate isbn under K2

    def test_rules_only(self, transformation):
        eng = IncrementalEngine(transformation)
        eng.load(DOC)
        assert eng.violations() == []
        assert len(eng.instances()["chapter"].rows) == 3


def _store(mode="strict", deduplicate=True):
    rule_schema = parse_transformation(TRANSFORM_TEXT).rule("chapter").schema()
    cover = [FD({"inBook", "number"}, {"name"})]
    ddl = compile_ddl(rule_schema, cover, mode=mode)
    backend = SQLiteBackend()
    return backend, DeltaStore(BulkLoader(backend, ddl, deduplicate=deduplicate))


def _db_rows(backend):
    return sorted(backend.query('SELECT * FROM "chapter"'))


def _engine_rows(eng):
    instance = eng.instances()["chapter"]
    return sorted(tuple(encode_row(instance.schema, row)) for row in instance.rows)


class TestDeltaStore:
    def test_provenance_plans_rejected(self):
        rule_schema = parse_transformation(TRANSFORM_TEXT).rule("chapter").schema()
        ddl = compile_ddl(rule_schema, [], mode="log", provenance_column="_doc")
        backend = SQLiteBackend()
        with pytest.raises(ValueError, match="provenance"):
            DeltaStore(BulkLoader(backend, ddl))
        backend.close()

    def test_deduplicate_mismatch_rejected(self, transformation, keys):
        backend, store = _store(deduplicate=False)
        eng = IncrementalEngine(transformation, keys)
        eng.load(DOC)
        with pytest.raises(ValueError, match="deduplicate"):
            eng.attach_store(store)
        backend.close()

    def test_initial_load_and_sync(self, transformation, keys):
        backend, store = _store()
        eng = IncrementalEngine(transformation, keys)
        eng.load(DOC)
        counts = eng.attach_store(store)
        assert counts == {"chapter": 3}
        assert _db_rows(backend) == _engine_rows(eng)
        report = eng.apply(replace(0, BOOK_333))
        assert report.rows_inserted == {"chapter": 1}
        assert report.rows_deleted == {"chapter": 2}
        assert _db_rows(backend) == _engine_rows(eng)
        eng.apply(insert(0, '<book isbn="000"><chapter number="0"><name>0</name></chapter></book>'))
        eng.apply(delete(1))
        assert _db_rows(backend) == _engine_rows(eng)
        backend.close()

    def test_null_row_transitions(self, transformation):
        backend, store = _store(mode="log")
        eng = IncrementalEngine(transformation)
        eng.load(DOC)
        eng.attach_store(store)
        eng.apply(delete(0))
        report = eng.apply(delete(0))
        # Last real rows leave, the all-NULL marker row arrives.
        assert _db_rows(backend) == [(None, None, None)]
        assert _db_rows(backend) == _engine_rows(eng)
        report = eng.apply(insert(0, BOOK_333))
        assert report.rows_deleted == {"chapter": 1}  # the NULL row retracts
        assert _db_rows(backend) == _engine_rows(eng)
        backend.close()

    def test_strict_rejection_is_atomic(self, transformation, keys):
        backend, store = _store()
        eng = IncrementalEngine(transformation, keys)
        eng.load(DOC)
        eng.attach_store(store)
        before_db, before_text = _db_rows(backend), eng.text()
        clashing = '<book isbn="111"><chapter number="1"><name>Clash</name></chapter></book>'
        with pytest.raises(IntegrityViolation):
            eng.apply(insert(2, clashing))
        assert _db_rows(backend) == before_db
        assert eng.text() == before_text
        # The engine stays usable and consistent after the rejection.
        eng.apply(insert(2, BOOK_333))
        assert _db_rows(backend) == _engine_rows(eng)
        backend.close()

    def test_reattaching_to_a_populated_database_resets_it(
        self, transformation, keys, tmp_path
    ):
        # A second session against the same database file must not trip
        # the constraints on the first session's rows: the store owns its
        # tables and re-initializes them from the engine's state.
        rule_schema = parse_transformation(TRANSFORM_TEXT).rule("chapter").schema()
        cover = [FD({"inBook", "number"}, {"name"})]
        ddl = compile_ddl(rule_schema, cover, mode="strict", if_not_exists=True)
        path = str(tmp_path / "books.db")
        for round_trip in range(2):
            backend = SQLiteBackend(path)
            eng = IncrementalEngine(transformation, keys)
            eng.load(DOC)
            counts = eng.attach_store(DeltaStore(BulkLoader(backend, ddl)))
            assert counts == {"chapter": 3}
            eng.apply(insert(2, BOOK_333))
            assert _db_rows(backend) == _engine_rows(eng)
            backend.close()

    def test_tampered_database_detected(self, transformation):
        backend, store = _store(mode="log")
        eng = IncrementalEngine(transformation)
        eng.load(DOC)
        eng.attach_store(store)
        # Remove a row behind the engine's back; retracting it must fail
        # loudly instead of silently diverging.
        backend.execute('DELETE FROM "chapter" WHERE "name" = ?', ("C",))
        before_text = eng.text()
        with pytest.raises(StorageError, match="no longer matches the engine"):
            eng.apply(delete(1))
        assert eng.text() == before_text
        backend.close()



def _replace_three_times(engine):
    for _ in range(3):
        engine.apply(replace(2, engine.fragment(2)))
        engine.violations()


def _delete_and_reinsert(engine):
    fragment = engine.fragment(2)
    engine.apply(delete(2))
    engine.violations()
    engine.apply(insert(2, fragment))
    engine.violations()


def _reload(engine):
    engine.load(engine.text())
    engine.violations()


class TestIndexGauges:
    """``check.nfa_memo_entries`` and ``check.flushed_contexts`` describe
    the indexed document: a piece that leaves takes its levels back, and
    recomputing the violations does not count the root's flushes again."""

    DOC = (
        '<lib><book isbn="1"><title>A</title></book>'
        '<book isbn="1"><title>B</title></book>'
        '<book isbn="2"><title>C</title></book></lib>'
    )

    @pytest.mark.parametrize(
        "edit", [_replace_three_times, _delete_and_reinsert, _reload],
        ids=["replace", "delete-insert", "reload"],
    )
    def test_gauges_equal_their_values_after_load(self, edit):
        from repro import obs

        with obs.collect() as registry:
            engine = IncrementalEngine(keys=parse_keys("K = (., (//book, {@isbn}))\n"))
            engine.load(self.DOC)
            engine.violations()
            loaded = registry.snapshot()
            edit(engine)
            edited = registry.snapshot()
        assert loaded.gauge("check.flushed_contexts") == 1
        assert loaded.gauge("check.nfa_memo_entries") > 0
        for name in ("check.nfa_memo_entries", "check.flushed_contexts"):
            assert edited.gauge(name) == loaded.gauge(name), name


class TestDeltaStages:
    """``delta.apply`` splits into three per-delta spans: the fragment
    (validate, tokenize, fresh states), the store sync and the merge (the
    re-merged answer and both bag differences)."""

    STAGES = ("delta.fragment", "delta.sync", "delta.merge")

    @pytest.mark.parametrize(
        "delta",
        [replace(0, BOOK_DUP_CHAPTER), insert(1, BOOK_333), delete(0)],
        ids=["replace", "insert", "delete"],
    )
    def test_one_call_per_stage_within_the_apply_span(self, transformation, keys, delta):
        from repro import obs

        backend, store = _store(mode="log")
        try:
            with obs.collect():
                eng = IncrementalEngine(transformation, keys)
                eng.load(DOC)
                eng.attach_store(store)
                snapshot = eng.apply(delta).metrics
        finally:
            backend.close()
        applied = snapshot.histogram("stage.seconds", stage="delta.apply", kind=delta.kind)
        assert applied is not None and applied.count == 1
        staged = 0.0
        for stage in self.STAGES:
            assert snapshot.counter("stage.calls", stage=stage) == 1, stage
            staged += snapshot.histogram("stage.seconds", stage=stage).total
        assert staged <= applied.total

    def test_no_sync_stage_without_a_store(self, engine):
        from repro import obs

        with obs.collect():
            snapshot = engine.apply(replace(0, BOOK_333)).metrics
        assert snapshot.counter("stage.calls", stage="delta.sync") == 0
        assert snapshot.counter("stage.calls", stage="delta.merge") == 1


class TestBoundedAnswerState:
    """The engine retains its current answer and nothing per delta: the
    raw violations deltas diff against, and materialized violations only
    while they describe the current document."""

    def test_replacing_with_itself_retains_only_the_current_answer(self, keys):
        import gc
        import tracemalloc

        eng = IncrementalEngine(keys=keys)
        eng.load(DOC.replace("</bib>", BOOK_DUP_CHAPTER + BOOK_DUP_CHAPTER + "</bib>"))
        current = eng.violations()
        assert current
        same = eng.fragment(2)

        def retained():
            raws, materialized = eng._raw_cache, eng._violations_cache
            assert raws is None or len(raws) == len(current)
            assert materialized is None or len(materialized) == len(current)

        tracemalloc.start()
        try:
            for count in range(1, 501):
                report = eng.apply(replace(2, same))
                assert not report.appeared and not report.disappeared
                assert report.violations == len(current)
                retained()
                if count == 100:
                    gc.collect()
                    early = tracemalloc.get_traced_memory()[0]
            gc.collect()
            late = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert eng.violations() == current
        retained()
        # 400 more deltas leave no per-delta residue behind.
        assert late - early < 16 * 1024
