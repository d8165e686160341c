"""Unit tests for the path-interning layer.

The implication oracle relies on paths being interned (equal values are the
same object, hashes precomputed) and on containment verdicts persisting
across calls; these tests pin the observable guarantees.
"""

from repro.xmlmodel.paths import (
    PathExpression,
    PathStep,
    StepKind,
    clear_containment_cache,
    concat,
    contains,
    parse_path,
)

from tests.xmlmodel.containment_reference import (
    containment_recursive,
    reference_containment,
)


class TestStepInterning:
    def test_equal_steps_are_identical(self):
        assert PathStep.label("book") is PathStep.label("book")
        assert PathStep.attribute("isbn") is PathStep.attribute("@isbn")
        assert PathStep.descendant() is PathStep.descendant()

    def test_distinct_steps_are_distinct(self):
        assert PathStep.label("book") is not PathStep.label("chapter")
        assert PathStep.label("x") is not PathStep.attribute("x")

    def test_invalid_steps_still_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            PathStep(StepKind.DESCENDANT, "named")
        with pytest.raises(ValueError):
            PathStep(StepKind.LABEL, None)

    def test_hash_matches_value_semantics(self):
        assert hash(PathStep.label("a")) == hash(PathStep.label("a"))


class TestExpressionInterning:
    def test_equal_expressions_are_identical(self):
        first = PathExpression([PathStep.label("a"), PathStep.descendant()])
        second = PathExpression([PathStep.label("a"), PathStep.descendant()])
        assert first is second

    def test_normalisation_interns_to_the_same_object(self):
        collapsed = PathExpression(
            [PathStep.descendant(), PathStep.descendant(), PathStep.label("a")]
        )
        single = PathExpression([PathStep.descendant(), PathStep.label("a")])
        assert collapsed is single

    def test_parse_is_cached_and_interned(self):
        assert parse_path("//book/chapter") is parse_path("//book/chapter")
        # Different spellings of the same expression intern to one object.
        assert parse_path("////book/chapter") is parse_path("//book/chapter")
        assert parse_path(".") is PathExpression.epsilon()

    def test_concat_interns(self):
        joined = concat(parse_path("//book"), parse_path("chapter"))
        assert joined is parse_path("//book/chapter")
        assert concat() is PathExpression.epsilon()
        assert concat(parse_path("a"), PathExpression.epsilon()) is parse_path("a")

    def test_truediv_uses_interned_concat(self):
        assert parse_path("a") / "b" is parse_path("a/b")


class TestCopyAndPickle:
    def test_pickle_reinterns(self):
        import pickle

        path = parse_path("a/b/@c")
        assert pickle.loads(pickle.dumps(path)) is path
        step = PathStep.label("book")
        assert pickle.loads(pickle.dumps(step)) is step

    def test_copy_and_deepcopy_preserve_identity(self):
        import copy

        path = parse_path("//book/chapter")
        assert copy.copy(path) is path
        assert copy.deepcopy(path) is path

    def test_deepcopy_of_containers_round_trips(self):
        import copy

        from repro.keys.key import parse_key

        key = parse_key("K2 = (//book, (chapter, {@number}))")
        clone = copy.deepcopy(key)
        assert clone == key and clone.context is key.context

    def test_pool_entries_are_reclaimed(self):
        import gc

        expressions = [parse_path(f"reclaim{i}/me{i}") for i in range(100)]
        grown = len(PathExpression._pool)
        del expressions
        parse_path.cache_clear()
        gc.collect()
        assert len(PathExpression._pool) < grown


class TestContainmentMemo:
    def test_repeated_verdicts_are_stable(self):
        covering = parse_path("//book//section")
        covered = parse_path("//book/chapter/section")
        assert contains(covering, covered)
        assert contains(covering, covered)
        clear_containment_cache()
        assert contains(covering, covered)

    def test_memoised_verdict_matches_the_recursive_reference(self):
        covering = parse_path("//a")
        covered = parse_path("a/b/a")
        assert contains(covering, covered) == containment_recursive(
            covered.steps, covering.steps
        )

    def test_reference_mode_is_scoped_and_bypasses_the_memo(self):
        import repro.xmlmodel.paths as paths

        covering = parse_path("//a")
        covered = parse_path("a/b/a")
        fast = contains(covering, covered)
        clear_containment_cache()
        with reference_containment():
            assert paths.contains(covering, covered) == fast
            assert not paths._containment_cache
        assert paths.contains is contains
        assert contains(covering, covered) == fast

    def test_reference_mode_restored_on_error(self):
        import repro.xmlmodel.paths as paths

        try:
            with reference_containment():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert paths.contains is contains
