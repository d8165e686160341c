"""Properties of the shredding semantics (rule evaluation)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.design.refine import restrict_rule
from repro.experiments.paper_example import paper_transformation, universal_relation
from repro.relational.instance import Row, is_null
from repro.transform.evaluate import evaluate_rule

from tests.property.strategies import paper_conformant_documents
import pytest

# Hypothesis suites run in their own CI job (see .github/workflows/ci.yml).
pytestmark = pytest.mark.slow


SIGMA = paper_transformation()
UNIVERSAL = universal_relation()

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestEvaluationBasics:
    @common_settings
    @given(st.sampled_from(["book", "chapter", "section"]), paper_conformant_documents())
    def test_rows_cover_exactly_the_schema(self, relation, doc):
        rule = SIGMA.rule(relation)
        instance = evaluate_rule(rule, doc)
        for row in instance:
            assert set(row.keys()) == set(rule.field_names)

    @common_settings
    @given(st.sampled_from(["book", "chapter", "section"]), paper_conformant_documents())
    def test_deduplicated_evaluation_is_a_subset_of_the_bag(self, relation, doc):
        rule = SIGMA.rule(relation)
        dedup = evaluate_rule(rule, doc)
        bag = evaluate_rule(rule, doc, deduplicate=False)
        assert len(dedup) <= len(bag)
        assert set(dedup.rows) <= set(bag.rows)

    @common_settings
    @given(paper_conformant_documents())
    def test_book_rows_match_book_elements(self, doc):
        instance = evaluate_rule(SIGMA.rule("book"), doc)
        books = doc.elements_by_tag("book")
        if books:
            isbns = {row["isbn"] for row in instance if not is_null(row["isbn"])}
            assert isbns == {book.attribute_value("isbn") for book in books}
        else:
            # With no book at all, the Cartesian semantics yields one all-null row.
            assert len(instance) == 1
            assert instance.rows[0].has_null()


class TestRestrictionIsProjection:
    """Evaluating a restricted rule equals projecting the universal instance."""

    @common_settings
    @given(
        st.sampled_from(
            [
                ("bookIsbn", "bookTitle"),
                ("bookIsbn", "chapNum", "chapName"),
                ("bookIsbn", "chapNum", "secNum", "secName"),
                ("bookIsbn", "bookAuthor"),
            ]
        ),
        paper_conformant_documents(),
    )
    def test_projection_equivalence(self, fields, doc):
        restricted = restrict_rule(UNIVERSAL.rule, list(fields), "fragment")
        direct = evaluate_rule(restricted, doc)
        universal_instance = evaluate_rule(UNIVERSAL.rule, doc)
        projected = {
            Row({field: row.get_value(field) for field in fields})
            for row in universal_instance
        }
        assert set(direct.rows) == projected
