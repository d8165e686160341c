"""Unit tests for table-rule validation (well-formedness of Definition 2.2)."""

import re

import pytest

from repro.transform.rule import TableRule, Transformation
from repro.transform.validate import (
    InvalidTableRule,
    UnsupportedFeature,
    assert_valid,
    reject_unsupported,
    validate_rule,
    validate_transformation,
)


def make_valid_rule():
    rule = TableRule("book")
    rule.add_mapping("xa", "xr", "//book")
    rule.add_mapping("x1", "xa", "@isbn")
    rule.add_field("isbn", "x1")
    return rule


class TestValidRules:
    def test_paper_rules_are_valid(self, sigma):
        for report in validate_transformation(sigma).values():
            assert report.ok, report.problems

    def test_minimal_valid_rule(self):
        assert validate_rule(make_valid_rule()).ok

    def test_assert_valid_accepts_rule_and_transformation(self, sigma):
        assert_valid(make_valid_rule())
        assert_valid(sigma)


class TestInvalidRules:
    def test_no_fields(self):
        rule = TableRule("empty")
        rule.add_mapping("v", "xr", "//a")
        report = validate_rule(rule)
        assert not report.ok
        assert any("no field rules" in problem for problem in report.problems)

    def test_field_with_undeclared_variable(self):
        rule = TableRule("r")
        rule.add_field("a", "ghost")
        report = validate_rule(rule)
        assert any("undeclared variable" in problem for problem in report.problems)

    def test_mapping_from_undeclared_source(self):
        rule = TableRule("r")
        rule.add_mapping("v", "ghost", "a")
        rule.add_field("a", "v")
        report = validate_rule(rule)
        assert any("undeclared" in problem or "not connected" in problem for problem in report.problems)

    def test_descendant_only_from_root(self):
        rule = TableRule("r")
        rule.add_mapping("v", "xr", "//a")
        rule.add_mapping("w", "v", "//b")  # '//' from a non-root variable
        rule.add_field("f", "w")
        report = validate_rule(rule)
        assert any("'//'" in problem for problem in report.problems)

    def test_descendant_from_root_is_fine(self):
        rule = TableRule("r")
        rule.add_mapping("v", "xr", "//a//b")
        rule.add_field("f", "v")
        assert validate_rule(rule).ok

    def test_empty_path_mapping_rejected(self):
        rule = TableRule("r")
        rule.add_mapping("v", "xr", ".")
        rule.add_field("f", "v")
        report = validate_rule(rule)
        assert any("empty path" in problem for problem in report.problems)

    def test_field_variable_must_be_leaf(self):
        rule = TableRule("r")
        rule.add_mapping("v", "xr", "//a")
        rule.add_mapping("w", "v", "b")
        rule.add_field("f", "v")  # v has an outgoing mapping
        rule.add_field("g", "w")
        report = validate_rule(rule)
        assert any("leaves" in problem for problem in report.problems)

    def test_cycle_detected(self):
        rule = TableRule("r")
        rule.add_mapping("v", "w", "a")
        rule.add_mapping("w", "v", "b")
        rule.add_field("f", "v")
        report = validate_rule(rule)
        assert any("cycle" in problem for problem in report.problems)

    def test_raise_if_invalid(self):
        rule = TableRule("r")
        rule.add_field("a", "ghost")
        with pytest.raises(InvalidTableRule) as excinfo:
            validate_rule(rule).raise_if_invalid()
        assert "Rule(r)" in str(excinfo.value)

    def test_assert_valid_raises_for_bad_transformation(self):
        rule = TableRule("r")
        rule.add_field("a", "ghost")
        with pytest.raises(InvalidTableRule):
            assert_valid(Transformation([rule]))


class TestDecidabilityFrontier:
    @pytest.mark.parametrize("feature", ["selection", "difference", "foreign-key"])
    def test_known_features_refused_with_explanation(self, feature):
        with pytest.raises(UnsupportedFeature) as excinfo:
            reject_unsupported(feature)
        assert "undecidable" in str(excinfo.value)

    @pytest.mark.parametrize(
        "feature, theorem",
        [
            ("selection", "Theorem 3.1"),
            ("difference", "Theorem 3.1"),
            ("foreign-key", "Theorem 3.2"),
        ],
    )
    def test_refusal_cites_the_theorem(self, feature, theorem):
        with pytest.raises(UnsupportedFeature, match=re.escape(theorem)) as excinfo:
            reject_unsupported(feature)
        assert excinfo.value.feature == feature

    def test_unknown_feature_refused_generically(self):
        with pytest.raises(UnsupportedFeature):
            reject_unsupported("time-travel")
