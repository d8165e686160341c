"""Unit tests for table trees (the structure used by the algorithms)."""

import pytest

from repro.transform.table_tree import TableTree
from repro.transform.validate import InvalidTableRule
from repro.transform.rule import TableRule
from repro.xmlmodel.paths import parse_path


@pytest.fixture()
def section_tree(sigma):
    """The table tree of Rule(section), Fig. 3(b)."""
    return TableTree(sigma.rule("section"))


@pytest.fixture()
def book_tree(sigma):
    """The table tree of Rule(book), Fig. 3(a)."""
    return TableTree(sigma.rule("book"))


class TestStructure:
    def test_root(self, book_tree):
        assert book_tree.root == "xr"

    def test_parent_and_children(self, book_tree):
        assert book_tree.parent("xa") == "xr"
        assert book_tree.parent("x4") == "xb"
        assert set(book_tree.children("xa")) == {"x1", "x2", "xb"}
        assert book_tree.children("x4") == []

    def test_ancestors_top_down(self, book_tree):
        assert book_tree.ancestors("x4") == ["xr", "xa", "xb"]
        assert book_tree.ancestors("x4", include_self=True) == ["xr", "xa", "xb", "x4"]
        assert book_tree.ancestors("xr") == []

    def test_is_ancestor(self, book_tree):
        assert book_tree.is_ancestor("xr", "x4")
        assert book_tree.is_ancestor("xa", "x4", strict=True)
        assert book_tree.is_ancestor("x4", "x4")
        assert not book_tree.is_ancestor("x4", "x4", strict=True)
        assert not book_tree.is_ancestor("x4", "xa")

    def test_descendants(self, book_tree):
        assert set(book_tree.descendants("xb")) == {"x3", "x4"}
        assert "xa" in book_tree.descendants("xr")
        assert "xb" in book_tree.descendants("xb", include_self=True)

    def test_unknown_variable_raises(self, book_tree):
        with pytest.raises(KeyError):
            book_tree.parent("ghost")


class TestPaths:
    def test_path_from_parent(self, book_tree):
        assert book_tree.path_from_parent("xa") == parse_path("//book")
        assert book_tree.path_from_parent("x1") == parse_path("@isbn")

    def test_path_between_composes_mappings(self, book_tree):
        # Fig. 3(a): path(xr, x4) = //book/author/contact
        assert book_tree.path_between("xr", "x4") == parse_path("//book/author/contact")
        assert book_tree.path_between("xa", "x4") == parse_path("author/contact")

    def test_path_between_self_is_epsilon(self, book_tree):
        assert book_tree.path_between("xa", "xa").is_epsilon

    def test_path_between_non_ancestor_raises(self, book_tree):
        with pytest.raises(ValueError):
            book_tree.path_between("x1", "x4")

    def test_path_from_root(self, section_tree):
        assert section_tree.path_from_root("z3") == parse_path("//book/chapter/section/name")


class TestCodes:
    def test_codes_equal_the_encoded_paths(self, section_tree, paper_keys):
        from repro.keys.implication import ImplicationEngine

        engine = ImplicationEngine(paper_keys)
        table = engine.code_table
        for variable in reversed(section_tree.variables):
            for ancestor in section_tree.ancestors(variable, include_self=True):
                assert section_tree.codes_between(ancestor, variable, table) == engine._encode(
                    section_tree.path_between(ancestor, variable)
                )
            assert section_tree.codes_from_root(variable, table) == engine._encode(
                section_tree.path_from_root(variable)
            )

    def test_descendant_junction_collapses(self):
        rule = TableRule("R")
        rule.add_mapping("x", "xr", "a//")
        rule.add_mapping("y", "x", "//b")
        rule.add_field("f", "y")
        tree = TableTree(rule, validate=False)
        table = {}
        assert len(tree.codes_from_root("y", table)) == 3
        assert tree.codes_between("xr", "y", table) == tree.codes_from_root("y", table)
        assert tree.codes_between("x", "y", table) == tree.codes_from_root("y", table)[1:]

    def test_codes_between_non_ancestor_raises(self, book_tree):
        with pytest.raises(ValueError):
            book_tree.codes_between("x1", "x4", {})


class TestFieldsAndAttributes:
    def test_field_variable(self, section_tree):
        assert section_tree.field_variable("name") == "z3"

    def test_attribute_fields(self, section_tree):
        # zc carries @number which populates inChapt; zs carries @number for number.
        assert section_tree.attribute_fields("zc") == {"number": "inChapt"}
        assert section_tree.attribute_fields("zs") == {"number": "number"}
        assert section_tree.attribute_fields("z3") == {}

    def test_attribute_fields_restricted(self, section_tree):
        assert section_tree.fields_from_attributes_of("zc", ["inChapt"]) == {"number": "inChapt"}
        assert section_tree.fields_from_attributes_of("zc", ["name"]) == {}

    def test_fields(self, section_tree):
        assert section_tree.fields() == ["inChapt", "number", "name"]


class TestMetricsAndRendering:
    def test_depth_counts_intermediate_labels(self, book_tree, section_tree):
        # Rule(book): xr --//book--> xa --author--> xb --contact--> x4 : depth 4
        assert book_tree.depth == 4
        # Rule(section): //book/chapter (3) + section (1) + name/@number (1) = 5
        assert section_tree.depth == 5

    def test_size_counts_all_steps(self, book_tree):
        assert book_tree.size == 2 + 1 + 1 + 1 + 1 + 1

    def test_render_lists_variables_and_fields(self, section_tree):
        rendered = section_tree.render()
        assert "(zs)" in rendered
        assert "[name]" in rendered
        assert "//book/chapter" in rendered

    def test_invalid_rule_rejected_at_construction(self):
        rule = TableRule("bad")
        rule.add_field("f", "ghost")
        with pytest.raises(InvalidTableRule):
            TableTree(rule)

    def test_validation_can_be_skipped(self):
        rule = TableRule("bad")
        rule.add_field("f", "ghost")
        tree = TableTree(rule, validate=False)
        assert tree.root == "xr"
