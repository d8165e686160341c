"""Unit tests for the XMLKey value type and its textual syntax."""

import pytest

from repro.keys.key import XMLKey, parse_key, parse_keys
from repro.xmlmodel.paths import parse_path


class TestConstruction:
    def test_components_are_coerced(self):
        key = XMLKey("//book", "chapter", {"@number"})
        assert key.context == parse_path("//book")
        assert key.target == parse_path("chapter")
        assert key.attributes == frozenset({"number"})

    def test_single_attribute_string(self):
        key = XMLKey(".", "//book", "isbn")
        assert key.attributes == frozenset({"isbn"})

    def test_empty_attribute_set(self):
        key = XMLKey("//book", "title", ())
        assert key.attributes == frozenset()

    def test_absolute_vs_relative(self):
        assert XMLKey(".", "//book", {"isbn"}).is_absolute
        assert not XMLKey("//book", "chapter", {"number"}).is_absolute
        assert XMLKey("//book", "chapter", {"number"}).is_relative

    def test_context_target_concatenation(self):
        key = XMLKey("//book", "chapter", {"number"})
        assert key.context_target == parse_path("//book/chapter")

    def test_size(self):
        key = XMLKey("//book", "chapter", {"number"})
        assert key.size == 2 + 1 + 1

    def test_attribute_list_sorted(self):
        key = XMLKey(".", "//p", {"z", "a", "m"})
        assert key.attribute_list == ["a", "m", "z"]

    def test_attribute_list_is_a_fresh_list(self):
        key = XMLKey(".", "//p", {"z", "a"})
        key.attribute_list.append("q")
        assert key.attribute_list == ["a", "z"]
        assert key.text == "(., (//p, {@a, @z}))"


class TestRenderedOnce:
    """A key's text is rendered at construction; every way of making a key
    from another must render its own."""

    KEY = "K2 = (//book, (chapter, {@number, @a}))"

    def test_text_of_a_parsed_key(self):
        assert parse_key(self.KEY).text == "K2 = (//book, (chapter, {@a, @number}))"

    def test_with_name_renders_the_new_name(self):
        key = parse_key(self.KEY).with_name("K9")
        assert key.text == "K9 = (//book, (chapter, {@a, @number}))"
        assert str(key) == key.text

    def test_rebased_renders_the_new_context(self):
        key = parse_key(self.KEY).rebased("//lib")
        assert key.text == "K2 = (//lib//book, (chapter, {@a, @number}))"
        assert repr(key) == f"XMLKey({key.text!r})"

    def test_unnamed_key_has_no_prefix(self):
        assert XMLKey("//book", "title", ()).text == "(//book, (title, {}))"

    def test_pickle_round_trip_keeps_the_text(self):
        import pickle

        key = parse_key(self.KEY)
        clone = pickle.loads(pickle.dumps(key))
        assert clone.text == key.text and clone == key and hash(clone) == hash(key)
        assert parse_key(clone.text) == key


class TestValueSemantics:
    def test_equality_ignores_name(self):
        first = XMLKey("//book", "chapter", {"number"}, name="K2")
        second = XMLKey("//book", "chapter", {"number"}, name="other")
        assert first == second
        assert hash(first) == hash(second)

    def test_inequality_on_attributes(self):
        assert XMLKey("//book", "chapter", {"number"}) != XMLKey("//book", "chapter", set())

    def test_usable_in_sets(self):
        keys = {XMLKey("//book", "chapter", {"number"}), XMLKey("//book", "chapter", {"number"})}
        assert len(keys) == 1

    def test_with_name(self):
        key = XMLKey("//book", "chapter", {"number"}).with_name("K2")
        assert key.name == "K2"

    def test_rebased(self):
        key = XMLKey("chapter", "section", {"number"})
        rebased = key.rebased("//book")
        assert rebased.context == parse_path("//book/chapter")
        assert rebased.target == key.target


class TestTextualSyntax:
    def test_parse_simple(self):
        key = parse_key("(//book, (chapter, {@number}))")
        assert key.context == parse_path("//book")
        assert key.target == parse_path("chapter")
        assert key.attributes == frozenset({"number"})

    def test_parse_named(self):
        key = parse_key("K1 = (., (//book, {@isbn}))")
        assert key.name == "K1"
        assert key.is_absolute

    def test_parse_empty_attribute_set(self):
        key = parse_key("(//book, (title, {}))")
        assert key.attributes == frozenset()

    def test_parse_multiple_attributes(self):
        key = parse_key("(., (//conference, {@acronym, @year}))")
        assert key.attributes == frozenset({"acronym", "year"})

    def test_round_trip_through_text(self):
        original = parse_key("K6 = (//book/chapter, (section, {@number}))")
        assert parse_key(original.text) == original

    def test_parse_keys_multi_line_with_comments(self):
        keys = parse_keys(
            """
            # the document-wide book key
            K1 = (., (//book, {@isbn}))

            K2 = (//book, (chapter, {@number}))
            """
        )
        assert [key.name for key in keys] == ["K1", "K2"]

    @pytest.mark.parametrize(
        "bad",
        [
            "not a key",
            "(//book, chapter, {@number})",
            "(//book, (chapter, @number))",
            "(//book)",
        ],
    )
    def test_malformed_syntax_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_key(bad)

    def test_str_contains_components(self):
        key = XMLKey("//book", "chapter", {"number"}, name="K2")
        assert "K2" in str(key)
        assert "//book" in str(key)
        assert "@number" in str(key)
