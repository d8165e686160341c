"""Unit tests for the key-implication engine (``Σ ⊨ φ``)."""

import sys

import pytest

from repro.keys.implication import ImplicationEngine, implies
from repro.keys.key import XMLKey, parse_key, parse_keys

from tests.keys.implication_reference import LinearScanImplicationEngine


@pytest.fixture()
def engine(paper_keys):
    return ImplicationEngine(paper_keys)


class TestAxioms:
    def test_epsilon_rule(self, engine):
        # Any subtree has a unique root: (C, (., {})) always holds.
        assert engine.implies_parts("//book", ".", ())
        assert engine.implies_parts(".", ".", ())
        assert engine.implies_parts("//book/chapter/section", ".", ())

    def test_epsilon_rule_with_attributes_requires_existence(self, engine):
        # (//book, (., {@isbn})) needs @isbn to exist on books — guaranteed by K1.
        assert engine.implies_parts("//book", ".", {"isbn"})
        # ... but @publisher existence is not guaranteed by any key.
        assert not engine.implies_parts("//book", ".", {"publisher"})

    def test_attribute_uniqueness_rule(self, engine):
        # An element has at most one attribute of a given name.
        assert engine.implies_parts("//book", "@isbn", ())
        assert engine.implies_parts("//book/chapter", "@anything", ())

    def test_member_of_sigma_is_implied(self, paper_keys, engine):
        for key in paper_keys:
            assert engine.implies(key)


class TestStructuralRules:
    def test_target_to_context(self, engine):
        # K7 = (//book, (author/contact, {})) gives (//book/author, (contact, {})).
        assert engine.implies_parts("//book/author", "contact", ())

    def test_target_to_context_with_attributes(self, engine):
        # K1 = (., (//book, {@isbn})): splitting //book is only possible at
        # the '//' boundary, giving (// , (book, {@isbn})) — any context
        # contained in '//' (i.e. any element context) identifies its book
        # children by @isbn.
        assert engine.implies_parts("//", "book", {"isbn"})

    def test_context_containment(self, engine):
        # K2 holds for //book contexts, hence for the more specific r/book.
        assert engine.implies_parts("r/book", "chapter", {"number"})

    def test_target_containment(self, engine):
        # Absolute key on //book covers the more specific target r/book.
        assert engine.implies_parts(".", "r/book", {"isbn"})

    def test_attribute_weakening_with_existence(self, engine):
        # Books are keyed by @isbn; adding @number to the key of chapters is
        # sound because K2 requires @number to exist on chapters.
        assert engine.implies_parts("//book", "chapter", {"number"})
        # Superset {number, extra}: @extra is not guaranteed to exist.
        assert not engine.implies_parts("//book", "chapter", {"number", "extra"})

    def test_prefix_uniqueness_composition(self):
        keys = parse_keys(
            """
            (//order, (shipping, {}))
            (//order/shipping, (address, {}))
            """
        )
        # at most one shipping per order and one address per shipping
        #   ⇒ at most one shipping/address per order.
        assert implies(keys, XMLKey("//order", "shipping/address", ()))

    def test_prefix_uniqueness_with_attributes(self):
        keys = parse_keys(
            """
            (//order, (shipping, {}))
            (//order/shipping, (parcel, {@code}))
            """
        )
        assert implies(keys, XMLKey("//order", "shipping/parcel", {"code"}))

    def test_prefix_uniqueness_needs_unique_prefix(self):
        keys = parse_keys(
            """
            (//order/shipping, (parcel, {@code}))
            """
        )
        # Several shipping elements may exist, so parcels are not identified
        # within the order by @code alone.
        assert not implies(keys, XMLKey("//order", "shipping/parcel", {"code"}))


class TestNonImplications:
    def test_chapter_not_globally_keyed(self, engine):
        # Example 4.2: (., (//book/chapter, {@number})) is NOT implied.
        assert not engine.implies_parts(".", "//book/chapter", {"number"})

    def test_section_not_globally_keyed(self, engine):
        assert not engine.implies_parts(".", "//book/chapter/section", {"number"})

    def test_chapter_name_not_unique_in_book(self, engine):
        # A book may have several chapters, each with a name.
        assert not engine.implies_parts("//book", "chapter/name", ())

    def test_author_not_keyed(self, engine):
        assert not engine.implies_parts("//book", "author", ())

    def test_unrelated_label(self, engine):
        assert not engine.implies_parts(".", "//magazine", {"issn"})

    def test_wrong_attribute(self, engine):
        assert not engine.implies_parts(".", "//book", {"title"})

    def test_empty_sigma_only_axioms(self):
        engine = ImplicationEngine([])
        assert engine.implies_parts("//a", ".", ())
        assert engine.implies_parts("//a", "@b", ())
        assert not engine.implies_parts(".", "//a", {"id"})


class TestEngineBehaviour:
    def test_memoisation_counts_queries(self, paper_keys):
        engine = ImplicationEngine(paper_keys)
        before = engine.query_count
        engine.implies_parts("//book", "chapter", {"number"})
        engine.implies_parts("//book", "chapter", {"number"})
        assert engine.query_count == before + 2  # queries counted, results cached

    def test_implies_accepts_key_objects(self, paper_keys):
        engine = ImplicationEngine(paper_keys)
        assert engine.implies(parse_key("(//book, (chapter, {@number}))"))

    def test_one_shot_helper(self, paper_keys):
        assert implies(paper_keys, parse_key("(//book, (title, {}))"))

    def test_soundness_spot_check_against_documents(self, figure1, paper_keys):
        """Queries answered 'yes' must hold on the concrete Figure 1 document."""
        from repro.keys.satisfaction import satisfies

        engine = ImplicationEngine(paper_keys)
        queries = [
            XMLKey("//book/author", "contact", ()),
            XMLKey("r/book", "chapter", {"number"}),
            XMLKey("//book", "chapter", {"number"}),
            XMLKey(".", "r/book", {"isbn"}),
            XMLKey("//book/chapter", "@number", ()),
        ]
        for query in queries:
            if engine.implies(query):
                assert satisfies(figure1, query), query.text


def _chain_keys(length, missing=None):
    """``(., (a0, {}))`` and ``(//a{i-1}, (a{i}, {}))``, but for ``i = missing``."""
    return [XMLKey(".", "a0", ())] + [
        XMLKey(f"//a{i - 1}", f"a{i}", ()) for i in range(1, length) if i != missing
    ]


def _chain_target(length):
    return "/".join(f"a{i}" for i in range(length))


class TestDeepTargets:
    """Prefix uniqueness runs on an explicit stack: a target's depth is not
    bounded by the interpreter's recursion limit."""

    def test_thousand_step_target_under_the_default_recursion_limit(self):
        engine = ImplicationEngine(_chain_keys(1000))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert engine.implies_parts(".", _chain_target(1000), ())
        finally:
            sys.setrecursionlimit(limit)

    def test_a_missing_link_breaks_the_chain(self):
        engine = ImplicationEngine(_chain_keys(100, missing=50))
        assert not engine.implies_parts(".", _chain_target(100), ())
        assert engine.implies_parts(".", _chain_target(50), ())
        assert engine.implies_parts("//a50", "a51/a52/a53", ())

    @pytest.mark.parametrize("missing", [None, 1, 5])
    def test_chain_verdicts_match_the_reference(self, missing):
        keys = _chain_keys(10, missing) + [XMLKey("//a3", "a4/a5", {"id"})]
        fast = ImplicationEngine(keys)
        reference = LinearScanImplicationEngine(keys)
        for context in (".", "a0", "//a2", "//"):
            for start in range(4):
                # Longest first: shorter queries then answer from the memo
                # the longer ones left behind.
                for stop in range(10, start - 1, -1):
                    target = "/".join(f"a{i}" for i in range(start, stop))
                    for attributes in ((), ("id",)):
                        assert fast.implies_parts(context, target, attributes) == (
                            reference.implies_parts(context, target, attributes)
                        ), (context, target, attributes)

    def test_a_failed_query_memoises_its_nested_prefixes_correctly(self):
        # (//r, x/y/z/w) fails for want of a key on w, but on the way its
        # prefix x/y/z is derived by the split at y, whose prefix x/y was
        # already known to hold when the nested frame reached it.
        keys = parse_keys(
            """
            (//r, (x/y, {}))
            (//r/x/y, (z, {}))
            """
        )
        engine = ImplicationEngine(keys)
        assert not engine.implies_parts("//r", "x/y/z/w")
        assert engine.implies_parts("//r", "x/y/z")

    def test_clearing_a_full_query_memo_changes_no_verdict(self):
        keys = _chain_keys(40, missing=20)
        bounded = ImplicationEngine(keys)
        bounded.QUERY_CACHE_LIMIT = 8
        unbounded = ImplicationEngine(keys)
        for length in range(1, 41):
            for context in (".", "a0", "//a9"):
                target = _chain_target(length)
                assert bounded.implies_parts(context, target) == unbounded.implies_parts(
                    context, target
                )
        assert len(bounded._cache) <= 8
