"""Unit tests for candidate keys, FD projection, BCNF and 3NF."""

from itertools import combinations

import pytest

from repro.relational.fd import FunctionalDependency, attribute_closure, equivalent, implies_fd
from repro.relational.normalization import (
    bcnf_decompose,
    candidate_keys,
    is_3nf,
    is_bcnf,
    is_superkey,
    project_fds,
    synthesize_3nf,
)


class TestCandidateKeys:
    def test_single_key(self):
        keys = candidate_keys({"a", "b", "c"}, ["a -> b", "a -> c"])
        assert keys == [frozenset({"a"})]

    def test_composite_key(self):
        keys = candidate_keys({"a", "b", "c"}, ["a, b -> c"])
        assert keys == [frozenset({"a", "b"})]

    def test_multiple_keys(self):
        keys = candidate_keys({"a", "b", "c"}, ["a -> b", "b -> a", "a -> c"])
        assert frozenset({"a"}) in keys and frozenset({"b"}) in keys

    def test_no_fds_whole_schema_is_key(self):
        assert candidate_keys({"a", "b"}, []) == [frozenset({"a", "b"})]

    def test_keys_are_minimal(self):
        keys = candidate_keys({"a", "b", "c", "d"}, ["a -> b, c, d"])
        assert keys == [frozenset({"a"})]

    def test_limit(self):
        keys = candidate_keys({"a", "b", "c"}, ["a -> b, c", "b -> a, c", "c -> a, b"], limit=2)
        assert len(keys) == 2

    def test_is_superkey(self):
        assert is_superkey({"a"}, {"a", "b"}, ["a -> b"])
        assert not is_superkey({"b"}, {"a", "b"}, ["a -> b"])


class TestProjectFDs:
    def test_projection_hides_intermediate_attribute(self):
        # a -> b -> c projected on {a, c} yields a -> c.
        projected = project_fds({"a", "c"}, ["a -> b", "b -> c"])
        assert implies_fd(projected, "a -> c")

    def test_projection_only_mentions_projected_attributes(self):
        projected = project_fds({"a", "c"}, ["a -> b", "b -> c"])
        mentioned = set()
        for fd in projected:
            mentioned |= fd.attributes
        assert mentioned <= {"a", "c"}

    def test_projection_of_unrelated_attributes_is_empty(self):
        assert project_fds({"x", "y"}, ["a -> b"]) == []

    def test_unminimised_projection_contains_more(self):
        raw = project_fds({"a", "b", "c"}, ["a -> b", "b -> c"], minimize_result=False)
        minimised = project_fds({"a", "b", "c"}, ["a -> b", "b -> c"])
        assert len(raw) >= len(minimised)

    @pytest.mark.parametrize("engine", ["bitset", "frozenset"])
    def test_empty_lhs_survives_projection(self, engine):
        projected = project_fds({"a", "b", "c"}, ["∅ -> a", "b -> c"], engine=engine)
        assert {fd.text for fd in projected} == {"∅ -> a", "b -> c"}
        raw = project_fds(
            {"a", "b", "c"}, ["∅ -> a", "b -> c"], minimize_result=False, engine=engine
        )
        assert raw[0].text == "∅ -> a"

    @pytest.mark.parametrize("engine", ["bitset", "frozenset"])
    @pytest.mark.parametrize(
        "fds",
        [
            ["∅ -> a", "b -> c"],
            ["∅ -> a", "a -> b", "b, c -> d"],
            ["a -> b", "b -> c", "c, d -> e", "e -> a"],
            ["∅ -> a, b", "a, c -> d", "d -> c"],
        ],
    )
    def test_projection_onto_all_attributes_is_equivalent(self, fds, engine):
        attributes = set()
        for fd in fds:
            attributes |= FunctionalDependency.parse(fd).attributes
        projected = project_fds(attributes, fds, engine=engine)
        assert equivalent(projected, fds)


class TestNormalFormPredicates:
    def test_bcnf_positive(self):
        assert is_bcnf({"a", "b"}, ["a -> b"])

    def test_bcnf_negative(self):
        assert not is_bcnf({"a", "b", "c"}, ["a -> b, c", "b -> c"])

    def test_trivial_fds_do_not_violate(self):
        assert is_bcnf({"a", "b"}, ["a, b -> a"])

    def test_3nf_allows_prime_dependencies(self):
        # Classic: city, street -> zip; zip -> city is 3NF but not BCNF.
        fds = ["city, street -> zip", "zip -> city"]
        attrs = {"city", "street", "zip"}
        assert is_3nf(attrs, fds)
        assert not is_bcnf(attrs, fds)

    def test_3nf_negative(self):
        assert not is_3nf({"a", "b", "c"}, ["a -> b", "b -> c"])


class TestBCNFDecomposition:
    def test_already_bcnf_is_left_alone(self):
        fragments = bcnf_decompose("r", ["a", "b"], ["a -> b"])
        assert len(fragments) == 1
        assert set(fragments[0].attributes) == {"a", "b"}

    def test_simple_split(self):
        fragments = bcnf_decompose("r", ["a", "b", "c"], ["b -> c"])
        attribute_sets = [set(f.attributes) for f in fragments]
        assert {"b", "c"} in attribute_sets
        assert any({"a", "b"} <= s for s in attribute_sets)

    def test_every_fragment_is_bcnf(self):
        fds = ["a -> b", "b -> c", "c, d -> e"]
        fragments = bcnf_decompose("r", ["a", "b", "c", "d", "e"], fds)
        for fragment in fragments:
            local = project_fds(fragment.attributes, fds)
            assert is_bcnf(fragment.attributes, local)

    def test_fragments_cover_all_attributes(self):
        attrs = ["a", "b", "c", "d"]
        fragments = bcnf_decompose("r", attrs, ["a -> b", "c -> d"])
        covered = set()
        for fragment in fragments:
            covered |= set(fragment.attributes)
        assert covered == set(attrs)

    def test_fragments_carry_keys(self):
        fragments = bcnf_decompose("r", ["a", "b", "c"], ["a -> b, c"])
        assert all(fragment.keys for fragment in fragments)

    def test_paper_universal_relation_decomposition(self):
        attrs = [
            "bookIsbn",
            "bookTitle",
            "bookAuthor",
            "authContact",
            "chapNum",
            "chapName",
            "secNum",
            "secName",
        ]
        cover = [
            "bookIsbn -> bookTitle",
            "bookIsbn -> authContact",
            "bookIsbn, chapNum -> chapName",
            "bookIsbn, chapNum, secNum -> secName",
        ]
        fragments = bcnf_decompose("U", attrs, cover)
        attribute_sets = [set(f.attributes) for f in fragments]
        # The decomposition of Example 3.1 (book / chapter / section fragments
        # plus one holding the remaining author information).
        assert {"bookIsbn", "bookTitle", "authContact"} in attribute_sets
        assert {"bookIsbn", "chapNum", "chapName"} in attribute_sets
        assert {"bookIsbn", "chapNum", "secNum", "secName"} in attribute_sets
        for fragment in fragments:
            local = project_fds(fragment.attributes, cover)
            assert is_bcnf(fragment.attributes, local)


def _bcnf_under_exact_projection(fragment, fds):
    """BCNF by definition: every ``X ⊆ fragment`` either determines no other
    attribute of the fragment or determines all of it."""
    attrs = sorted(fragment)
    for size in range(len(attrs) + 1):
        for subset in combinations(attrs, size):
            determined = attribute_closure(subset, fds) & set(attrs)
            if determined != set(subset) and determined != set(attrs):
                return False
    return True


class TestEmptyLhsDesign:
    """A key ``(., (//lvl0, {}))`` makes the root's fields constants
    (``∅ → a0_0``); the decomposition must honour those FDs."""

    @pytest.fixture()
    def cover(self):
        from repro.core import minimum_cover_from_keys
        from repro.experiments.generators import generate_workload
        from repro.keys import parse_key

        workload = generate_workload(11, depth=5, num_keys=8, seed=2)
        keys = list(workload.keys) + [parse_key("root_one = (., (//lvl0, {}))")]
        return workload.rule, minimum_cover_from_keys(keys, workload.rule).cover

    def test_cover_has_empty_lhs_fds(self, cover):
        _, fds = cover
        assert any(not fd.lhs for fd in fds)

    @pytest.mark.parametrize("engine", ["bitset", "frozenset"])
    def test_every_fragment_is_bcnf_under_the_exact_projection(self, cover, engine):
        rule, fds = cover
        fragments = bcnf_decompose(rule.relation, rule.field_names, fds, engine=engine)
        for fragment in fragments:
            assert _bcnf_under_exact_projection(fragment.attributes, fds), fragment
        assert {frozenset(f.attributes) for f in fragments} == {
            frozenset({"a0_0", "e0_0", "k0"}),
            frozenset({"e1_0", "k1"}),
            frozenset({"a2_0", "k1", "k2"}),
            frozenset({"e3_0", "k1", "k2", "k3"}),
            frozenset({"a4_0", "k1", "k2", "k3", "k4"}),
        }


class TestThirdNormalForm:
    def test_synthesis_groups_by_lhs(self):
        fragments = synthesize_3nf("r", ["a", "b", "c"], ["a -> b", "a -> c"])
        assert any(set(f.attributes) == {"a", "b", "c"} for f in fragments)

    def test_synthesis_adds_key_relation_when_needed(self):
        fragments = synthesize_3nf("r", ["a", "b", "c"], ["a -> b"])
        covered = set()
        for fragment in fragments:
            covered |= set(fragment.attributes)
        assert covered == {"a", "b", "c"}
        # Some fragment must contain a candidate key of the whole relation
        # ({a, c} here) to guarantee a lossless join.
        assert any({"a", "c"} <= set(f.attributes) for f in fragments)

    def test_every_fragment_is_3nf(self):
        fds = ["a -> b", "b -> c"]
        fragments = synthesize_3nf("r", ["a", "b", "c"], fds)
        for fragment in fragments:
            local = project_fds(fragment.attributes, fds)
            assert is_3nf(fragment.attributes, local)
