"""Unit tests for the ``minimize`` routine and minimum covers (Section 5)."""

import pytest

from repro.relational.fd import (
    FunctionalDependency,
    equivalent,
    implies_fd,
    minimize,
    minimum_cover,
)

from tests.relational import fd_reference
from tests.relational.fd_reference import (
    remove_extraneous_attributes,
    remove_redundant_fds,
)


class TestRemoveExtraneousAttributes:
    def test_extraneous_attribute_dropped(self):
        # In {a -> b, a,b -> c}, b is extraneous in the second FD.
        fds = ["a -> b", "a, b -> c"]
        reduced = remove_extraneous_attributes(fds)
        assert FunctionalDependency({"a"}, {"c"}) in reduced

    def test_needed_attributes_kept(self):
        fds = ["a, b -> c"]
        reduced = remove_extraneous_attributes(fds)
        assert reduced == [FunctionalDependency({"a", "b"}, {"c"})]

    def test_result_equivalent_to_input(self):
        fds = ["a -> b", "a, b -> c", "c -> d"]
        assert equivalent(fds, remove_extraneous_attributes(fds))


class TestRemoveRedundantFDs:
    def test_transitively_implied_fd_removed(self):
        fds = ["a -> b", "b -> c", "a -> c"]
        reduced = remove_redundant_fds(fds)
        assert len(reduced) == 2
        assert FunctionalDependency({"a"}, {"c"}) not in reduced

    def test_nothing_removed_when_independent(self):
        fds = ["a -> b", "c -> d"]
        assert len(remove_redundant_fds(fds)) == 2

    def test_result_equivalent_to_input(self):
        fds = ["a -> b", "b -> c", "a -> c", "a -> b"]
        assert equivalent(fds, remove_redundant_fds(fds))


class TestMinimize:
    def test_trivial_fds_dropped(self):
        assert minimize(["a -> a", "a, b -> b"]) == []

    def test_classic_example(self):
        fds = ["a -> b", "b -> c", "a -> c", "a, b -> c"]
        reduced = minimize(fds)
        assert equivalent(fds, reduced)
        assert len(reduced) == 2

    def test_paper_cover_is_already_minimal(self):
        cover = [
            "bookIsbn -> bookTitle",
            "bookIsbn -> authContact",
            "bookIsbn, chapNum -> chapName",
            "bookIsbn, chapNum, secNum -> secName",
        ]
        assert len(minimize(cover)) == 4

    def test_non_redundancy_of_output(self):
        fds = ["a -> b", "b -> c", "a -> c", "c -> a"]
        reduced = minimize(fds)
        for fd in reduced:
            others = [other for other in reduced if other != fd]
            assert not implies_fd(others, fd)

    def test_equivalence_preserved_on_random_style_input(self):
        fds = [
            "a -> b, c",
            "b -> d",
            "c, d -> e",
            "a -> e",
            "e, a -> b",
        ]
        reduced = minimize(fds)
        assert equivalent(fds, reduced)


class TestMinimumCover:
    def test_singleton_rhs_by_default(self):
        cover = minimum_cover(["a -> b, c"])
        assert all(len(fd.rhs) == 1 for fd in cover)

    def test_merge_lhs(self):
        cover = minimum_cover(["a -> b", "a -> c"], merge_lhs=True)
        assert len(cover) == 1
        assert cover[0].rhs == frozenset({"b", "c"})

    def test_equivalent_to_input(self):
        fds = ["a -> b, c", "b -> c", "c -> d", "a, d -> e"]
        assert equivalent(fds, minimum_cover(fds))
        assert equivalent(fds, minimum_cover(fds, merge_lhs=True))


#: Inputs where extraneous attributes, redundant FDs, duplicates and
#: trivial FDs interact; the library must match the reference on each.
REFERENCE_CASES = [
    ["a -> b", "a, b -> c"],
    ["a -> b", "b -> c", "a -> c", "a, b -> c"],
    ["a -> b", "b -> c", "a -> c", "c -> a"],
    ["a -> b, c", "b -> d", "c, d -> e", "a -> e", "e, a -> b"],
    ["a -> a", "a, b -> b", "a -> b", "a -> b"],
    ["∅ -> a", "a, b -> c", "b -> c"],
]


class TestAgreesWithReference:
    @pytest.mark.parametrize("fds", REFERENCE_CASES)
    def test_minimize_identical_including_order(self, fds):
        assert minimize(fds) == fd_reference.minimize(fds)

    @pytest.mark.parametrize("merge", [False, True])
    @pytest.mark.parametrize("fds", REFERENCE_CASES)
    def test_minimum_cover_identical_including_order(self, fds, merge):
        assert minimum_cover(fds, merge_lhs=merge) == fd_reference.minimum_cover(
            fds, merge_lhs=merge
        )
