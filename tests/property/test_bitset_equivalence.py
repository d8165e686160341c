"""Differential tests: the bitset engine must agree with the frozenset oracle.

The public FD routines of :mod:`repro.relational.fd` run on the bitset
engine of :mod:`repro.relational.bitset`, a from-scratch reimplementation of
the frozenset fixpoint kept in ``tests/relational/fd_reference.py``.  These
Hypothesis properties assert that on random FD sets the two return
*identical* results — same attribute sets, same FDs, same list order — so
the fast engine can never silently change the output of any algorithm
built on top.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.fd import (
    FunctionalDependency,
    attribute_closure,
    equivalent,
    implies_fd,
    minimize,
    minimum_cover,
)

from tests.property.strategies import attribute_sets, fd_sets
from tests.relational import fd_reference as reference
import pytest

# Hypothesis suites run in their own CI job (see .github/workflows/ci.yml).
pytestmark = pytest.mark.slow

differential_settings = settings(max_examples=200, deadline=None)


class TestClosureAgrees:
    @differential_settings
    @given(fds=fd_sets(), start=attribute_sets(0, 3))
    def test_attribute_closure_identical(self, fds, start):
        fast = attribute_closure(start, fds)
        slow = reference.attribute_closure(start, fds)
        assert fast == slow

    @differential_settings
    @given(fds=fd_sets(), start=attribute_sets(0, 3))
    def test_closure_contains_start_and_is_monotone(self, fds, start):
        closure = attribute_closure(start, fds)
        assert frozenset(start) <= closure
        assert attribute_closure(closure, fds) == closure


class TestImplicationAgrees:
    @differential_settings
    @given(
        fds=fd_sets(),
        lhs=attribute_sets(0, 3),
        rhs=attribute_sets(1, 2),
    )
    def test_implies_fd_identical(self, fds, lhs, rhs):
        candidate = FunctionalDependency(lhs, rhs)
        fast = implies_fd(fds, candidate)
        slow = reference.implies_fd(fds, candidate)
        assert fast == slow

    @differential_settings
    @given(first=fd_sets(max_fds=4), second=fd_sets(max_fds=4))
    def test_equivalent_identical(self, first, second):
        fast = equivalent(first, second)
        slow = reference.equivalent(first, second)
        assert fast == slow


class TestMinimizeAgrees:
    @differential_settings
    @given(fds=fd_sets())
    def test_minimize_identical_including_order(self, fds):
        fast = minimize(fds)
        slow = reference.minimize(fds)
        assert fast == slow

    @differential_settings
    @given(fds=fd_sets())
    def test_minimize_preserves_equivalence(self, fds):
        reduced = minimize(fds)
        assert equivalent(fds, reduced)
        assert reference.equivalent(fds, reduced)


class TestMinimumCoverAgrees:
    @differential_settings
    @given(fds=fd_sets(), merge=st.booleans())
    def test_minimum_cover_identical_including_order(self, fds, merge):
        fast = minimum_cover(fds, merge_lhs=merge)
        slow = reference.minimum_cover(fds, merge_lhs=merge)
        assert fast == slow

    @differential_settings
    @given(fds=fd_sets())
    def test_cover_is_singleton_rhs_and_equivalent(self, fds):
        cover = minimum_cover(fds)
        assert all(len(fd.rhs) == 1 for fd in cover)
        assert reference.equivalent(fds, cover)
