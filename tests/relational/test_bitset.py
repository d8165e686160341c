"""Unit tests for the interned-attribute bitset FD engine."""

from repro.relational.bitset import (
    AttributeUniverse,
    BitFDSet,
    closure_fds,
    implies_fds,
    iter_bits,
    minimize_fds,
)
from repro.relational.fd import FunctionalDependency


def FD(text_or_lhs, rhs=None):
    """Shorthand: FD("a -> b") or FD({"a"}, {"b"})."""
    if rhs is None:
        return FunctionalDependency.parse(text_or_lhs)
    return FunctionalDependency(text_or_lhs, rhs)


class TestIterBits:
    def test_empty_mask(self):
        assert list(iter_bits(0)) == []

    def test_single_bit(self):
        assert list(iter_bits(1 << 7)) == [7]

    def test_lowest_first(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]

    def test_wide_mask(self):
        mask = (1 << 500) | (1 << 3) | 1
        assert list(iter_bits(mask)) == [0, 3, 500]


class TestAttributeUniverse:
    def test_interning_is_stable(self):
        universe = AttributeUniverse()
        first = universe.intern("a")
        assert universe.intern("b") != first
        assert universe.intern("a") == first

    def test_bits_assigned_in_first_seen_order(self):
        universe = AttributeUniverse(["x", "y", "z"])
        assert [universe.bit_of(name) for name in ("x", "y", "z")] == [0, 1, 2]

    def test_name_of_round_trip(self):
        universe = AttributeUniverse()
        for name in ("alpha", "beta", "gamma"):
            assert universe.name_of(universe.intern(name)) == name

    def test_mask_and_names_round_trip(self):
        universe = AttributeUniverse()
        mask = universe.mask({"a", "b", "c"})
        assert universe.names(mask) == frozenset({"a", "b", "c"})

    def test_mask_accepts_single_string(self):
        universe = AttributeUniverse()
        assert universe.names(universe.mask("solo")) == frozenset({"solo"})

    def test_mask_if_known_rejects_unknown(self):
        universe = AttributeUniverse(["a"])
        assert universe.mask_if_known({"a"}) == 1
        assert universe.mask_if_known({"a", "zzz"}) is None
        assert "zzz" not in universe

    def test_sorted_bits_orders_by_name_not_position(self):
        universe = AttributeUniverse(["z", "a", "m"])
        mask = universe.mask({"z", "a", "m"})
        names = [universe.name_of(bit) for bit in universe.sorted_bits(mask)]
        assert names == ["a", "m", "z"]

    def test_len_contains_iter(self):
        universe = AttributeUniverse(["p", "q"])
        assert len(universe) == 2
        assert "p" in universe and "r" not in universe
        assert list(universe) == ["p", "q"]


class TestClosure:
    def test_empty_fd_set_closure_is_reflexive(self):
        pool = BitFDSet()
        assert pool.closure({"a", "b"}) == frozenset({"a", "b"})

    def test_empty_start_with_no_fds(self):
        pool = BitFDSet()
        assert pool.closure(()) == frozenset()

    def test_chain_closure(self):
        pool = BitFDSet.from_fds([FD("a -> b"), FD("b -> c"), FD("c -> d")])
        assert pool.closure({"a"}) == frozenset("abcd")
        assert pool.closure({"c"}) == frozenset("cd")

    def test_reversed_chain_closure(self):
        fds = [FD(f"a{i} -> a{i + 1}") for i in range(20)]
        fds.reverse()
        pool = BitFDSet.from_fds(fds)
        assert pool.closure({"a0"}) == frozenset(f"a{i}" for i in range(21))

    def test_empty_lhs_fd_always_fires(self):
        pool = BitFDSet.from_fds([FD((), {"c"}), FD("c -> d")])
        assert pool.closure(()) == frozenset({"c", "d"})
        assert pool.closure({"x"}) == frozenset({"x", "c", "d"})

    def test_multi_attribute_lhs_needs_all(self):
        pool = BitFDSet.from_fds([FD("a, b -> c")])
        assert pool.closure({"a"}) == frozenset({"a"})
        assert pool.closure({"a", "b"}) == frozenset({"a", "b", "c"})

    def test_unknown_query_attributes_are_carried_through(self):
        pool = BitFDSet.from_fds([FD("a -> b")])
        assert pool.closure({"a", "mystery"}) == frozenset({"a", "b", "mystery"})

    def test_skip_excludes_one_fd(self):
        pool = BitFDSet.from_fds([FD("a -> b"), FD("a -> c")])
        full = pool.closure_mask(pool.universe.mask({"a"}))
        without_first = pool.closure_mask(pool.universe.mask({"a"}), skip=0)
        assert pool.universe.names(full) == frozenset({"a", "b", "c"})
        assert pool.universe.names(without_first) == frozenset({"a", "c"})

    def test_until_early_exit_is_sound(self):
        pool = BitFDSet.from_fds([FD("a -> b"), FD("b -> c")])
        universe = pool.universe
        target = universe.mask({"b"})
        partial = pool.closure_mask(universe.mask({"a"}), until=target)
        assert target & ~partial == 0

    def test_implies(self):
        pool = BitFDSet.from_fds([FD("a -> b"), FD("b -> c")])
        assert pool.implies(FD("a -> c"))
        assert pool.implies(FD("a, z -> z"))  # reflexivity with unknown attr
        assert not pool.implies(FD("b -> a"))
        assert not pool.implies(FD("a -> unknown"))


class TestMutation:
    def test_replace_trims_lhs_and_closure_follows(self):
        pool = BitFDSet.from_fds([FD("a, b -> c")])
        universe = pool.universe
        pool.replace(0, universe.mask({"a"}), universe.mask({"c"}))
        assert pool.closure({"a"}) == frozenset({"a", "c"})

    def test_stale_index_entries_do_not_misfire(self):
        # After trimming b off "a, b -> c", deriving b must not fire the FD
        # twice nor corrupt the counters for a later closure of {a}.
        pool = BitFDSet.from_fds([FD("a, b -> c"), FD("x -> b")])
        universe = pool.universe
        pool.replace(0, universe.mask({"a"}), universe.mask({"c"}))
        assert pool.closure({"x"}) == frozenset({"x", "b"})
        assert pool.closure({"a"}) == frozenset({"a", "c"})

    def test_replace_with_new_bits_indexes_them(self):
        pool = BitFDSet.from_fds([FD("a -> c")])
        universe = pool.universe
        pool.replace(0, universe.mask({"b"}), universe.mask({"c"}))
        assert pool.closure({"b"}) == frozenset({"b", "c"})
        assert pool.closure({"a"}) == frozenset({"a"})

    def test_deactivate_and_activate(self):
        pool = BitFDSet.from_fds([FD("a -> b")])
        pool.deactivate(0)
        assert pool.closure({"a"}) == frozenset({"a"})
        assert len(pool) == 0
        pool.activate(0)
        assert pool.closure({"a"}) == frozenset({"a", "b"})
        assert len(pool) == 1

    def test_closure_cache_invalidated_by_mutation(self):
        pool = BitFDSet.from_fds([FD("a -> b")])
        assert pool.closure({"a"}) == frozenset({"a", "b"})
        pool.add_fd(FD("b -> c"))
        assert pool.closure({"a"}) == frozenset({"a", "b", "c"})
        pool.deactivate(1)
        assert pool.closure({"a"}) == frozenset({"a", "b"})

    def test_empty_lhs_bookkeeping_across_replace(self):
        pool = BitFDSet.from_fds([FD("a -> b")])
        universe = pool.universe
        pool.replace(0, 0, universe.mask({"b"}))
        assert pool.closure(()) == frozenset({"b"})
        pool.replace(0, universe.mask({"a"}), universe.mask({"b"}))
        assert pool.closure(()) == frozenset()


class TestFunctionalWrappers:
    def test_closure_fds(self):
        assert closure_fds({"a"}, [FD("a -> b")]) == frozenset({"a", "b"})

    def test_closure_fds_empty_pool(self):
        assert closure_fds({"a"}, []) == frozenset({"a"})

    def test_implies_fds(self):
        assert implies_fds([FD("a -> b"), FD("b -> c")], FD("a -> c"))
        assert not implies_fds([], FD("a -> b"))

    def test_minimize_fds_drops_extraneous_and_redundant(self):
        reduced = minimize_fds([FD("a, b -> c"), FD("a -> b"), FD("a -> c")])
        assert FD("a -> b") in reduced
        # "a, b -> c" loses b (extraneous), then collides with "a -> c".
        assert len(reduced) == 2

    def test_minimize_fds_empty(self):
        assert minimize_fds([]) == []
