"""Differential tests: ``project_fds`` against the exhaustive projection.

:func:`repro.relational.normalization.project_fds` trims each enumerated
subset against the source FDs instead of minimising the whole
``X → (X+ ∩ A) − X`` pool.  On random FD sets — empty left-hand sides
included — it must return exactly what the exhaustive reference of
``tests/relational/projection_reference.py`` returns: the same FDs in the
same order.  That reference runs entirely on the frozenset FD engine; the
library's minimum cover of the reference's raw pool must match too.
BCNF decomposition built on it must then be unchanged too, fragment for
fragment and key for key.  ``design_from_scratch`` projects nothing (its
fragment FDs are propagated from the keys), so its arm here is compared
with the projection route: BCNF or 3NF over the universal cover, each
fragment's FDs from the exhaustive reference projection.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.design import design_from_scratch
from repro.experiments.generators import generate_workload
from repro.keys import parse_key
from repro.relational.fd import FunctionalDependency, minimum_cover
from repro.relational.normalization import bcnf_decompose, project_fds, synthesize_3nf

from tests.relational.projection_reference import (
    raw_projection,
    reference_project_fds,
    reference_projection,
)

# Hypothesis suites run in their own CI job (see .github/workflows/ci.yml).
pytestmark = pytest.mark.slow

differential_settings = settings(max_examples=200, deadline=None)

#: Projection targets may name attributes no FD mentions (``h``).
ATTRIBUTES = ["a", "b", "c", "d", "e", "f", "g", "h"]


def attribute_sets(min_size, max_size, pool=ATTRIBUTES[:-1]):
    return st.sets(st.sampled_from(pool), min_size=min_size, max_size=max_size)


@st.composite
def fd_sets(draw, max_fds: int = 8):
    count = draw(st.integers(min_value=0, max_value=max_fds))
    return [
        FunctionalDependency(draw(attribute_sets(0, 3)), draw(attribute_sets(1, 2)))
        for _ in range(count)
    ]


def texts(fds):
    return [fd.text for fd in fds]


def schemas(relations):
    return [(r.name, r.attributes, r.keys) for r in relations]


class TestProjectionAgrees:
    @differential_settings
    @given(fds=fd_sets(), target=attribute_sets(0, 7, ATTRIBUTES))
    def test_project_fds_identical(self, fds, target):
        fast = project_fds(target, fds)
        assert texts(fast) == texts(reference_project_fds(target, fds))
        raw = raw_projection(target, fds)
        assert texts(fast) == texts(minimum_cover(raw, merge_lhs=True))

    @differential_settings
    @given(fds=fd_sets(), target=attribute_sets(1, 7, ATTRIBUTES))
    def test_bcnf_decompose_identical(self, fds, target):
        attributes = sorted(target)
        fast = bcnf_decompose("r", attributes, fds)
        with reference_projection():
            slow = bcnf_decompose("r", attributes, fds)
        assert schemas(fast) == schemas(slow)


#: Extra keys for the generated design problems: root-level uniqueness
#: makes fields constants (∅-LHS FDs), the others add alternative keys.
EXTRA_KEYS = [
    "(., (//lvl0, {}))",
    "(//lvl0, (lvl1, {}))",
    "(//lvl0, (@a0_0, {}))",
    "(//lvl0/lvl1, (lvl2, {}))",
]


@st.composite
def design_problems(draw):
    depth = draw(st.integers(min_value=1, max_value=4))
    workload = generate_workload(
        draw(st.integers(min_value=depth, max_value=9)),
        depth=depth,
        num_keys=draw(st.integers(min_value=0, max_value=8)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    extra = draw(st.lists(st.sampled_from(EXTRA_KEYS), unique=True, max_size=2))
    return list(workload.keys) + [parse_key(text) for text in extra], workload.rule


class TestDesignAgrees:
    """``design_from_scratch`` takes each fragment's FDs from the keys; the
    projection route takes them from the exhaustive projection of the
    universal cover.  Both must give the same relations, keys and
    per-relation FDs."""

    @pytest.mark.parametrize("normal_form", ["BCNF", "3NF"])
    @differential_settings
    @given(problem=design_problems())
    def test_design_from_scratch_identical(self, normal_form, problem):
        keys, rule = problem
        fast = design_from_scratch(keys, rule, normal_form=normal_form)
        cover = minimum_cover_from_keys(keys, rule).cover

        def projected(fragment):
            return reference_project_fds(fragment, cover)

        if normal_form == "BCNF":
            slow = bcnf_decompose(rule.relation, rule.field_names, cover, projected)
        else:
            slow = synthesize_3nf(rule.relation, rule.field_names, cover)
        assert texts(fast.cover.cover) == texts(cover)
        assert schemas(fast.schema) == schemas(slow)
        assert {name: texts(fds) for name, fds in fast.fd_by_relation.items()} == {
            relation.name: texts(projected(frozenset(relation.attributes)))
            for relation in slow
        }
