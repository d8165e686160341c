"""The library implication engine and the linear-scan reference give
*identical* results through the core algorithms, not just equivalent ones.

``test_cover_equivalence`` checks that ``minimumCover`` is Armstrong-
equivalent to the exhaustive baseline.  Here the same random
``generate_workload`` problem runs through ``minimum_cover_from_keys`` and
``propagated_fds`` twice: with the default :class:`ImplicationEngine`
(integer step codes, indexed variants, stacked prefix splits) and with
``LinearScanImplicationEngine`` from ``tests/keys/implication_reference.py``
(a linear variant scan over ``PathExpression`` objects, recursive
containment).  Every artefact must be equal: the ordered cover, the
generated FDs, the candidate keys, the representatives, the number of
implication queries, and every propagation verdict with its trace.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.core.propagation import propagated_fds
from repro.experiments.generators import generate_workload
from repro.relational.fd import FunctionalDependency

from tests.keys.implication_reference import LinearScanImplicationEngine

# Hypothesis suites run in their own CI job (see .github/workflows/ci.yml).
pytestmark = pytest.mark.slow

identity_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def workloads(draw):
    depth = draw(st.integers(min_value=1, max_value=6))
    num_fields = draw(st.integers(min_value=depth, max_value=40))
    num_keys = draw(st.integers(min_value=0, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return generate_workload(num_fields, depth=depth, num_keys=num_keys, seed=seed)


class TestDefaultEngineMatchesLinearScan:
    @identity_settings
    @given(workloads(), st.booleans())
    def test_minimum_cover_artefacts_are_identical(self, workload, require_existence):
        fast = minimum_cover_from_keys(
            workload.keys, workload.rule, require_existence=require_existence
        )
        reference = minimum_cover_from_keys(
            workload.keys,
            workload.rule,
            engine=LinearScanImplicationEngine(workload.keys),
            require_existence=require_existence,
        )
        assert fast.cover == reference.cover
        assert fast.generated == reference.generated
        assert fast.candidate_keys == reference.candidate_keys
        assert fast.representative == reference.representative
        assert fast.implication_queries == reference.implication_queries

    @identity_settings
    @given(workloads(), st.data())
    def test_propagation_verdicts_are_identical(self, workload, data):
        fields = workload.fields
        drawn = data.draw(
            st.lists(
                st.tuples(
                    st.sets(st.sampled_from(fields), max_size=3),
                    st.sampled_from(fields),
                ),
                max_size=6,
            )
        )
        fds = [workload.sample_fd(level) for level in range(workload.depth)]
        fds += [FunctionalDependency(lhs, {rhs}) for lhs, rhs in drawn]
        check_existence = data.draw(st.booleans())
        fast = propagated_fds(
            workload.keys, workload.rule, fds, check_existence=check_existence
        )
        reference = propagated_fds(
            workload.keys,
            workload.rule,
            fds,
            check_existence=check_existence,
            engine=LinearScanImplicationEngine(workload.keys),
        )
        assert fast == reference
