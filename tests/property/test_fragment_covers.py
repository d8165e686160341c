"""Design by propagation agrees with design by projection, and the table
tree's code tuples agree with the encoded paths.

``design_from_scratch`` takes every candidate fragment's FDs from the keys:
Algorithm ``minimumCover`` on the universal rule restricted to the
fragment, presented by ``canonical_cover`` in the order ``project_fds``
would give.  Three properties pin that route:

* for every fragment ``bcnf_decompose`` visits (and every 3NF relation),
  the propagated cover is equivalent to ``project_fds`` of the universal
  cover, closure for closure, and ``canonical_cover`` of it is the
  projection's list, FD for FD and in order.  Rules come from
  ``generate_workload`` and from a hand-shaped generator with ``//``
  mappings, attribute fields, fields sharing a node and keys with an empty
  attribute set such as ``(., (//a, {}))``;
* ``canonical_cover`` of any cover equivalent to a projection is that
  projection, on random FD sets;
* ``TableTree.codes_between`` / ``codes_from_root`` equal the engine's
  encoding of ``path_between`` / ``path_from_root`` for every
  ancestor/descendant pair, on unvalidated trees whose mappings start and
  end with ``//`` (so joins collapse ``//``-``//`` junctions).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.design.refine import restrict_rule
from repro.experiments.generators import generate_workload
from repro.keys import parse_key
from repro.keys.implication import ImplicationEngine
from repro.relational.fd import FunctionalDependency, equivalent, minimum_cover
from repro.relational.normalization import (
    bcnf_decompose,
    canonical_cover,
    project_fds,
    synthesize_3nf,
)
from repro.transform.rule import TableRule
from repro.transform.table_tree import TableTree
from repro.xmlmodel.paths import PathExpression, PathStep, StepKind

# Hypothesis suites run in their own CI job (see .github/workflows/ci.yml).
pytestmark = pytest.mark.slow

fragment_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Extra keys for generated problems: root-level uniqueness makes fields
#: constants (∅-LHS FDs), the others add alternative keys.
EXTRA_KEYS = [
    "(., (//lvl0, {}))",
    "(//lvl0, (lvl1, {}))",
    "(//lvl0, (@a0_0, {}))",
    "(//lvl0/lvl1, (lvl2, {}))",
]


@st.composite
def generated_problems(draw):
    depth = draw(st.integers(min_value=1, max_value=5))
    workload = generate_workload(
        draw(st.integers(min_value=depth, max_value=12)),
        depth=depth,
        num_keys=draw(st.integers(min_value=0, max_value=10)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    extra = draw(st.lists(st.sampled_from(EXTRA_KEYS), unique=True, max_size=3))
    return list(workload.keys) + [parse_key(text) for text in extra], workload.rule


#: Only mappings from the root variable may use ``//``.
ROOT_PATHS = ["//a", "a", "//a/b", "a//b", "//b", "a/b//c", "//c"]
CHILD_PATHS = ["a", "b", "c", "a/b"]
KEY_CONTEXTS = [".", "//a", "//b", "//a/b", "a"]
KEY_TARGETS = ["a", "b", "c", "//a", "//b", "a/b", "t", "//c"]


@st.composite
def shaped_problems(draw):
    rule = TableRule("U")
    elements = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        parent = draw(st.sampled_from([rule.root_variable] + elements))
        paths = ROOT_PATHS if parent == rule.root_variable else CHILD_PATHS
        variable = f"v{index}"
        rule.add_mapping(variable, parent, draw(st.sampled_from(paths)))
        elements.append(variable)
    for variable in elements:
        for attribute in sorted(draw(st.sets(st.sampled_from(["x", "y"])))):
            holder = f"{variable}_{attribute}"
            rule.add_mapping(holder, variable, f"@{attribute}")
            rule.add_field(holder, holder)
            if draw(st.booleans()):
                # A second field from the same node (as after merging rules).
                rule.add_field(f"{holder}_copy", holder)
        if draw(st.booleans()) or not rule.fields:
            holder = f"{variable}_t"
            rule.add_mapping(holder, variable, "t")
            rule.add_field(holder, holder)
    keys = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        attributes = sorted(draw(st.sets(st.sampled_from(["@x", "@y"]), max_size=2)))
        keys.append(
            parse_key(
                f"({draw(st.sampled_from(KEY_CONTEXTS))}, "
                f"({draw(st.sampled_from(KEY_TARGETS))}, {{{', '.join(attributes)}}}))"
            )
        )
    if draw(st.booleans()):
        keys.append(parse_key("(., (//a, {}))"))
    return keys, rule


def _check_fragments(keys, rule):
    """Every fragment's propagated cover against the projection."""
    cover = minimum_cover_from_keys(keys, rule).cover
    visited = []

    def projected(fragment):
        visited.append(fragment)
        return project_fds(fragment, cover)

    bcnf_decompose(rule.relation, rule.field_names, cover, projected)
    visited += [
        frozenset(relation.attributes)
        for relation in synthesize_3nf(rule.relation, rule.field_names, cover)
    ]
    for fragment in dict.fromkeys(visited):
        projection = project_fds(fragment, cover)
        propagated = minimum_cover_from_keys(
            keys, restrict_rule(rule, fragment, "F")
        ).cover
        assert equivalent(propagated, projection), sorted(fragment)
        assert [fd.text for fd in canonical_cover(fragment, propagated)] == [
            fd.text for fd in projection
        ], sorted(fragment)


class TestPropagationMatchesProjection:
    @fragment_settings
    @given(problem=generated_problems())
    def test_generated_rules(self, problem):
        _check_fragments(*problem)

    @fragment_settings
    @given(problem=shaped_problems())
    def test_hand_shaped_rules(self, problem):
        _check_fragments(*problem)


ATTRIBUTES = ["a", "b", "c", "d", "e", "f", "g", "h"]


@st.composite
def fd_sets(draw):
    def attribute_sets(min_size, max_size):
        return st.sets(st.sampled_from(ATTRIBUTES[:-1]), min_size=min_size, max_size=max_size)

    return [
        FunctionalDependency(draw(attribute_sets(0, 3)), draw(attribute_sets(1, 2)))
        for _ in range(draw(st.integers(min_value=0, max_value=9)))
    ]


class TestCanonicalCover:
    @fragment_settings
    @given(
        fds=fd_sets(),
        target=st.sets(st.sampled_from(ATTRIBUTES), max_size=8),
        reorder=st.randoms(use_true_random=False),
    )
    def test_any_equivalent_cover_gives_the_projection(self, fds, target, reorder):
        projection = project_fds(target, fds)
        # Another presentation of the same FDs: singleton RHS, shuffled.
        other = minimum_cover(projection)
        reorder.shuffle(other)
        assert [fd.text for fd in canonical_cover(target, other)] == [
            fd.text for fd in projection
        ]


STEPS = [PathStep.label("a"), PathStep.label("b"), PathStep(StepKind.DESCENDANT)]


@st.composite
def trees(draw):
    rule = TableRule("T")
    variables = [rule.root_variable]
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        parent = draw(st.sampled_from(variables))
        steps = draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=3))
        if draw(st.booleans()):
            steps = [STEPS[2]] + steps
        if draw(st.booleans()):
            steps.append(STEPS[2])
        variable = f"v{index}"
        rule.add_mapping(variable, parent, PathExpression(steps))
        variables.append(variable)
    leaf = draw(st.sampled_from(variables))
    rule.add_mapping("leaf", leaf, "@x")
    rule.add_field("f", "leaf")
    return TableTree(rule, validate=False)


class TestCodePaths:
    @fragment_settings
    @given(tree=trees(), order=st.randoms(use_true_random=False))
    def test_codes_equal_encoded_paths(self, tree, order):
        engine = ImplicationEngine([parse_key("(//a, (b//, {@x}))")])
        pairs = [
            (ancestor, variable)
            for variable in tree.variables
            for ancestor in tree.ancestors(variable, include_self=True)
        ]
        order.shuffle(pairs)
        for ancestor, variable in pairs:
            assert tree.codes_between(ancestor, variable, engine.code_table) == engine._encode(
                tree.path_between(ancestor, variable)
            )
            assert tree.codes_from_root(ancestor, engine.code_table) == engine._encode(
                tree.path_from_root(ancestor)
            )
        # A second engine has its own code table; the memo follows it.
        other = ImplicationEngine([parse_key("(., (//b/a, {}))")])
        for ancestor, variable in pairs:
            assert tree.codes_between(ancestor, variable, other.code_table) == other._encode(
                tree.path_between(ancestor, variable)
            )
