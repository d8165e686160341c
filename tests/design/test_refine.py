"""The end-to-end design-from-scratch workflow (Examples 1.2 / 3.1)."""

import pytest

from repro.design.refine import design_from_scratch, restrict_rule, validate_existing_design
from repro.experiments.paper_example import initial_chapter_design
from repro.relational.fd import implies_fd
from repro.relational.normalization import is_3nf, is_bcnf, project_fds
from repro.transform.evaluate import evaluate_transformation
from repro.transform.validate import validate_rule


class TestDesignFromScratch:
    def test_bcnf_fragments_are_bcnf(self, paper_keys, universal):
        result = design_from_scratch(paper_keys, universal, normal_form="BCNF")
        for relation in result.schema:
            assert is_bcnf(relation.attributes, result.fd_by_relation[relation.name])

    def test_3nf_fragments_are_3nf(self, paper_keys, universal):
        result = design_from_scratch(paper_keys, universal, normal_form="3NF")
        for relation in result.schema:
            local = project_fds(relation.attributes, result.cover.cover)
            assert is_3nf(relation.attributes, local)

    def test_all_fields_survive_the_decomposition(self, paper_keys, universal):
        result = design_from_scratch(paper_keys, universal)
        covered = set()
        for relation in result.schema:
            covered |= set(relation.attributes)
        assert covered == set(universal.fields)

    def test_expected_fragments_present(self, paper_keys, universal):
        result = design_from_scratch(paper_keys, universal)
        attribute_sets = [set(r.attributes) for r in result.schema]
        assert {"bookIsbn", "bookTitle", "authContact"} in attribute_sets
        assert {"bookIsbn", "chapNum", "chapName"} in attribute_sets
        assert {"bookIsbn", "chapNum", "secNum", "secName"} in attribute_sets

    def test_fragment_rules_are_wellformed_and_evaluable(self, paper_keys, universal, figure1):
        result = design_from_scratch(paper_keys, universal)
        for rule in result.transformation:
            assert validate_rule(rule).ok
        instances = evaluate_transformation(result.transformation, figure1, schema=result.schema)
        assert set(instances) == set(result.schema.relation_names)
        # The book fragment has exactly the two books.
        for relation in result.schema:
            if set(relation.attributes) == {"bookIsbn", "bookTitle", "authContact"}:
                assert len(instances[relation.name]) == 2

    def test_declared_keys_hold_on_shredded_data(self, paper_keys, universal, figure1):
        result = design_from_scratch(paper_keys, universal)
        instances = evaluate_transformation(result.transformation, figure1, schema=result.schema)
        for relation in result.schema:
            if set(relation.attributes) == {"bookIsbn", "chapNum", "chapName"}:
                assert instances[relation.name].satisfies_key()

    def test_custom_relation_names(self, paper_keys, universal):
        names = {frozenset({"bookIsbn", "bookTitle", "authContact"}): "book"}
        result = design_from_scratch(paper_keys, universal, relation_names=names)
        assert "book" in result.schema.relation_names

    def test_unknown_normal_form_rejected(self, paper_keys, universal):
        with pytest.raises(ValueError):
            design_from_scratch(paper_keys, universal, normal_form="6NF")

    def test_describe(self, paper_keys, universal):
        text = design_from_scratch(paper_keys, universal).describe()
        assert "Minimum cover" in text and "BCNF" in text


class TestRestrictRule:
    def test_restriction_keeps_only_needed_variables(self, universal):
        restricted = restrict_rule(universal.rule, ["bookIsbn", "bookTitle"], "book")
        assert set(restricted.field_names) == {"bookIsbn", "bookTitle"}
        assert validate_rule(restricted).ok
        assert not restricted.has_variable("zs")

    def test_restriction_is_evaluable(self, universal, figure1):
        from repro.transform.evaluate import evaluate_rule

        restricted = restrict_rule(universal.rule, ["bookIsbn", "chapNum", "chapName"], "chapter")
        instance = evaluate_rule(restricted, figure1)
        assert len(instance) == 3


class TestDesignByPropagation:
    """Fragment FDs come from the keys, never from ``project_fds``."""

    #: ``design_from_scratch(..., "BCNF")`` on ``generate_workload(20,
    #: depth=5, seed=0)`` when every fragment's FDs were projected from the
    #: universal cover (2^20 subsets per projection).
    FRAGMENTS_20 = [
        ("U_1", ["a0_0", "a0_1", "e0_0", "k0"], [["k0"]]),
        ("U_2", ["a1_0", "e1_0", "e1_1", "k0", "k1"], [["k0", "k1"]]),
        ("U_3", ["a2_0", "a2_1", "e2_0", "k0", "k1", "k2"], [["k0", "k1", "k2"]]),
        ("U_4", ["a3_0", "e3_0", "k0", "k1", "k2", "k3"], [["k0", "k1", "k2", "k3"]]),
        ("U_5", ["a4_0", "a4_1", "k0", "k1", "k2", "k3", "k4"], [["k0", "k1", "k2", "k3", "k4"]]),
        (
            "U_6",
            ["e3_1", "e4_0", "k0", "k1", "k2", "k3", "k4"],
            [["e3_1", "e4_0", "k0", "k1", "k2", "k3", "k4"]],
        ),
    ]

    @pytest.fixture()
    def no_projection(self, monkeypatch):
        from repro.relational import normalization

        def refuse(*_args):
            raise AssertionError("design projected an FD set")

        monkeypatch.setattr(normalization, "project_fds", refuse)

    def test_twenty_fields_match_the_projection_route(self, no_projection):
        from repro.experiments.generators import generate_workload

        workload = generate_workload(20, depth=5, seed=0)
        result = design_from_scratch(workload.keys, workload.rule)
        assert [
            (r.name, list(r.attributes), [sorted(key) for key in r.keys]) for r in result.schema
        ] == self.FRAGMENTS_20

    def test_thirty_levels_of_keys(self, no_projection):
        from repro.experiments.generators import generate_workload

        # 30 key fields: enumerating their subsets, let alone the 60
        # fields', would not finish.
        workload = generate_workload(60, depth=30, num_keys=40, seed=1)
        result = design_from_scratch(workload.keys, workload.rule)
        covered = set()
        for relation in result.schema:
            assert is_bcnf(relation.attributes, result.fd_by_relation[relation.name])
            covered |= set(relation.attributes)
        assert covered == set(workload.rule.field_names)
        assert len(result.schema) > 20

    @pytest.mark.parametrize("normal_form", ["BCNF", "3NF"])
    def test_relation_fds_equal_the_projection(self, paper_keys, universal, normal_form):
        result = design_from_scratch(paper_keys, universal, normal_form=normal_form)
        for relation in result.schema:
            assert [fd.text for fd in result.fd_by_relation[relation.name]] == [
                fd.text for fd in project_fds(relation.attributes, result.cover.cover)
            ]

    def test_fragment_covers_are_counted_apart(self, paper_keys, universal):
        from repro import obs

        with obs.collect() as registry:
            result = design_from_scratch(paper_keys, universal)
        snapshot = registry.snapshot()
        assert snapshot.counter("cover.fds") == len(result.cover.cover)
        assert snapshot.counter("design.fragment_covers") >= len(result.schema)
        assert snapshot.counter("design.projections") == 0


class TestValidateExistingDesign:
    def test_reexport_behaves_like_core(self, paper_keys):
        transformation, schema = initial_chapter_design()
        assert not validate_existing_design(paper_keys, transformation, schema).consistent
