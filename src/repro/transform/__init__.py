"""The transformation language of the paper (Definition 2.2) and its engine.

* ``rule`` — table rules (field rules + variable mappings) and transformations;
* ``validate`` — well-formedness checking and the decidability frontier;
* ``table_tree`` — the tree representation used by the algorithms (Fig. 3/4);
* ``evaluate`` — shredding documents into relation instances;
* ``dsl`` — a small textual syntax for transformations;
* ``universal`` — universal relations for the design-from-scratch workflow.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rule": (
            "DEFAULT_ROOT_VARIABLE",
            "FieldRule",
            "TableRule",
            "Transformation",
            "VariableMapping",
        ),
        "validate": (
            "InvalidTableRule",
            "UnsupportedFeature",
            "ValidationReport",
            "assert_valid",
            "reject_unsupported",
            "validate_rule",
            "validate_transformation",
        ),
        "table_tree": ("TableTree",),
        "evaluate": ("evaluate_rule", "evaluate_transformation"),
        "stream": (
            "RuleShardResult",
            "RuleStreamer",
            "StreamShredder",
            "iter_rule_rows",
            "merge_rule_shards",
            "stream_evaluate_rule",
            "stream_evaluate_transformation",
        ),
        "dsl": (
            "DSLSyntaxError",
            "parse_rule",
            "parse_transformation",
            "render_transformation",
        ),
        "universal": ("UniversalRelation", "universal_from_transformation"),
    },
)

__all__ = [
    "DEFAULT_ROOT_VARIABLE",
    "FieldRule",
    "TableRule",
    "Transformation",
    "VariableMapping",
    "InvalidTableRule",
    "UnsupportedFeature",
    "ValidationReport",
    "assert_valid",
    "reject_unsupported",
    "validate_rule",
    "validate_transformation",
    "TableTree",
    "evaluate_rule",
    "evaluate_transformation",
    "RuleStreamer",
    "StreamShredder",
    "iter_rule_rows",
    "RuleShardResult",
    "merge_rule_shards",
    "stream_evaluate_rule",
    "stream_evaluate_transformation",
    "DSLSyntaxError",
    "parse_rule",
    "parse_transformation",
    "render_transformation",
    "UniversalRelation",
    "universal_from_transformation",
]
