"""The end-to-end design-refinement workflow (Examples 1.1, 1.2 and 3.1).

Two scenarios from the paper's introduction are packaged here:

* **Design from scratch** (:func:`design_from_scratch`): start from a rough
  universal relation defined by a table rule, compute the minimum cover of
  the FDs propagated from the XML keys, and decompose into BCNF (or
  synthesise 3NF).  Each produced relation also gets a table rule derived
  from the universal rule, so documents can immediately be shredded into the
  refined design.
* **Validate an existing design** — re-exported from
  :mod:`repro.core.checking` for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro import obs
from repro.core.checking import ConsistencyReport, check_schema_consistency
from repro.core.minimum_cover import MinimumCoverResult, minimum_cover_from_keys
from repro.keys.key import XMLKey
from repro.relational.fd import FunctionalDependency
from repro.relational.normalization import bcnf_decompose, candidate_keys, project_fds, synthesize_3nf
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.transform.rule import TableRule, Transformation
from repro.transform.table_tree import TableTree
from repro.transform.universal import UniversalRelation


@dataclass
class DesignResult:
    """Outcome of the design-from-scratch workflow."""

    universal: TableRule
    cover: MinimumCoverResult
    schema: DatabaseSchema
    transformation: Transformation
    normal_form: str
    fd_by_relation: Dict[str, List[FunctionalDependency]] = field(default_factory=dict)

    def describe(self) -> str:
        lines = ["Minimum cover of propagated FDs:"]
        lines.extend(f"  {fd}" for fd in self.cover.cover)
        lines.append(f"{self.normal_form} decomposition:")
        for relation in self.schema:
            lines.append(f"  {relation.describe()}")
        return "\n".join(lines)


def design_from_scratch(
    keys: Iterable[XMLKey],
    universal: "TableRule | UniversalRelation",
    normal_form: str = "BCNF",
    relation_names: Optional[Dict[frozenset, str]] = None,
) -> DesignResult:
    """Refine a universal relation into a normalised relational design.

    ``normal_form`` is ``"BCNF"`` (default) or ``"3NF"``.  ``relation_names``
    optionally maps frozensets of attributes to human-friendly relation
    names (otherwise fragments are numbered).
    """
    rule = universal.rule if isinstance(universal, UniversalRelation) else universal
    key_list = list(keys)
    cover = minimum_cover_from_keys(key_list, rule)

    if normal_form.upper() == "BCNF":
        fragments = bcnf_decompose(rule.relation, rule.field_names, cover.cover)
    elif normal_form.upper() in {"3NF", "THIRD"}:
        fragments = synthesize_3nf(rule.relation, rule.field_names, cover.cover)
    else:
        raise ValueError(f"unsupported normal form {normal_form!r} (use 'BCNF' or '3NF')")

    schema = DatabaseSchema(name=f"{rule.relation}_{normal_form.lower()}")
    transformation = Transformation(name=f"{rule.relation}_to_{normal_form.lower()}")
    fd_by_relation: Dict[str, List[FunctionalDependency]] = {}
    for fragment in fragments:
        name = (relation_names or {}).get(frozenset(fragment.attributes), fragment.name)
        renamed = RelationSchema(name, fragment.attributes, keys=fragment.keys)
        schema.add(renamed)
        transformation.add_rule(restrict_rule(rule, renamed.attributes, name))
        fd_by_relation[name] = project_fds(renamed.attributes, cover.cover)

    obs.metrics().inc("design.fragments", len(fragments))
    return DesignResult(
        universal=rule,
        cover=cover,
        schema=schema,
        transformation=transformation,
        normal_form=normal_form.upper(),
        fd_by_relation=fd_by_relation,
    )


def restrict_rule(rule: TableRule, fields: Iterable[str], name: str) -> TableRule:
    """Restrict a table rule to a subset of its fields.

    Keeps exactly the variable mappings on the paths from the root variable
    to the variables defining the retained fields, producing a well-formed
    rule for the fragment relation.
    """
    wanted = [field_name for field_name in rule.field_names if field_name in set(fields)]
    table_tree = TableTree(rule)
    needed_variables: List[str] = []
    for field_name in wanted:
        for variable in table_tree.ancestors(rule.field_variable(field_name), include_self=True):
            if variable not in needed_variables:
                needed_variables.append(variable)
    restricted = TableRule(name, root_variable=rule.root_variable)
    for variable in needed_variables:
        if variable == rule.root_variable:
            continue
        mapping = rule.mapping(variable)
        restricted.add_mapping(mapping.variable, mapping.source, mapping.path)
    for field_name in wanted:
        restricted.add_field(field_name, rule.field_variable(field_name))
    return restricted


def validate_existing_design(
    keys: Iterable[XMLKey],
    transformation: Transformation,
    schema: DatabaseSchema,
) -> ConsistencyReport:
    """Convenience re-export of the predefined-design consistency check."""
    return check_schema_consistency(keys, transformation, schema)
