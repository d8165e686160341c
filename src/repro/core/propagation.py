"""Algorithm ``propagation`` — checking XML key propagation (Section 4, Fig. 5).

Given a set ``Σ`` of XML keys, a transformation rule ``Rule(R)`` and an FD
``φ: X → A`` over ``R``, decide whether ``Σ ⊨_σ φ``: every document
satisfying ``Σ`` is shredded by the rule into an instance satisfying ``φ``
(under the null-aware FD semantics of Section 3).

The algorithm walks the ancestor chain of the variable ``x`` defining ``A``
in the table tree, top-down from the root variable:

* it maintains ``context`` — the deepest ancestor proven to be *transitively
  keyed* using only attributes that define fields of ``X`` (the root is
  trivially keyed);
* at each ancestor ``target`` it asks the key-implication oracle whether
  ``target`` is keyed relative to ``context`` by the ``X`` attributes found
  on ``target`` (if so, ``context`` moves down — the *target-to-context*
  rule makes this greedy step complete);
* ``φ`` is identified iff ``x`` is unique under the final ``context``
  (``Σ ⊨ (path(root, context), (path(context, x), {}))``) — or trivially if
  ``A ∈ X``;
* independently, every field of ``X`` must be defined by an attribute of an
  ancestor-or-self of ``x`` that is *required to exist* (the ``exist`` test),
  which enforces condition (1) of the null semantics: a non-null ``A``
  forces non-null ``X``.

The published pseudo-code sets its ``keyFound`` flag from a uniqueness test
against ``target`` even on iterations where ``target`` did not become the
keyed ``context``; read literally that would accept FDs that do not hold, so
this implementation performs the uniqueness test against the *keyed*
``context`` (equivalent on every example and trace in the paper, and sound
in general).  See DESIGN.md.

Complexity: ``O(|Σ|² · n)`` oracle work where ``n`` is the size of the table
tree, matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.keys.implication import ImplicationEngine
from repro.keys.key import XMLKey
from repro.relational.fd import FDLike, FunctionalDependency, coerce_fd
from repro.transform.rule import TableRule
from repro.transform.table_tree import TableTree
from repro.xmlmodel.paths import PathExpression


@dataclass
class PropagationResult:
    """Outcome of a propagation check, with an explanatory trace."""

    fd: FunctionalDependency
    relation: str
    holds: bool
    identified: bool
    existence_ok: bool
    missing_existence: FrozenSet[str] = frozenset()
    trace: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds

    def explain(self) -> str:
        status = "PROPAGATED" if self.holds else "NOT propagated"
        lines = [f"{self.fd} on {self.relation}: {status}"]
        lines.extend(f"  {line}" for line in self.trace)
        return "\n".join(lines)


def attribute_field_pairs(
    table_tree: TableTree, variable: str, fields: Iterable[str]
) -> List[Tuple[str, str]]:
    """All ``(attribute, field)`` pairs of ``variable`` among the given fields.

    A pair ``(a, A)`` is listed when a field rule ``A: value(y)`` exists with
    ``y ← variable/@a``.  Several fields may share the same attribute (e.g.
    after merging table rules into a universal relation), hence the list.
    """
    wanted = set(fields)
    pairs: List[Tuple[str, str]] = []
    for child in table_tree.children(variable):
        path = table_tree.path_from_parent(child)
        if not path.is_attribute_step:
            continue
        attribute = path.steps[0].name or ""
        for field_name in table_tree.rule.fields_of_variable(child):
            if field_name in wanted:
                pairs.append((attribute, field_name))
    return pairs


def attribute_fields_of(table_tree: TableTree, variable: str, fields: Iterable[str]) -> Dict[str, str]:
    """``β`` of line 13: attributes of ``variable`` defining the given fields.

    Returns ``{attribute name: field name}`` for every field rule
    ``A: value(y)`` with ``y ← variable/@a`` and ``A`` among ``fields``.
    When several fields share an attribute one representative is kept; use
    :func:`attribute_field_pairs` when all of them are needed.
    """
    return dict(attribute_field_pairs(table_tree, variable, fields))


def check_propagation(
    keys: Iterable[XMLKey],
    rule: TableRule,
    fd: FDLike,
    engine: Optional[ImplicationEngine] = None,
    check_existence: bool = True,
    table_tree: Optional[TableTree] = None,
) -> PropagationResult:
    """Decide whether the FD is propagated from ``keys`` via ``Rule(R)``.

    ``check_existence=False`` restricts the check to the identification
    component (condition (2) of the FD semantics); this is the semantics
    under which minimum covers are closed under Armstrong's axioms and is
    used by :mod:`repro.core.naive` when cross-validating
    :mod:`repro.core.minimum_cover`.

    A prebuilt ``table_tree`` over the same ``rule`` may be supplied to
    amortise tree construction (and its memoised traversals) across a batch
    of FDs — :func:`propagated_fds` does exactly that.
    """
    fd = coerce_fd(fd)
    key_list = list(keys)
    if engine is None:
        engine = ImplicationEngine(key_list)
    elif not engine.covers_keys(key_list):
        raise ValueError(
            "the supplied ImplicationEngine is built over a different key set "
            "than `keys`; implication and existence answers would disagree"
        )
    if table_tree is None:
        table_tree = TableTree(rule)
    elif table_tree.rule is not rule:
        raise ValueError(
            "the supplied TableTree is built over a different rule than `rule`; "
            "paths and ancestor chains would disagree"
        )

    unknown = (fd.lhs | fd.rhs) - set(rule.field_names)
    if unknown:
        raise ValueError(
            f"FD {fd} mentions attributes {sorted(unknown)} that are not fields of "
            f"Rule({rule.relation})"
        )

    trace: List[str] = []
    identified_all = True
    existence_all = True
    missing: Set[str] = set()
    for attribute in sorted(fd.rhs):
        single = _check_single_rhs(
            engine, table_tree, fd.lhs, attribute, trace, check_existence
        )
        identified_all = identified_all and single[0]
        existence_all = existence_all and single[1]
        missing |= single[2]

    holds = identified_all and (existence_all or not check_existence)
    return PropagationResult(
        fd=fd,
        relation=rule.relation,
        holds=holds,
        identified=identified_all,
        existence_ok=existence_all,
        missing_existence=frozenset(missing),
        trace=trace,
    )


def _check_single_rhs(
    engine: ImplicationEngine,
    table_tree: TableTree,
    lhs: FrozenSet[str],
    rhs_attribute: str,
    trace: List[str],
    check_existence: bool,
) -> Tuple[bool, bool, Set[str]]:
    """Check ``lhs → rhs_attribute``; returns (identified, existence_ok, missing)."""
    rule = table_tree.rule
    x_variable = rule.field_variable(rhs_attribute)
    ancestors = table_tree.ancestors(x_variable, include_self=True)
    root = table_tree.root
    table = engine.code_table

    # ------------------------------------------------------------------
    # Identification: walk the ancestor chain, moving `context` down
    # whenever the next ancestor is keyed (relative to `context`) by
    # attributes defining fields of `lhs`.
    # ------------------------------------------------------------------
    trivial = rhs_attribute in lhs
    context = root
    trace.append(
        f"checking {sorted(lhs) or '{}'} -> {rhs_attribute} "
        f"(value({x_variable})) on Rule({rule.relation})"
    )
    for target in ancestors:
        if target == root or target == x_variable:
            continue
        beta = attribute_fields_of(table_tree, target, lhs)
        if engine.implies_codes(
            table_tree.codes_from_root(context, table),
            table_tree.codes_between(context, target, table),
            engine.attribute_mask(beta.keys()),
        ):
            relative_path = table_tree.path_between(context, target)
            trace.append(
                f"  {target} is keyed relative to {context} by "
                f"({relative_path.text}, {{{', '.join('@' + a for a in sorted(beta))}}})"
            )
            context = target
        else:
            trace.append(
                f"  {target} is NOT keyed relative to {context} by attributes of {sorted(lhs)}"
            )

    if trivial:
        identified = True
        trace.append(f"  {rhs_attribute} is trivially determined ({rhs_attribute} in LHS)")
    else:
        identified = engine.implies_codes(
            table_tree.codes_from_root(context, table),
            table_tree.codes_between(context, x_variable, table),
            0,
        )
        unique_path = table_tree.path_between(context, x_variable)
        trace.append(
            f"  value({x_variable}) is {'unique' if identified else 'NOT unique'} under "
            f"keyed context {context} (path {unique_path.text})"
        )

    # ------------------------------------------------------------------
    # Existence: every LHS field must come from an attribute, required to
    # exist, of an ancestor-or-self of x.
    # ------------------------------------------------------------------
    missing: Set[str] = set(lhs) - {rhs_attribute}
    for target in ancestors:
        if not missing:
            break
        pairs = attribute_field_pairs(table_tree, target, missing)
        if not pairs:
            continue
        if engine.exist_codes(
            table_tree.codes_from_root(target, table),
            engine.attribute_mask([attribute for attribute, _ in pairs]),
        ):
            for attribute, field_name in pairs:
                missing.discard(field_name)
                trace.append(
                    f"  field {field_name} (attribute @{attribute} of {target}) is required "
                    "to exist"
                )
    existence_ok = not missing
    if missing and check_existence:
        trace.append(
            f"  fields {sorted(missing)} are not guaranteed non-null when {rhs_attribute} is"
        )
    return identified, existence_ok, missing


def propagated_fds(
    keys: Iterable[XMLKey],
    rule: TableRule,
    fds: Iterable[FDLike],
    check_existence: bool = True,
    engine: Optional[ImplicationEngine] = None,
    table_tree: Optional[TableTree] = None,
) -> List[PropagationResult]:
    """Check a batch of FDs, sharing one implication engine and table tree.

    The engine's memo tables (implication, ``exist`` and hoisted variant
    candidates) and the tree's traversal memos are warmed by the first FD
    and answer for the whole batch.
    """
    key_list = list(keys)
    if engine is None:
        engine = ImplicationEngine(key_list)
    if table_tree is None:
        table_tree = TableTree(rule)
    return [
        check_propagation(
            key_list,
            rule,
            fd,
            engine=engine,
            check_existence=check_existence,
            table_tree=table_tree,
        )
        for fd in fds
    ]
