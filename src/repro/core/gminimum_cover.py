"""``GminimumCover`` — propagation checking via a minimum cover (Section 6).

The paper's second experiment compares Algorithm ``propagation`` against an
alternative built from Algorithm ``minimumCover``: to check whether an FD
``X → A`` is propagated,

1. compute a minimum cover ``F_m`` of *all* propagated FDs on the relation;
2. test ``F_m ⊢ X → A`` with relational FD implication (attribute closure);
3. test that every field of ``X`` is guaranteed non-null whenever ``A`` is
   (the same existence condition as in Algorithm ``propagation``).

The answer is *yes* iff both tests succeed.  The point of the comparison is
that ``propagation`` is much cheaper when only one FD needs checking, while
``GminimumCover`` amortises when many FDs over the same relation are tested
— which is what Figures 7(b) and 7(c) quantify.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.minimum_cover import MinimumCoverResult, minimum_cover_from_keys
from repro.core.propagation import PropagationResult, attribute_field_pairs
from repro.keys.implication import ImplicationEngine
from repro.keys.key import XMLKey
from repro.relational.fd import FDLike, coerce_fd
from repro.transform.rule import TableRule
from repro.transform.table_tree import TableTree
from repro.transform.universal import UniversalRelation


def gminimum_cover_check(
    keys: Iterable[XMLKey],
    universal: "TableRule | UniversalRelation",
    fd: FDLike,
    engine: Optional[ImplicationEngine] = None,
    cover: Optional[MinimumCoverResult] = None,
    check_existence: bool = True,
    table_tree: Optional[TableTree] = None,
) -> PropagationResult:
    """Check propagation of ``fd`` by way of the minimum cover.

    A pre-computed ``cover`` may be passed to amortise repeated checks over
    the same relation (the natural usage of this algorithm); the relational
    implication test itself is amortised too — the cover is interned into a
    bitset pool once and each check is a single counter closure.  A
    pre-built ``engine`` must be over the same key set as ``keys`` (it
    answers both implication and existence queries), and a prebuilt
    ``table_tree`` over the same rule amortises tree construction across a
    batch of checks.
    """
    if isinstance(universal, UniversalRelation):
        rule = universal.rule
        if table_tree is None:
            # Reuse the validated, memo-warm tree the relation carries.
            table_tree = universal.table_tree
    else:
        rule = universal
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
            "the supplied TableTree is built over a different rule than the "
            "universal relation's; paths and ancestor chains would disagree"
        )
    if cover is None:
        cover = minimum_cover_from_keys(
            key_list, rule, engine=engine, table_tree=table_tree
        )

    trace: List[str] = [f"minimum cover has {len(cover.cover)} FDs"]
    identified = fd.is_trivial or cover.implies(fd)
    trace.append(
        f"relational implication of {fd} from the cover: {'yes' if identified else 'no'}"
    )

    # Existence condition: every LHS field must be defined by an attribute,
    # required to exist, of an ancestor-or-self of each RHS field's node.
    missing = set()
    existence_ok = True
    for attribute in sorted(fd.rhs):
        still_missing = set(fd.lhs) - {attribute}
        y_variable = rule.field_variable(attribute)
        for ancestor in table_tree.ancestors(y_variable, include_self=True):
            if not still_missing:
                break
            pairs = attribute_field_pairs(table_tree, ancestor, still_missing)
            if not pairs:
                continue
            if engine.exist_codes(
                table_tree.codes_from_root(ancestor, engine.code_table),
                engine.attribute_mask([attribute for attribute, _ in pairs]),
            ):
                still_missing -= {field_name for _, field_name in pairs}
        if still_missing:
            existence_ok = False
            missing |= still_missing
    if not existence_ok:
        trace.append(f"fields {sorted(missing)} are not guaranteed non-null")

    holds = identified and (existence_ok or not check_existence)
    return PropagationResult(
        fd=fd,
        relation=rule.relation,
        holds=holds,
        identified=identified,
        existence_ok=existence_ok,
        missing_existence=frozenset(missing),
        trace=trace,
    )
