"""Reference answers and the comparisons every timed operation goes through.

References come from planes other than the one being timed: the DOM
reference plane for document commands, a from-scratch sharded run for the
edited document, ``check_propagation`` spot checks for ``cover``, and an
independent attribute-closure/chase implementation for ``design``.  All
of it runs outside the timed regions.
"""

from __future__ import annotations

import ast
import random
import re
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.keys import parse_keys, violations
from repro.relational.instance import NULL
from repro.transform import evaluate_transformation, parse_transformation
from repro.xmlmodel import parse_document

FD = Tuple[FrozenSet[str], FrozenSet[str]]


class Outcome:
    """Attempted/failed accounting for one run, with the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


# ----------------------------------------------------------------------
# Document commands: the DOM reference plane
# ----------------------------------------------------------------------
class DocumentReference:
    """What ``check-doc`` and ``shred`` must print for one document."""

    def __init__(self, text: str, key_text: str, transform_text: Optional[str] = None):
        tree = parse_document(text)
        self.keys = parse_keys(key_text)
        found = [violation for key in self.keys for violation in violations(tree, key)]
        self.violation_count = len(found)
        self.check_stdout, self.check_code = _violation_report(self.keys, found)
        self.instances = (
            evaluate_transformation(parse_transformation(transform_text), tree)
            if transform_text is not None
            else None
        )

    def corrupt(self) -> None:
        """Deliberately wrong expectations (the benchmark's own test)."""
        self.check_stdout += "corrupted reference\n"
        if self.instances:
            for instance in self.instances.values():
                instance.rows.pop()


def _violation_report(keys, found) -> Tuple[str, int]:
    """The key report exactly as the CLI formats it (a stdout contract)."""
    by_key: Dict[object, List[object]] = {}
    for violation in found:
        by_key.setdefault(violation.key, []).append(violation)
    lines: List[str] = []
    for key in keys:
        witnesses = by_key.get(key, [])
        if witnesses:
            lines.append(f"key violated: {key.text}")
            lines.extend(f"  - {violation}" for violation in witnesses)
    if not lines:
        return f"document satisfies all {len(keys)} keys\n", 0
    return "\n".join(lines) + "\n", 1


def _copy_literal(value) -> str:
    if value is None or value is NULL:
        return "\\N"
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _value(row, attribute):
    return row.get_value(attribute) if hasattr(row, "get_value") else row.get(attribute)


_COPY_RE = re.compile(r'^COPY "(?P<table>[^"]+)" \((?P<columns>[^)]*)\) FROM STDIN;$')


def check_copy_output(stdout: str, instances) -> Optional[str]:
    """``shred --sql --copy`` output against reference instances; returns
    the first disagreement, or ``None``."""
    lines = stdout.split("\n")
    seen = set()
    index = 0
    while index < len(lines):
        match = _COPY_RE.match(lines[index])
        index += 1
        if not match:
            continue
        table = match.group("table")
        instance = instances.get(table)
        if instance is None:
            return f"unexpected COPY block for {table}"
        columns = [c.strip().strip('"') for c in match.group("columns").split(",")]
        if columns != list(instance.schema.attributes):
            return f"{table}: columns {columns}"
        end = lines.index("\\.", index)
        payload = lines[index:end]
        index = end + 1
        expected = [
            "\t".join(_copy_literal(_value(row, a)) for a in columns) for row in instance.rows
        ]
        if payload != expected:
            return f"{table}: {len(payload)} rows printed, {len(expected)} expected or values differ"
        seen.add(table)
    missing = {name for name, inst in instances.items() if inst.rows} - seen
    return f"no COPY block for {sorted(missing)}" if missing else None


# ----------------------------------------------------------------------
# Functional dependencies: an independent closure, chase and BCNF test
# ----------------------------------------------------------------------
def parse_fd(text: str) -> FD:
    lhs, rhs = text.split("->")
    lhs = lhs.strip()
    left = frozenset() if lhs in ("", "∅") else frozenset(a.strip() for a in lhs.split(","))
    return left, frozenset(a.strip() for a in rhs.split(","))


def closure(attributes: Iterable[str], fds: Sequence[FD]) -> FrozenSet[str]:
    result = set(attributes)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if lhs <= result and not rhs <= result:
                result |= rhs
                changed = True
    return frozenset(result)


def canonical_minimal_key(attributes: Iterable[str], fds: Sequence[FD]) -> Optional[FrozenSet[str]]:
    """Greedy key reduction in sorted attribute order."""
    everything = frozenset(attributes)
    key = set(everything)
    for attribute in sorted(everything):
        if everything <= closure(key - {attribute}, fds):
            key.discard(attribute)
    if not key or key == everything:
        return None
    return frozenset(key)


def key_sets(attributes: Iterable[str], fds: Sequence[FD]) -> List[FrozenSet[str]]:
    """The keys a propagated cover implies for a table: the canonical
    minimal key, then every determinant that reaches all attributes."""
    everything = frozenset(attributes)
    found = []
    canonical = canonical_minimal_key(everything, fds)
    if canonical is not None:
        found.append(canonical)
    for lhs, _ in fds:
        if lhs and lhs not in found and everything <= closure(lhs, fds):
            found.append(lhs)
    return found


def key_conflict_groups(rows, attributes: Sequence[str], key: FrozenSet[str]) -> Set[Tuple]:
    """Determinant values shared by rows that differ elsewhere."""
    lhs = sorted(key)
    groups: Dict[Tuple, Set[Tuple]] = {}
    for row in rows:
        determinant = tuple(_value(row, a) for a in lhs)
        if any(v is None or v is NULL for v in determinant):
            continue
        groups.setdefault(determinant, set()).add(tuple(_value(row, a) for a in sorted(attributes)))
    return {(tuple(lhs), values) for values, members in groups.items() if len(members) > 1}


_WITNESS_RE = re.compile(r"agree on (\[[^\]]*\])=(\[[^\]]*\]) but")


def witness_groups(stdout: str) -> Set[Tuple]:
    found = set()
    for match in _WITNESS_RE.finditer(stdout):
        found.add(
            (tuple(ast.literal_eval(match.group(1))), tuple(ast.literal_eval(match.group(2))))
        )
    return found


def is_bcnf(fragment: FrozenSet[str], fds: Sequence[FD]) -> bool:
    """No subset X of the fragment determines more of it without all of it."""
    members = sorted(fragment)
    for size in range(1, len(members)):
        for subset in combinations(members, size):
            reach = closure(subset, fds) & fragment
            if reach != frozenset(subset) and reach != fragment:
                return False
    return True


def lossless(fragments: Sequence[FrozenSet[str]], fds: Sequence[FD]) -> bool:
    """The chase: some tableau row becomes all-distinguished."""
    attributes = sorted(frozenset().union(*fragments))
    universe = set(attributes)
    rows = [
        {a: ("a", a) if a in fragment else ("b", index, a) for a in attributes}
        for index, fragment in enumerate(fragments)
    ]
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if not lhs <= universe:
                continue
            groups: Dict[Tuple, List[dict]] = {}
            for row in rows:
                groups.setdefault(tuple(row[a] for a in sorted(lhs)), []).append(row)
            for members in groups.values():
                if len(members) < 2:
                    continue
                for attribute in rhs & universe:
                    symbols = {member[attribute] for member in members}
                    if len(symbols) > 1:
                        target = min(symbols, key=lambda s: (s[0] != "a", s))
                        for member in members:
                            member[attribute] = target
                        changed = True
    return any(all(row[a][0] == "a" for a in attributes) for row in rows)


def parse_cover_lines(lines: Iterable[str]) -> List[FD]:
    return [parse_fd(line) for line in lines if "->" in line]


_FRAGMENT_RE = re.compile(r"^\s+(?P<name>\w+)\((?P<attrs>[^)]*)\)$")


def parse_design(stdout: str) -> Tuple[List[FD], List[FrozenSet[str]], int]:
    """``design --sql`` output -> (cover, fragments, CREATE TABLE count)."""
    cover_part, _, rest = stdout.partition("BCNF decomposition:")
    cover = parse_cover_lines(cover_part.splitlines()[1:])
    fragments = []
    for line in rest.split("\n\n", 1)[0].splitlines():
        match = _FRAGMENT_RE.match(line)
        if match:
            fragments.append(
                frozenset(a.strip().rstrip("*") for a in match.group("attrs").split(","))
            )
    return cover, fragments, stdout.count("CREATE TABLE")


def spot_check_cover(cover: Sequence[FD], keys, rule, seed: int, samples: int) -> Optional[str]:
    """Seeded ``check_propagation`` spot checks: a sampled cover FD must
    be propagated, and a weakened one (one determinant attribute dropped)
    must be propagated exactly when the cover implies it."""
    from repro.core import check_propagation
    from repro.relational.fd import FunctionalDependency

    rng = random.Random(seed * 31 + 5)
    candidates = [fd for fd in cover if fd[0]]
    for lhs, rhs in rng.sample(candidates, min(samples, len(candidates))):
        if not check_propagation(keys, rule, FunctionalDependency(lhs, rhs)).holds:
            return f"cover FD {sorted(lhs)} -> {sorted(rhs)} is not propagated"
        weaker = frozenset(sorted(lhs)[1:])
        target = next(iter(sorted(rhs)))
        implied = target in closure(weaker, cover)
        holds = check_propagation(keys, rule, FunctionalDependency(weaker, {target})).holds
        if implied != holds:
            return f"cover disagrees with propagation on {sorted(weaker)} -> {target}"
    return None


def check_design(stdout: str, fields: Iterable[str], keys, rule, seed: int) -> Optional[str]:
    cover, fragments, tables = parse_design(stdout)
    if not fragments:
        return "no fragments printed"
    if tables != len(fragments):
        return f"{tables} CREATE TABLE statements for {len(fragments)} fragments"
    if frozenset().union(*fragments) != frozenset(fields):
        return "the fragments do not preserve the attributes"
    for fragment in fragments:
        if not is_bcnf(fragment, cover):
            return f"fragment {sorted(fragment)} is not in BCNF"
    if not lossless(fragments, cover):
        return "the decomposition is not lossless (chase)"
    return spot_check_cover(cover, keys, rule, seed, samples=3)
