"""The four end-to-end workloads, timed from outside the system.

Each workload is one closed loop: a single client issues the next
operation only after the previous reply, so at most one system process
is busy at a time (``check-doc --jobs 2`` and ``serve --workers 2`` are
the only places with two).  Set-up happens first and is timed on its
own; then operations repeat for the requested number of seconds.

Every reply is checked.  A document command's first output is compared
with the DOM reference plane; every later output of the same command
must be byte-identical to that verified one.
"""

from __future__ import annotations

import math
import random
import re
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from checks import (
    DocumentReference,
    Outcome,
    check_copy_output,
    check_design,
    key_conflict_groups,
    key_sets,
    parse_cover_lines,
    spot_check_cover,
    witness_groups,
)
from inputs import (
    GATE,
    UPLOAD_RULE,
    UPLOAD_SCHEMA,
    UPLOAD_TENANT,
    UploadSource,
    gate_inputs,
    mondial_inputs,
    schema_inputs,
)
from speed import SpeedProbe
from system import Completed, Context, Repl, ReplyTimeout, Server, command_line

#: Set-ups per run (edit-stream) or warm-up passes (each runs every
#: command once); ``setup_s`` is their median.
SETUPS = 2
#: Delta/upload pairs between two speed probes in edit-stream.
PAIRS_PER_PROBE = 10


@dataclass
class Op:
    """One user-facing command of a workload and how to check its reply."""

    name: str
    args: List[str]
    #: Deep check of the first reply: the reason it is wrong, or None.
    check: Callable[[Completed], Optional[str]]
    before: Optional[Callable[[], None]] = None


#: End-to-end metrics (every workload, tracing off) and their units.
UNITS = {"setup_s": "s", "round_s": "s", "op_geomean_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Result:
    outcome: Outcome
    metrics: Dict[str, float]
    units: Dict[str, str] = field(default_factory=lambda: dict(UNITS))
    #: Human-readable per-command lines: (name, value, unit, samples, wall value).
    report: List[tuple] = field(default_factory=list)
    provenance: Dict = field(default_factory=dict)


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class CommandLoop:
    """Run a fixed list of one-shot commands round after round."""

    def __init__(self, ops: List[Op], ctx: Context) -> None:
        self.ops = ops
        self.ctx = ctx
        self.outcome = Outcome()
        self.verified: Dict[str, Completed] = {}
        self.speed = SpeedProbe(ctx.launcher, ctx.workdir)

    def _execute(self, op: Op) -> float:
        """Run and check one command; returns its wall time."""
        if op.before is not None:
            op.before()
        result = self.ctx.launcher.run(op.args, self.ctx.workdir)
        first = self.verified.get(op.name)
        if result.code is None or result.traceback:
            reason = f"{op.name}: exit {result.code}, stderr {result.stderr[-300:]!r}"
        elif first is None:
            reason = op.check(result)
            self.verified[op.name] = result
        elif (result.code, result.stdout) != (first.code, first.stdout):
            reason = f"{op.name}: output differs from the verified first run"
        else:
            reason = None
        self.outcome.record(reason is None, reason or "")
        return result.seconds

    def run(self) -> Result:
        setups = []
        for _ in range(SETUPS):
            before = self.speed.before()
            wall = sum(self._execute(op) for op in self.ops)
            setups.append(wall * self.speed.factor(before))
        raw: Dict[str, List[float]] = {op.name: [] for op in self.ops}
        scaled: Dict[str, List[float]] = {op.name: [] for op in self.ops}
        rounds: List[float] = []
        deadline = time.perf_counter() + self.ctx.seconds
        while not rounds or time.perf_counter() < deadline:
            total = 0.0
            for op in self.ops:
                before = self.speed.before()
                wall = self._execute(op)
                reference = wall * self.speed.factor(before)
                raw[op.name].append(wall)
                scaled[op.name].append(reference)
                total += reference
            rounds.append(total)
        medians = {name: statistics.median(values) for name, values in scaled.items()}
        return Result(
            outcome=self.outcome,
            metrics={
                "setup_s": statistics.median(setups),
                "round_s": statistics.median(rounds),
                "op_geomean_ms": _geomean(list(medians.values())) * 1000.0,
                "peak_rss_mb": self.ctx.launcher.peak_rss_mb,
            },
            report=[
                (f"{name}_s", medians[name], "s", len(scaled[name]), statistics.median(raw[name]))
                for name in medians
            ],
            provenance={
                "commands": [command_line(op.args) for op in self.ops],
                "wall_s": {name: _rounded(values) for name, values in raw.items()},
                "probe_s": _rounded(self.speed.history),
            },
        )


def _rounded(values: List[float]) -> List[float]:
    return [round(value, 6) for value in values]


def _expect_report(reference: DocumentReference) -> Callable[[Completed], Optional[str]]:
    def check(result: Completed) -> Optional[str]:
        if result.code != reference.check_code:
            return f"check-doc exit {result.code}, expected {reference.check_code}"
        if result.stdout != reference.check_stdout:
            return "check-doc report differs from the DOM reference"
        return None

    return check


def _expect_copy(reference: DocumentReference) -> Callable[[Completed], Optional[str]]:
    def check(result: Completed) -> Optional[str]:
        if result.code != 0:
            return f"shred exit {result.code}"
        return check_copy_output(result.stdout, reference.instances)

    return check


def _expect_load(reference: DocumentReference, rule, keys, db: str) -> Callable[[Completed], Optional[str]]:
    from repro.core import minimum_cover_from_keys

    cover = [
        (frozenset(fd.lhs), frozenset(fd.rhs))
        for fd in minimum_cover_from_keys(keys, rule).cover
    ]
    instance = reference.instances[rule.relation]
    groups = set()
    for key in key_sets(rule.field_names, cover):
        groups |= key_conflict_groups(instance.rows, rule.field_names, key)
    rows = len(instance.rows)

    def check(result: Completed) -> Optional[str]:
        if f"{rule.relation}: {rows} rows\n" not in result.stdout:
            return f"load did not report {rows} rows"
        if f"loaded 1 document(s) into {db} (log mode)" not in result.stdout:
            return "load did not confirm the document"
        if result.code != (1 if groups else 0):
            return f"load --verify exit {result.code} with {len(groups)} conflicting key groups"
        if witness_groups(result.stdout) != groups:
            return "load --verify witnesses differ from the reference key conflicts"
        return None

    return check


def gate_doc(ctx: Context) -> Result:
    """check-doc, DOM shred, streaming shred and a verified log-mode load."""
    from repro.keys import parse_keys
    from repro.transform import parse_transformation

    inputs = gate_inputs(ctx.seed, ctx.workdir, ctx.smoke)
    reference = DocumentReference(
        inputs.text, inputs.keys.read_text(), inputs.transform.read_text()
    )
    if ctx.corrupt:
        reference.corrupt()
    rule = next(iter(parse_transformation(inputs.transform.read_text())))
    keys = parse_keys(inputs.keys.read_text())
    db = ctx.workdir / "load.db"
    ops = [
        Op("check_doc", ["check-doc", "--keys", "gate.keys", "--xml", "gate.xml"],
           _expect_report(reference)),
        Op("shred", ["shred", "--transform", "gate.dsl", "--xml", "gate.xml", "--sql", "--copy"],
           _expect_copy(reference)),
        Op("shred_stream", ["shred", "--stream", "--transform", "gate.dsl", "--xml", "gate.xml",
                            "--sql", "--copy"], _expect_copy(reference)),
        Op("load", ["load", "--transform", "gate.dsl", "--keys", "gate.keys", "--xml", "gate.xml",
                    "--db", "load.db", "--mode", "log", "--verify"],
           _expect_load(reference, rule, keys, "load.db"),
           before=lambda: db.unlink(missing_ok=True)),
    ]
    result = CommandLoop(ops, ctx).run()
    result.provenance["sizes"] = dict(
        inputs.sizes,
        rows=sum(len(i.rows) for i in reference.instances.values()),
        violations=reference.violation_count,
    )
    return result


def mondial_doc(ctx: Context) -> Result:
    """check-doc three ways: serial, pruned by the DTD, sharded on 2 jobs."""
    inputs = mondial_inputs(ctx.seed, ctx.workdir, ctx.smoke)
    reference = DocumentReference(inputs.text, inputs.keys.read_text())
    if ctx.corrupt:
        reference.corrupt()
    expect = _expect_report(reference)
    base = ["check-doc", "--keys", "mondial.keys", "--xml", "mondial.xml"]
    ops = [
        Op("check_doc", base, expect),
        Op("check_doc_prune", base + ["--dtd", "mondial.dtd", "--prune"], expect),
        Op("check_doc_jobs2", base + ["--jobs", "2"], expect),
    ]
    result = CommandLoop(ops, ctx).run()
    result.provenance["sizes"] = dict(inputs.sizes, violations=reference.violation_count)
    return result


def schema_design(ctx: Context) -> Result:
    """``cover`` at Fig. 7a scale and BCNF ``design`` on a small relation."""
    from repro.keys import parse_keys
    from repro.transform import parse_transformation

    seed = ctx.seed
    cover_in, design_in = schema_inputs(seed, ctx.workdir, ctx.smoke)
    cover_keys = parse_keys(cover_in.keys.read_text())
    cover_rule = parse_transformation(cover_in.transform.read_text()).rule("U")
    design_keys = parse_keys(design_in.keys.read_text())
    design_rule = parse_transformation(design_in.transform.read_text()).rule("U")
    design_fields = list(design_rule.field_names)
    if ctx.corrupt:
        design_fields.append("corrupted_reference")

    def check_cover(result: Completed) -> Optional[str]:
        if result.code != 0:
            return f"cover exit {result.code}"
        cover = parse_cover_lines(result.stdout.splitlines())
        if not cover:
            return "cover printed no FDs"
        return spot_check_cover(cover, cover_keys, cover_rule, seed, samples=5)

    def check_design_output(result: Completed) -> Optional[str]:
        if result.code != 0:
            return f"design exit {result.code}"
        return check_design(result.stdout, design_fields, design_keys, design_rule, seed)

    ops = [
        Op("cover", ["cover", "--keys", "cover.keys", "--transform", "cover.dsl",
                     "--relation", "U"], check_cover),
        Op("design", ["design", "--keys", "design.keys", "--transform", "design.dsl",
                      "--relation", "U", "--normal-form", "BCNF", "--sql"], check_design_output),
    ]
    loop = CommandLoop(ops, ctx)
    result = loop.run()
    cover_fds = len(parse_cover_lines(loop.verified["cover"].stdout.splitlines()))
    result.provenance["sizes"] = {
        "cover": dict(cover_in.sizes, cover_fds=cover_fds),
        "design": design_in.sizes,
    }
    return result


# ----------------------------------------------------------------------
# edit-stream: deltas through apply-delta --repl, uploads through serve
# ----------------------------------------------------------------------
_HEADER_RE = re.compile(
    r"^(?P<kind>\w+) (?P<pos>\d+): (?P<n>\d+) subtree\(s\), "
    r"\+(?P<a>\d+)/-(?P<d>\d+) violation\(s\) \(total (?P<total>\d+)\)$"
)


@dataclass
class EditOp:
    kind: str
    pos: int
    fragment: Optional[str]
    #: Expected subtree count and row changes after the delta.
    subtrees: int
    inserted: int
    deleted: int

    @property
    def line(self) -> str:
        """The ``apply-delta --repl`` input line."""
        if self.fragment is None:
            return f"{self.kind} {self.pos}"
        return f"{self.kind} {self.pos} {self.fragment}"

    @property
    def rows_line(self) -> Optional[str]:
        if not (self.inserted or self.deleted):
            return None
        return f"  U: +{self.inserted}/-{self.deleted} row(s)"


class EditModel:
    """The client's own model of the edited document, and the delta source.

    Every slot holds the index of the original top-level subtree it is a
    copy of.  Copies shred to identical rows, so with row deduplication a
    source's rows are in the database exactly while one copy is present:
    this predicts each delta's row changes.  Deltas either damage the
    document (a replace with another subtree's copy, an insert of a copy
    — both duplicate spine keys — or a delete) or undo the latest
    outstanding damage; at most ``depth`` damages are outstanding, so
    violations keep appearing and disappearing around a steady state.
    """

    def __init__(self, header: str, subtrees: List[str], footer: str, rows_per_subtree: int,
                 seed: int, depth: int = 4):
        self.header, self.subtrees, self.footer = header, subtrees, footer
        self.rows = rows_per_subtree
        self.slots = list(range(len(subtrees)))
        self.present = Counter(self.slots)
        self.rng = random.Random(seed * 104729 + 3)
        self.depth = depth
        self.undo: List[Tuple[str, int, Optional[int]]] = []

    def next(self) -> EditOp:
        """Draw the next delta and advance the model past it."""
        rng, n = self.rng, len(self.slots)
        if self.undo and (len(self.undo) >= self.depth or rng.random() < 0.5):
            return self._apply(*self.undo.pop())
        roll = rng.random()
        source = rng.randrange(len(self.subtrees))
        if roll < 0.5:
            pos = rng.randrange(n)
            self.undo.append(("replace", pos, self.slots[pos]))
            return self._apply("replace", pos, source)
        if roll < 0.75:
            pos = rng.randrange(n + 1)
            self.undo.append(("delete", pos, None))
            return self._apply("insert", pos, source)
        pos = rng.randrange(n)
        self.undo.append(("insert", pos, self.slots[pos]))
        return self._apply("delete", pos, None)

    def _apply(self, kind: str, pos: int, source: Optional[int]) -> EditOp:
        inserted = deleted = 0
        if kind == "insert":
            self.slots.insert(pos, source)
            inserted = self._add(source)
        elif kind == "delete":
            deleted = self._remove(self.slots.pop(pos))
        else:
            old, self.slots[pos] = self.slots[pos], source
            if old != source:
                deleted = self._remove(old)
                inserted = self._add(source)
        fragment = None if source is None else self.subtrees[source]
        return EditOp(kind, pos, fragment, len(self.slots), inserted, deleted)

    def _add(self, source: int) -> int:
        self.present[source] += 1
        return self.rows if self.present[source] == 1 else 0

    def _remove(self, source: int) -> int:
        self.present[source] -= 1
        return self.rows if self.present[source] == 0 else 0

    def text(self) -> str:
        return self.header + "".join(self.subtrees[s] for s in self.slots) + self.footer


def _apply_delta(repl: Repl, model: EditModel) -> Optional[str]:
    """Send one delta and read its whole reply; returns a failure reason."""
    op = model.next()
    repl.send(op.line)
    header = repl.readline()
    match = _HEADER_RE.match(header)
    if match is None:
        raise RuntimeError(f"unexpected delta reply {header[:200]!r}")
    for _ in range(int(match.group("a")) + int(match.group("d"))):
        repl.readline()
    reason = None
    if (match.group("kind"), int(match.group("pos")), int(match.group("n"))) != (
        op.kind, op.pos, op.subtrees
    ):
        reason = f"delta reply {header!r} does not match {op.kind} {op.pos} -> {op.subtrees}"
    if op.rows_line is not None:
        got = repl.readline()
        if got != op.rows_line:
            reason = f"delta row change {got!r}, expected {op.rows_line!r}"
    return reason


def _upload(server: Server, source: UploadSource) -> Optional[str]:
    upload = source.next()
    reply = server.request({"op": "upload", "tenant": UPLOAD_TENANT, "text": upload.text})
    if upload.injected is None:
        if reply.get("ok") is not True or reply.get("rows") != {"item": upload.items}:
            return f"clean upload answered {str(reply)[:200]}"
        return None
    rejected = [
        {k: v for k, v in row.items() if k in upload.injected}
        for row in reply.get("rejected") or []
    ]
    if reply.get("ok") is not False or rejected != [upload.injected]:
        return f"duplicate upload answered {str(reply)[:200]}"
    return None


def edit_stream(ctx: Context) -> Result:
    from repro.keys import parse_keys
    from repro.parallel import run_sharded
    from repro.transform import parse_transformation

    seed, workdir = ctx.seed, ctx.workdir
    inputs = gate_inputs(seed, workdir, ctx.smoke)
    rows_per_subtree = GATE["fanout"] ** (GATE["depth"] - 1)
    repl_args = ["apply-delta", "--xml", "gate.xml", "--transform", "gate.dsl", "--keys",
                 "gate.keys", "--db", "delta.db", "--mode", "log", "--repl"]
    serve_args = ["serve", "--db", "serve.db", "--mode", "strict", "--workers", "2",
                  "--pool-size", "1"]
    outcome = Outcome()
    speed = SpeedProbe(ctx.launcher, workdir)
    setups: List[float] = []
    repl = server = None
    codes: Dict[str, List] = {}
    raw: Dict[str, List[float]] = {"delta": [], "upload": []}
    scaled: Dict[str, List[float]] = {"delta": [], "upload": []}
    try:
        for attempt in range(SETUPS):
            for name in ("delta.db", "serve.db"):
                (workdir / name).unlink(missing_ok=True)
            before = speed.before()
            begin = time.perf_counter()
            repl = Repl(repl_args, workdir, workdir / "repl.err")
            indexed = repl.readline()
            counts = repl.readline()
            server = Server(serve_args, workdir, workdir / "serve.log")
            server.connect()
            ping = server.request({"op": "ping"})
            registered = server.request({"op": "register", "tenant": UPLOAD_TENANT,
                                         "rules": [UPLOAD_RULE], "schema": [UPLOAD_SCHEMA]})
            setups.append((time.perf_counter() - begin) * speed.factor(before))
            expected_counts = f"U: {len(inputs.subtrees) * rows_per_subtree} rows"
            outcome.record(
                indexed.endswith(f": {len(inputs.subtrees)} top-level subtree(s)")
                and counts == expected_counts
                and ping.get("ok") is True
                and registered.get("ok") is True,
                f"set-up replies {indexed!r} {counts!r} {ping} {registered}",
            )
            if attempt < SETUPS - 1:
                codes.setdefault("repl", []).append(repl.close(ctx.launcher))
                codes.setdefault("serve", []).append(server.close(ctx.launcher))
                repl = server = None

        model = EditModel(inputs.header, inputs.subtrees, inputs.footer, rows_per_subtree, seed)
        uploads = UploadSource(seed)
        deadline = time.perf_counter() + ctx.seconds
        while not raw["delta"] or time.perf_counter() < deadline:
            # One speed probe per block of pairs: a probe per 10 ms
            # operation would cost more than the operations.
            before = speed.before()
            block = {"delta": [], "upload": []}
            for _ in range(PAIRS_PER_PROBE):
                begin = time.perf_counter()
                reason = _apply_delta(repl, model)
                middle = time.perf_counter()
                outcome.record(reason is None, reason or "")
                upload_reason = _upload(server, uploads)
                end = time.perf_counter()
                outcome.record(upload_reason is None, upload_reason or "")
                block["delta"].append((middle - begin) * 1000.0)
                block["upload"].append((end - middle) * 1000.0)
            factor = speed.factor(before)
            for kind, values in block.items():
                raw[kind].extend(values)
                scaled[kind].extend(value * factor for value in values)

        # Final state: the client's model, the REPL's answers and a
        # from-scratch sharded run on the edited text must all agree.
        repl.send("text")
        text = repl.readline()
        repl.send("violations")
        listed = []
        while True:
            line = repl.readline()
            if re.match(r"^\d+ violation\(s\)$", line):
                break
            listed.append(line)
        repl.send("tables")
        tables = repl.readline()
        expected_text = model.text()
        if ctx.corrupt:
            expected_text += " "
        rule = next(iter(parse_transformation(inputs.transform.read_text())))
        scratch = run_sharded(
            expected_text, transformation=[rule],
            keys=parse_keys(inputs.keys.read_text()), jobs=1,
        )
        outcome.record(text == expected_text, "edited text differs from the client model")
        outcome.record(
            listed == [f"  - {v}" for v in scratch.violations],
            "violations differ from a from-scratch run",
        )
        outcome.record(
            tables == f"U: {len(scratch.instances['U'].rows)} rows",
            f"sqlite holds {tables!r}, a from-scratch run shreds "
            f"{len(scratch.instances['U'].rows)} rows",
        )
    except (ReplyTimeout, EOFError, RuntimeError, OSError, ValueError) as error:
        outcome.record(False, f"edit-stream aborted: {type(error).__name__}: {error}")
        for values in list(raw.values()) + list(scaled.values()):
            values[:] = values or [float("nan")]
    finally:
        if repl is not None:
            codes.setdefault("repl", []).append(repl.close(ctx.launcher))
            outcome.record("Traceback" not in repl.stderr_text(), "apply-delta printed a traceback")
        if server is not None:
            codes.setdefault("serve", []).append(server.close(ctx.launcher))
            outcome.record("Traceback" not in server.log_text(), "serve printed a traceback")
    outcome.record(all(code in (0, 1) for code in codes.get("repl", [])), f"repl exits {codes}")
    outcome.record(all(code == 130 for code in codes.get("serve", [])), f"serve exits {codes}")

    delta, upload = scaled["delta"], scaled["upload"]
    delta_p50, upload_p50 = statistics.median(delta), statistics.median(upload)
    report = [
        ("delta_p50_ms", delta_p50, "ms", len(delta), statistics.median(raw["delta"])),
        ("delta_p99_ms", _percentile(delta, 99), "ms", len(delta), _percentile(raw["delta"], 99)),
        ("upload_p50_ms", upload_p50, "ms", len(upload), statistics.median(raw["upload"])),
        ("upload_p99_ms", _percentile(upload, 99), "ms", len(upload),
         _percentile(raw["upload"], 99)),
    ]
    return Result(
        outcome=outcome,
        metrics={
            "setup_s": statistics.median(setups) if setups else float("nan"),
            "round_s": statistics.median(d + u for d, u in zip(delta, upload)) / 1000.0,
            "op_geomean_ms": _geomean([delta_p50, upload_p50]),
            "peak_rss_mb": ctx.launcher.peak_rss_mb,
        },
        report=report,
        provenance={
            "commands": [command_line(repl_args), command_line(serve_args + ["--port", "<free>"])],
            "sizes": dict(inputs.sizes, deltas=len(delta), uploads=len(upload),
                          upload_bytes=len(UploadSource(seed).next().text)),
            "wall_ms": {kind: _rounded(values) for kind, values in raw.items()},
            "probe_s": _rounded(speed.history),
        },
    )


def _percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile; meaningful only with >= 100/(100-pct)*10
    samples (p99 needs 1,000 for ten samples beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


WORKLOADS = {
    "gate-doc": gate_doc,
    "mondial-doc": mondial_doc,
    "edit-stream": edit_stream,
    "schema-design": schema_design,
}
