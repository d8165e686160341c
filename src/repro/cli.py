"""Command-line interface.

The four workflows of the library are exposed as sub-commands so that a
consumer can run the analysis on files without writing Python::

    python -m repro check     --keys keys.txt --transform rules.dsl \
                              --relation chapter --fd "inBook, number -> name"
    python -m repro cover     --keys keys.txt --transform rules.dsl --relation U
    python -m repro design    --keys keys.txt --transform rules.dsl --relation U --sql
    python -m repro shred     --transform rules.dsl --xml data.xml [--keys keys.txt] \
                              [--sql] [--stream] [--jobs N] [--batch-size N | --copy] \
                              [--dtd schema.dtd]
    python -m repro check-doc --keys keys.txt --xml data.xml [--jobs N] \
                              [--dtd schema.dtd [--prune]]
    python -m repro load      --transform rules.dsl --xml data.xml [--xml more.xml ...] \
                              --db out.db [--backend sqlite|postgres] \
                              [--keys keys.txt] [--mode strict|log] [--dtd schema.dtd] \
                              [--jobs N] [--verify] [--provenance COLUMN]
    python -m repro query     --db out.db [--backend NAME] \
                              [--sql "SELECT ..." | --table R [--limit N]]
    python -m repro serve     --db out.db [--backend NAME] [--host H] [--port P] \
                              [--mode strict|log] [--workers N] [--pool-size N]
    python -m repro apply-delta --xml data.xml [--transform rules.dsl] [--keys keys.txt] \
                              [--op "replace 0 new.xml" ...] [--db out.db --mode strict|log] \
                              [--repl] [--write-back]
    python -m repro bench     [--paper]

``shred``, ``check-doc`` and ``load`` are calls to the pipeline driver
:func:`repro.parallel.run_pipeline`: the document is tokenized once and
shredded / checked / validated in a single pass, without a DOM
(``shred --stream`` is accepted and means the same).  The DOM plane
(``parse_document`` with ``keys.violations``, ``DTD.validate`` and
``evaluate_transformation``) is a library API and the reference the
differential tests compare these commands against; no flag selects it.
``check-doc`` keeps only the open-context hash indexes, so its memory does
not grow with the document; ``shred`` materializes the relation instances
before printing them, so its memory is proportional to the *output* (the
library's ``iter_rule_rows`` → ``iter_insert_statements`` pipeline loads
documents into SQL in constant memory).  No command takes a tokenizer
setting: :mod:`repro.xmlmodel` routes each document to expat or to the
pure tokenizer from what it can observe, with the same events either way.

``--dtd schema.dtd`` on its own *validates while shredding/checking*: the
streaming DTD validator is one more consumer of the same pass, with the
DOM validator's violations.  ``check-doc --dtd --prune`` compiles the DTD
into a :class:`~repro.xmlmodel.static.StaticPlan` instead, whose skip set
lets the tokenizer fast-forward subtrees no key path can reach — identical
violations, also on documents that do not conform to the DTD (every
skipped tag is verified).  ``load --dtd`` validates every document up
front and loads nothing when one violates the schema.

``--jobs N`` (else the ``REPRO_JOBS`` environment variable, for
``check-doc``, ``load`` and ``shred``) runs the driver's sharded
arm: the document is cut at top-level anchor boundaries and the shards
run on ``N`` worker processes, with byte-identical output (``--jobs 0``
uses one worker per CPU this process may run on; the serial arm runs when
the document cannot be sharded).  Validation is single-pass, so ``--dtd``
without ``--prune`` rejects more than one job.

``apply-delta`` runs the incremental constraint plane: the document is
indexed once at top-level subtree granularity, then each ``--op`` (or each
``--repl`` line) inserts, deletes or replaces one subtree in O(delta),
reporting the violations that appeared or disappeared.  With ``--db`` the
edits also flow to a SQLite database as delta rows (insert/delete batches
under one savepoint per delta); ``--write-back`` saves the edited document
over ``--xml`` once every operation has applied.

``load`` runs the storage plane end to end: shred the document(s) (serial
streaming, or sharded with ``--jobs``), compile the propagated FDs of
``--keys`` into constraint-bearing DDL, and bulk-load a database —
``--mode strict`` makes the engine itself reject violating rows (the
command reports exactly which), ``--mode log`` stages everything and
``--verify`` then finds violations *in the database* with generated
``GROUP BY … HAVING`` SQL.  ``query`` inspects the result.  ``--backend``
(or the ``REPRO_BACKEND`` environment variable, or a ``postgres://`` URL
as ``--db``) picks the engine: SQLite is the default, ``postgres`` uses a
real server (COPY bulk loading, savepoint semantics identical to SQLite).

``serve`` starts the service plane: a long-lived NDJSON-over-TCP
ingestion front-end with per-tenant schema registration, concurrent
uploads over a backend pool, and in-database verification
(:mod:`repro.service`).

A command pays only for its plane: this module imports nothing of the
library but :mod:`repro.obs` at module level, and each handler imports
the modules it runs.  ``cover``, ``design`` and ``check`` therefore never
load the tokenizer, the streaming and sharded planes, storage or the
service (``tests/test_layering.py`` pins this).

File formats: keys files contain one key per line in the paper's notation
(``K2 = (//book, (chapter, {@number}))``, ``#`` comments allowed);
transformation files use the DSL of :mod:`repro.transform.dsl`; XML files are
plain XML.  All commands print to stdout and return a *uniform* exit code
(0 = success / property holds, 1 = property fails / violations found,
2 = usage error), enforced by ``tests/test_cli.py::TestExitCodes``.  Two
POSIX conventions sit on top: Ctrl-C exits 130 (128+SIGINT) and a stdout
reader hanging up (``repro query … | head``) exits 141 (128+SIGPIPE) —
both without a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import obs


log = obs.get_logger("cli")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_keys(path: Optional[str]):
    if not path:
        return []
    from repro.keys import parse_keys

    return parse_keys(_read(path))


def _load_transformation(path: str):
    from repro.transform import parse_transformation

    return parse_transformation(_read(path))


# ----------------------------------------------------------------------
# Sub-commands
# ----------------------------------------------------------------------
def cmd_check(args: argparse.Namespace) -> int:
    from repro.core import check_propagation, check_schema_consistency
    from repro.relational.schema import DatabaseSchema

    keys = _load_keys(args.keys)
    transformation = _load_transformation(args.transform)
    rule = transformation.rule(args.relation)
    if args.fd:
        result = check_propagation(keys, rule, args.fd)
        print(result.explain())
        return 0 if result.holds else 1
    # No FD given: check the declared key(s) passed via --key.
    if not args.key:
        log.error("error: provide either --fd or at least one --key")
        return 2
    schema = DatabaseSchema([rule.schema(keys=[k.split(",") for k in args.key])])
    report = check_schema_consistency(keys, transformation, schema)
    print(report.describe())
    return 0 if report.consistent else 1


def cmd_cover(args: argparse.Namespace) -> int:
    from repro.core import minimum_cover_from_keys

    keys = _load_keys(args.keys)
    transformation = _load_transformation(args.transform)
    rule = transformation.rule(args.relation)
    result = minimum_cover_from_keys(keys, rule, require_existence=args.require_existence)
    if not result.cover:
        print("(no functional dependencies are propagated)")
        return 0
    for fd in result.cover:
        print(fd)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    from repro.design import design_from_scratch
    from repro.relational import sql as sql_module

    keys = _load_keys(args.keys)
    transformation = _load_transformation(args.transform)
    rule = transformation.rule(args.relation)
    result = design_from_scratch(keys, rule, normal_form=args.normal_form)
    print(result.describe())
    if args.sql:
        print()
        print(sql_module.create_schema(result.schema))
    return 0


def _print_violation_report(keys, found) -> int:
    """Group violations by key and print them; return the exit code."""
    by_key = {}
    for violation in found:
        by_key.setdefault(violation.key, []).append(violation)
    exit_code = 0
    for key in keys:
        witnesses = by_key.get(key, [])
        if witnesses:
            exit_code = 1
            print(f"key violated: {key.text}")
            for violation in witnesses:
                print(f"  - {violation}")
    if exit_code == 0:
        print(f"document satisfies all {len(keys)} keys")
    return exit_code


def _print_dtd_report(found) -> int:
    """Print a DTD validation report; return the exit code."""
    if found:
        print(f"document violates its DTD ({len(found)} violation(s)):")
        for violation in found:
            print(f"  - {violation}")
        return 1
    print("document is valid against its DTD")
    return 0


def _load_dtd(args: argparse.Namespace):
    """Parse ``--dtd`` when given, else ``None``."""
    if not getattr(args, "dtd", None):
        return None
    from repro.xmlmodel.dtd import parse_dtd

    return parse_dtd(_read(args.dtd))


def cmd_shred(args: argparse.Namespace) -> int:
    from repro.parallel import run_pipeline
    from repro.relational import sql as sql_module

    transformation = _load_transformation(args.transform)
    keys = _load_keys(args.keys) if args.keys else []
    # One pass over the event stream feeds the shredder, the key checker
    # and the streaming DTD validator together; no DOM is ever built.
    run = run_pipeline(
        Path(args.xml),
        rules=transformation,
        keys=keys or None,
        dtd=_load_dtd(args),
        jobs=args.jobs,
    )
    instances = run.instances or {}
    exit_code = 0
    if run.violations is not None:
        exit_code = _print_violation_report(keys, run.violations)
    if run.dtd_violations is not None:
        exit_code = max(exit_code, _print_dtd_report(run.dtd_violations))
    log.info(
        "shredded %d relation(s) from %s",
        len(instances),
        args.xml,
    )
    for name, instance in instances.items():
        print()
        if args.sql:
            print(sql_module.create_table(instance.schema))
            if args.copy:
                block = sql_module.copy_statement(instance.schema, instance.rows)
                if block:
                    print(block)
            elif args.batch_size is not None:
                for statement in sql_module.iter_insert_statements(
                    instance.schema, instance.rows, batch_size=args.batch_size
                ):
                    print(statement)
            else:
                for statement in sql_module.insert_statements(instance):
                    print(statement)
        else:
            print(instance.to_table())
    return exit_code


def cmd_check_doc(args: argparse.Namespace) -> int:
    """Validate a document against a key set (the Figure 2(a) workflow)."""
    from repro.parallel import run_pipeline

    keys = _load_keys(args.keys)
    dtd = _load_dtd(args)
    if args.prune and dtd is None:
        log.error("error: --prune needs --dtd (the skip set is compiled from it)")
        return 2
    # One pass feeds the key checker and the streaming DTD validator.
    # With --prune the DTD is not validated but compiled into a skip set
    # instead: a skipped subtree elides exactly the events a validator
    # would need, so the two are exclusive by construction.
    plan = None
    if args.prune:
        from repro.xmlmodel.static import compile_plan

        plan = compile_plan(dtd, keys=keys)
    run = run_pipeline(
        Path(args.xml),
        keys=keys,
        dtd=None if args.prune else dtd,
        jobs=args.jobs,
        plan=plan,
    )
    found = run.violations
    dtd_exit = 0
    if run.dtd_violations is not None:
        dtd_exit = _print_dtd_report(run.dtd_violations)
    log.info(
        "checked %s against %d key(s): %d violation(s)",
        args.xml,
        len(keys),
        len(found),
    )
    return max(_print_violation_report(keys, found), dtd_exit)


def cmd_load(args: argparse.Namespace) -> int:
    """Shred document(s) into a database with propagated constraints."""
    from repro.core import minimum_cover_from_keys
    from repro.storage import (
        BulkLoader,
        IntegrityViolation,
        LoadError,
        SQLVerifier,
        StorageDDL,
        compile_table_ddl,
        open_backend,
    )

    transformation = _load_transformation(args.transform)
    keys = _load_keys(args.keys) if args.keys else []
    rules = list(transformation)
    documents = list(args.xml)
    provenance = args.provenance
    if provenance is None and len(documents) > 1:
        provenance = "_document"

    dtd = _load_dtd(args)
    if dtd is not None:
        # Gate the corpus on its schema before the database is touched: one
        # streaming validation pass per document, abort on the first one
        # that does not conform (nothing is created, nothing is loaded).
        from repro.xmlmodel.dtd import stream_dtd_violations

        for path in documents:
            found = stream_dtd_violations(Path(path), dtd)
            if found:
                print(f"{path} violates its DTD; nothing was loaded:")
                for violation in found:
                    print(f"  - {violation}")
                return 1

    backend = open_backend(args.db, backend=getattr(args, "backend", None))
    # One table per rule; each table's constraints come from the minimum
    # cover of the FDs the XML keys propagate to *that* rule.  Engines
    # without a stable physical row order (PostgreSQL) also get their
    # insertion-order column so --verify reports the same witnesses.
    ordinal = backend.ordinal_column
    tables = {}
    for rule in rules:
        cover = minimum_cover_from_keys(keys, rule).cover if keys else []
        tables[rule.relation] = compile_table_ddl(
            rule.schema(),
            cover,
            mode=args.mode,
            provenance_column=provenance,
            ordinal_column=ordinal,
            # Loading into an existing database appends to its tables (the
            # corpus-over-several-invocations workflow).
            if_not_exists=True,
        )
    ddl = StorageDDL(
        mode=args.mode,
        tables=tables,
        provenance_column=provenance,
        ordinal_column=ordinal,
    )

    try:
        loader = BulkLoader(backend, ddl, batch_size=args.batch_size)
        loader.create_schema()
        try:
            report = loader.load_corpus(
                ((path, Path(path)) for path in documents),
                rules,
                jobs=args.jobs,
            )
        except LoadError as error:
            print(f"load rejected: {error}")
            for row in error.rows:
                rendered = ", ".join(
                    f"{name}={value!r}" for name, value in sorted(row.items())
                )
                print(f"  - {rendered}")
            return 1
        except IntegrityViolation as error:
            # A pre-existing table carries constraints this mode did not
            # compile (e.g. log-mode loading into a strict-mode database):
            # a usage problem, not a violation report.
            log.error(
                "error: the existing database at %s enforces constraints "
                "the current --mode does not expect (%s); use a fresh --db "
                "or the matching --mode", args.db, error,
            )
            return 2
        log.info(
            "load finished: %d document(s), %d row(s) total",
            len(report.documents),
            sum(report.rows.values()),
        )
        for table in sorted(report.rows):
            print(f"{table}: {report.rows[table]} rows")
        print(
            f"loaded {len(report.documents)} document(s) into {args.db} "
            f"({args.mode} mode)"
        )
        if args.verify:
            found = SQLVerifier(backend, ddl).check_keys()
            if found:
                for table in sorted(found):
                    print(f"table violates its keys: {table}")
                    for violation in found[table]:
                        print(f"  - [{violation.kind}] {violation.detail}")
                return 1
            print("database satisfies all propagated keys")
        return 0
    finally:
        backend.close()


def cmd_query(args: argparse.Namespace) -> int:
    """Inspect a database produced by ``load``."""
    from repro.storage import open_backend, resolve_backend_name

    name = resolve_backend_name(args.db, backend=getattr(args, "backend", None))
    if name == "sqlite" and args.db != ":memory:" and not Path(args.db).exists():
        raise FileNotFoundError(f"no database at {args.db}")
    if args.sql and args.table:
        log.error("error: provide either --sql or --table, not both")
        return 2
    if args.limit is not None and not args.table:
        log.error("error: --limit only applies to --table dumps")
        return 2
    backend = open_backend(args.db, backend=name)
    try:
        if args.sql:
            cursor = backend.execute(args.sql)
            header = [description[0] for description in cursor.description or ()]
            rows = cursor.fetchall()
        elif args.table:
            from repro.relational.sql import quote_identifier

            sql = f"SELECT * FROM {quote_identifier(args.table)}"
            if args.limit is not None:
                sql += f" LIMIT {args.limit}"
            cursor = backend.execute(sql)
            header = [description[0] for description in cursor.description or ()]
            rows = cursor.fetchall()
        else:
            for table in backend.table_names():
                print(f"{table}: {backend.row_count(table)} rows")
            return 0
        if header:
            print("\t".join(header))
        for row in rows:
            print("\t".join("NULL" if value is None else str(value) for value in row))
        return 0
    finally:
        backend.close()


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the ingestion service (NDJSON over TCP) until interrupted."""
    import asyncio

    from repro.service import IngestionService

    # Building the service resolves --backend / REPRO_BACKEND and probes
    # one pooled connection, so a bad engine fails before the banner.
    service = IngestionService(
        args.db,
        backend=getattr(args, "backend", None),
        mode=args.mode,
        pool_size=args.pool_size,
        workers=args.workers,
        jobs=args.jobs if args.jobs is not None else 1,
    )
    print(
        f"serving {args.db} on {args.host}:{args.port} "
        f"({args.mode} mode, {args.workers} worker(s))"
    )
    if args.metrics_port is not None:
        print(f"metrics on http://{args.host}:{args.metrics_port}/metrics")
    asyncio.run(
        service.serve_forever(
            host=args.host, port=args.port, metrics_port=args.metrics_port
        )
    )
    return 0


def _parse_delta_op(text: str):
    """One delta operation: ``insert POS FRAG`` / ``delete POS`` /
    ``replace POS FRAG``.

    Only the kind and position are tokenized; everything after the
    position is the fragment operand *verbatim*, so inline fragments may
    contain spaces and quotes.  An operand starting with ``<`` is inline
    document text; anything else is read as a file path.
    """
    from repro.incremental import Delta
    from repro.xmlmodel.events import read_document

    parts = text.split(None, 2)
    if not parts:
        raise ValueError("empty delta operation")
    kind = parts[0]
    if kind == "delete":
        if len(parts) != 2:
            raise ValueError(f"delete takes exactly one position: {text!r}")
        return Delta("delete", int(parts[1]))
    if kind in ("insert", "replace"):
        if len(parts) != 3:
            raise ValueError(
                f"{kind} takes a position and a fragment (or fragment file): {text!r}"
            )
        operand = parts[2].strip()
        fragment = operand if operand.startswith("<") else read_document(operand)
        return Delta(kind, int(parts[1]), fragment)
    raise ValueError(f"unknown delta operation {kind!r} (insert/delete/replace)")


def _describe_report(report) -> None:
    print(
        f"{report.delta.kind} {report.delta.position}: "
        f"{report.subtrees} subtree(s), "
        f"+{len(report.appeared)}/-{len(report.disappeared)} violation(s) "
        f"(total {report.violations})"
    )
    for violation in report.appeared:
        print(f"  + {violation}")
    for violation in report.disappeared:
        print(f"  - {violation}")
    for table in sorted(set(report.rows_inserted) | set(report.rows_deleted)):
        inserted = report.rows_inserted.get(table, 0)
        deleted = report.rows_deleted.get(table, 0)
        print(f"  {table}: +{inserted}/-{deleted} row(s)")


def cmd_apply_delta(args: argparse.Namespace) -> int:
    """Edit a document subtree-by-subtree on the incremental plane."""
    from repro.core import minimum_cover_from_keys
    from repro.incremental import DeltaStore, IncrementalEngine
    from repro.storage import (
        BulkLoader,
        IntegrityViolation,
        SQLiteBackend,
        StorageDDL,
        compile_table_ddl,
    )
    from repro.xmlmodel.events import read_document

    transformation = _load_transformation(args.transform) if args.transform else None
    keys = _load_keys(args.keys) if args.keys else []
    if transformation is None and not keys:
        log.error("error: provide --transform, --keys, or both")
        return 2
    if args.db and transformation is None:
        log.error("error: --db needs --transform (rules define the tables)")
        return 2
    if not args.repl and not args.op:
        log.error("error: provide at least one --op, or --repl")
        return 2

    engine = IncrementalEngine(transformation, keys)
    subtrees = engine.load(read_document(args.xml))
    print(f"indexed {args.xml}: {subtrees} top-level subtree(s)")

    backend = None
    try:
        if args.db:
            rules = list(transformation)
            tables = {
                rule.relation: compile_table_ddl(
                    rule.schema(),
                    minimum_cover_from_keys(keys, rule).cover if keys else [],
                    mode=args.mode,
                    if_not_exists=True,
                )
                for rule in rules
            }
            ddl = StorageDDL(mode=args.mode, tables=tables, provenance_column=None)
            backend = SQLiteBackend(args.db)
            counts = engine.attach_store(DeltaStore(BulkLoader(backend, ddl)))
            for table in sorted(counts):
                print(f"{table}: {counts[table]} rows")

        rejected = False
        if args.repl:
            rejected = _delta_repl(engine, backend)
        else:
            for op_text in args.op:
                try:
                    delta = _parse_delta_op(op_text)
                    report = engine.apply(delta)
                except IndexError as error:
                    log.error("error: %s", error)
                    return 2
                except IntegrityViolation as error:
                    print(f"delta rejected: {error}")
                    rejected = True
                    break
                _describe_report(report)
        if args.write_back and not rejected:
            Path(args.xml).write_text(engine.text(), encoding="utf-8")
            print(f"wrote {args.xml}")
        return 1 if rejected or engine.violations() else 0
    finally:
        if backend is not None:
            backend.close()


def _delta_repl(engine, backend) -> bool:
    """The watch loop: one delta (or query) per stdin line.

    Errors of any single line are printed and the loop continues — a live
    session survives typos and rejected deltas.  Returns whether the last
    delta was rejected by the database.
    """
    from repro.storage import IntegrityViolation, StorageError

    rejected = False
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        command = line.split(None, 1)[0]
        if command in ("quit", "exit"):
            break
        try:
            if command == "violations":
                found = engine.violations()
                for violation in found:
                    print(f"  - {violation}")
                print(f"{len(found)} violation(s)")
            elif command == "tables":
                if backend is not None:
                    for table in backend.table_names():
                        print(f"{table}: {backend.row_count(table)} rows")
                else:
                    for table, instance in sorted(engine.instances().items()):
                        print(f"{table}: {len(instance.rows)} rows")
            elif command == "text":
                print(engine.text())
            else:
                report = engine.apply(_parse_delta_op(line))
                rejected = False
                _describe_report(report)
        except IntegrityViolation as error:
            print(f"delta rejected: {error}")
            rejected = True
        except (ValueError, IndexError, StorageError) as error:
            print(f"error: {error}")
    return rejected


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_all

    for series in run_all(fast=not args.paper):
        print(series.to_table())
        print()
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _jobs_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = one worker per CPU)")
    return value


def _add_stats_flags(sub: argparse.ArgumentParser) -> None:
    """``--stats`` / ``--stats-json``: telemetry for one invocation,
    collected with :func:`repro.obs.collect` and printed to *stderr*
    (stdout stays machine-parseable)."""
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--stats",
        action="store_true",
        help="print pipeline metrics (counters/timings) to stderr on exit",
    )
    group.add_argument(
        "--stats-json",
        action="store_true",
        help="like --stats, as one JSON object on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Propagating XML constraints (keys) to relational designs — ICDE 2003 reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more diagnostics on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="only errors on stderr",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="check whether an FD / key is propagated")
    check.add_argument("--keys", required=True, help="file with XML keys (one per line)")
    check.add_argument("--transform", required=True, help="transformation DSL file")
    check.add_argument("--relation", required=True, help="relation (table rule) to check")
    check.add_argument("--fd", help='an FD such as "inBook, number -> name"')
    check.add_argument(
        "--key",
        action="append",
        default=[],
        help="declared relational key as a comma-separated attribute list (repeatable)",
    )
    check.set_defaults(handler=cmd_check)

    cover = subparsers.add_parser("cover", help="minimum cover of all propagated FDs")
    cover.add_argument("--keys", required=True)
    cover.add_argument("--transform", required=True)
    cover.add_argument("--relation", required=True)
    cover.add_argument(
        "--require-existence",
        action="store_true",
        help="only keep FDs that also satisfy the null/existence condition",
    )
    _add_stats_flags(cover)
    cover.set_defaults(handler=cmd_cover)

    design = subparsers.add_parser("design", help="derive a normalised relational design")
    design.add_argument("--keys", required=True)
    design.add_argument("--transform", required=True)
    design.add_argument("--relation", required=True, help="the universal relation's rule")
    design.add_argument("--normal-form", default="BCNF", choices=["BCNF", "3NF", "bcnf", "3nf"])
    design.add_argument("--sql", action="store_true", help="also print CREATE TABLE statements")
    _add_stats_flags(design)
    design.set_defaults(handler=cmd_design)

    shred = subparsers.add_parser("shred", help="shred an XML document into relations")
    shred.add_argument("--transform", required=True)
    shred.add_argument("--xml", required=True, help="XML document to shred")
    shred.add_argument("--keys", help="optional keys file to validate the document against")
    shred.add_argument("--sql", action="store_true", help="emit SQL instead of ASCII tables")
    shred.add_argument(
        "--stream",
        action="store_true",
        help="accepted and ignored: every shred is one streaming event pass, no DOM",
    )
    shred.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help=(
            "shred/check on N worker processes over document shards "
            "(0 = one worker per CPU; default: REPRO_JOBS, else serial)"
        ),
    )
    dml_shape = shred.add_mutually_exclusive_group()
    dml_shape.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --sql: emit multi-row INSERT batches of at most N tuples",
    )
    dml_shape.add_argument(
        "--copy",
        action="store_true",
        help="with --sql: emit PostgreSQL COPY blocks instead of INSERTs",
    )
    shred.add_argument(
        "--dtd",
        help=(
            "DTD file; the document is validated in the shredding pass — "
            "violations print after the key report, exit 1 (single-pass: "
            "not with more than one job)"
        ),
    )
    _add_stats_flags(shred)
    shred.set_defaults(handler=cmd_shred)

    check_doc = subparsers.add_parser(
        "check-doc", help="validate an XML document against a key set"
    )
    check_doc.add_argument("--keys", required=True, help="file with XML keys (one per line)")
    check_doc.add_argument("--xml", required=True, help="XML document to validate")
    check_doc.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help=(
            "check on N worker processes over document shards "
            "(0 = one worker per CPU; default: REPRO_JOBS, else serial)"
        ),
    )
    check_doc.add_argument(
        "--dtd",
        help=(
            "DTD file; validates the document in the same streaming pass as "
            "the key check (single-pass: not with more than one job)"
        ),
    )
    check_doc.add_argument(
        "--prune",
        action="store_true",
        help=(
            "with --dtd: skip validation and instead compile a static plan "
            "whose skip set fast-forwards subtrees no key path can reach — "
            "identical violations, even on documents that violate the DTD"
        ),
    )
    _add_stats_flags(check_doc)
    check_doc.set_defaults(handler=cmd_check_doc)

    load = subparsers.add_parser(
        "load", help="shred document(s) into a database with propagated constraints"
    )
    load.add_argument("--transform", required=True, help="transformation DSL file")
    load.add_argument(
        "--xml",
        required=True,
        action="append",
        help="XML document to load (repeat for a corpus)",
    )
    load.add_argument(
        "--db",
        required=True,
        help="SQLite database path (created if absent), or a PostgreSQL DSN",
    )
    load.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "storage engine: sqlite (default) or postgres; "
            "default: REPRO_BACKEND, else inferred from --db (postgres:// "
            "URLs open PostgreSQL)"
        ),
    )
    load.add_argument(
        "--keys",
        help="keys file; their propagated FDs become the tables' constraints",
    )
    load.add_argument(
        "--mode",
        default="strict",
        choices=["strict", "log"],
        help=(
            "strict: the engine rejects violating rows at load time; "
            "log: stage everything, check afterwards (see --verify)"
        ),
    )
    load.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help=(
            "shred each document on N worker processes before loading "
            "(0 = one worker per CPU; default: REPRO_JOBS, else serial)"
        ),
    )
    load.add_argument(
        "--batch-size",
        type=_positive_int,
        default=500,
        metavar="N",
        help="rows per executemany batch (default 500)",
    )
    load.add_argument(
        "--verify",
        action="store_true",
        help="after loading, check every propagated key in-database (SQL)",
    )
    load.add_argument(
        "--provenance",
        metavar="COLUMN",
        help=(
            "per-document provenance column name (added automatically as "
            "'_document' when several --xml are given)"
        ),
    )
    load.add_argument(
        "--dtd",
        help=(
            "DTD file; every document is validated (streaming) before the "
            "database is touched — a non-conforming document aborts the load"
        ),
    )
    _add_stats_flags(load)
    load.set_defaults(handler=cmd_load)

    query = subparsers.add_parser("query", help="inspect a database produced by load")
    query.add_argument(
        "--db", required=True, help="SQLite database path, or a PostgreSQL DSN"
    )
    query.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="storage engine (see load --backend)",
    )
    query.add_argument("--sql", help="SQL to execute (default: list tables)")
    query.add_argument("--table", help="dump one table instead of running --sql")
    query.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --table: print at most N rows",
    )
    query.set_defaults(handler=cmd_query)

    serve = subparsers.add_parser(
        "serve", help="run the NDJSON-over-TCP ingestion service"
    )
    serve.add_argument(
        "--db",
        default=":memory:",
        help="database path or PostgreSQL DSN (default: in-memory SQLite)",
    )
    serve.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="storage engine (see load --backend)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8743, help="TCP port")
    serve.add_argument(
        "--mode",
        default="strict",
        choices=["strict", "log"],
        help="default constraint mode for tenants that do not pick one",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        metavar="N",
        help="concurrent ingestion workers (default 4)",
    )
    serve.add_argument(
        "--pool-size",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "backend connections in the pool (default 1; raise for "
            "PostgreSQL, keep 1 for sqlite)"
        ),
    )
    serve.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help="shard each uploaded document over N worker processes",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="P",
        help=(
            "also serve live metrics in Prometheus text format over HTTP "
            "on this port (default: no metrics endpoint)"
        ),
    )
    serve.set_defaults(handler=cmd_serve)

    apply_delta = subparsers.add_parser(
        "apply-delta",
        help="edit a document subtree-by-subtree on the incremental plane",
    )
    apply_delta.add_argument("--xml", required=True, help="XML document to index and edit")
    apply_delta.add_argument("--transform", help="transformation DSL file")
    apply_delta.add_argument("--keys", help="keys file to check incrementally")
    apply_delta.add_argument(
        "--op",
        action="append",
        default=[],
        metavar="OP",
        help=(
            "a delta: 'insert POS FRAG', 'delete POS' or 'replace POS FRAG' "
            "(FRAG starting with '<' is inline text, else a file path; "
            "repeatable, applied in order)"
        ),
    )
    apply_delta.add_argument(
        "--repl",
        action="store_true",
        help="read delta operations from stdin, one per line "
        "(plus 'violations', 'tables', 'text', 'quit')",
    )
    apply_delta.add_argument(
        "--db",
        help="SQLite database kept in step with the document (delta rows only)",
    )
    apply_delta.add_argument(
        "--mode",
        default="strict",
        choices=["strict", "log"],
        help="with --db: constraint mode of the created tables",
    )
    apply_delta.add_argument(
        "--write-back",
        action="store_true",
        help="save the edited document over --xml after all operations applied",
    )
    _add_stats_flags(apply_delta)
    apply_delta.set_defaults(handler=cmd_apply_delta)

    bench = subparsers.add_parser("bench", help="re-run the paper's Figure 7 experiments")
    bench.add_argument("--paper", action="store_true", help="use the paper's full grids (slow)")
    bench.set_defaults(handler=cmd_bench)

    return parser


def _silence_stdout() -> None:
    """Point stdout at the null device (EPIPE: the reader went away).

    Replacing the underlying file descriptor (not just ``sys.stdout``)
    also keeps the interpreter's exit-time flush from printing a second
    ``BrokenPipeError`` traceback.
    """
    import os

    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError:  # pragma: no cover - stdout already closed outright
        pass


def _run_handler(args: argparse.Namespace) -> int:
    """Dispatch to the sub-command, collecting metrics when asked.

    ``--stats`` / ``--stats-json`` turn the telemetry plane on for this
    one invocation via :func:`repro.obs.collect` and print the snapshot
    to stderr afterwards — stdout stays the machine-parseable report.
    """
    if not (getattr(args, "stats", False) or getattr(args, "stats_json", False)):
        return args.handler(args)
    from repro.obs.render import render_json, render_table

    with obs.collect() as registry:
        code = args.handler(args)
    snapshot = registry.snapshot()
    render = render_json if args.stats_json else render_table
    print(render(snapshot), file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.obs import setup_cli_logging
    from repro.storage.backend import StorageError

    parser = build_parser()
    args = parser.parse_args(argv)
    setup_cli_logging(args.verbose - args.quiet)
    try:
        return _run_handler(args)
    except FileNotFoundError as error:
        log.error("error: %s", error)
        return 2
    except (ValueError, KeyError, StorageError) as error:
        # LoadError (violations found → exit 1) is handled inside cmd_load;
        # any StorageError reaching here is a usage problem (bad SQL, a
        # missing table, an incompatible existing database).  str() of a
        # KeyError is the repr of its argument, so print the message itself.
        message = error.args[0] if isinstance(error, KeyError) and error.args else error
        log.error("error: %s", message)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C mid-command (serve, apply-delta --repl, a long load) is a
        # clean stop, not a crash: the conventional 128+SIGINT exit code,
        # no traceback.
        log.error("interrupted")
        return 130
    except BrokenPipeError:
        # The stdout reader hung up (`repro query … | head`): close
        # quietly with the conventional 128+SIGPIPE code instead of
        # dumping a traceback into a dead pipe.
        _silence_stdout()
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
