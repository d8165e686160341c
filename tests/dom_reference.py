"""The DOM reference of ``check-doc`` and ``shred``, rendered in-process.

Both commands reach a document through the pipeline driver only.  The DOM
plane — :func:`~repro.xmlmodel.parse_document` with
:func:`~repro.keys.violations`, ``DTD.validate`` and
:func:`~repro.transform.evaluate_transformation` — is their reference:
each function here returns what a command prints when the reference
computes its answer, as ``(exit code, stdout, stderr)``, so a test holds
the CLI to it byte for byte.  The report printers are the CLI's own; what
is compared is what the two planes compute and in which order.
"""

import contextlib
import io
from pathlib import Path

from repro import cli
from repro.keys import parse_keys, violations
from repro.relational import sql
from repro.transform import evaluate_transformation, parse_transformation
from repro.xmlmodel import parse_document
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.events import read_document


def _rendered(report):
    """Run ``report`` (it prints, then returns the exit code) the way the
    CLI runs a command: a ``ValueError`` is exit 2 and one stderr line."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = report()
    except ValueError as error:
        return 2, out.getvalue(), f"error: {error}\n"
    return code, out.getvalue(), ""


def _violation_exit(keys, tree):
    found = [violation for key in keys for violation in violations(tree, key)]
    return cli._print_violation_report(keys, found)


def check_doc(keys, xml, dtd=None):
    """What ``check-doc --keys KEYS --xml XML [--dtd DTD]`` prints."""

    def report():
        key_set = parse_keys(Path(keys).read_text())
        tree = parse_document(read_document(xml))
        dtd_exit = 0
        if dtd is not None:
            schema = parse_dtd(Path(dtd).read_text())
            dtd_exit = cli._print_dtd_report(schema.validate(tree))
        return max(_violation_exit(key_set, tree), dtd_exit)

    return _rendered(report)


def shred(transform, xml, keys=None, sql_form=False, copy=False):
    """What ``shred --transform T --xml XML [--keys K] [--sql [--copy]]``
    prints."""

    def report():
        transformation = parse_transformation(Path(transform).read_text())
        key_set = parse_keys(Path(keys).read_text()) if keys else []
        tree = parse_document(read_document(xml))
        code = _violation_exit(key_set, tree) if key_set else 0
        for instance in evaluate_transformation(transformation, tree).values():
            print()
            if not sql_form:
                print(instance.to_table())
                continue
            print(sql.create_table(instance.schema))
            if copy:
                block = sql.copy_statement(instance.schema, instance.rows)
                if block:
                    print(block)
            else:
                for statement in sql.insert_statements(instance):
                    print(statement)
        return code

    return _rendered(report)
