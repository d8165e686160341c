"""End-to-end tests of the command-line interface."""

import sys

import pytest

from repro.cli import main
from repro.keys import parse_keys
from repro.transform import parse_transformation
from repro.experiments import paper_example as pe
from repro.xmlmodel import accel
from repro.xmlmodel.serializer import serialize

from tests import dom_reference
from tests.storage.fake_postgres import connect_fake_postgres


KEYS_TEXT = """
K1 = (., (//book, {@isbn}))
K2 = (//book, (chapter, {@number}))
K3 = (//book, (title, {}))
K4 = (//book/chapter, (name, {}))
K7 = (//book, (author/contact, {}))
"""

TRANSFORM_TEXT = """
table book
  var xa <- xr : //book
  var x1 <- xa : @isbn
  var x2 <- xa : title
  field isbn  = value(x1)
  field title = value(x2)

table chapter
  var ya <- xr : //book
  var y1 <- ya : @isbn
  var yc <- ya : chapter
  var y2 <- yc : @number
  var y3 <- yc : name
  field inBook = value(y1)
  field number = value(y2)
  field name   = value(y3)
"""


@pytest.fixture()
def workspace(tmp_path):
    keys_file = tmp_path / "keys.txt"
    keys_file.write_text(KEYS_TEXT)
    transform_file = tmp_path / "rules.dsl"
    transform_file.write_text(TRANSFORM_TEXT)
    xml_file = tmp_path / "figure1.xml"
    xml_file.write_text(serialize(pe.figure1_document(), xml_declaration=True))
    return {"keys": str(keys_file), "transform": str(transform_file), "xml": str(xml_file)}


class TestCheckCommand:
    def test_propagated_fd_exits_zero(self, workspace, capsys):
        code = main(
            [
                "check",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "chapter",
                "--fd", "inBook, number -> name",
            ]
        )
        assert code == 0
        assert "PROPAGATED" in capsys.readouterr().out

    def test_unpropagated_fd_exits_one(self, workspace, capsys):
        code = main(
            [
                "check",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "chapter",
                "--fd", "number -> name",
            ]
        )
        assert code == 1
        assert "NOT propagated" in capsys.readouterr().out

    def test_declared_key_mode(self, workspace, capsys):
        code = main(
            [
                "check",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "chapter",
                "--key", "inBook,number",
            ]
        )
        assert code == 0
        assert "guaranteed" in capsys.readouterr().out

    def test_missing_fd_and_key_is_usage_error(self, workspace, capsys):
        code = main(
            [
                "check",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "chapter",
            ]
        )
        assert code == 2

    def test_unknown_relation_reports_error(self, workspace, capsys):
        code = main(
            [
                "check",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "nope",
                "--fd", "a -> b",
            ]
        )
        assert code == 2

    def test_missing_file_reports_error(self, workspace):
        code = main(
            [
                "check",
                "--keys", "/does/not/exist.txt",
                "--transform", workspace["transform"],
                "--relation", "chapter",
                "--fd", "number -> name",
            ]
        )
        assert code == 2


class TestCoverCommand:
    def test_unknown_relation_message_is_not_quoted(self, workspace, capsys):
        code = main(
            [
                "cover",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "NOPE",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: transformation 'sigma' has no rule for 'NOPE'\n"

    def test_cover_printed(self, workspace, capsys):
        code = main(
            [
                "cover",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "chapter",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inBook, number -> name" in out

    def test_empty_cover_message(self, workspace, tmp_path, capsys):
        empty_keys = tmp_path / "none.txt"
        empty_keys.write_text("# no keys\n")
        code = main(
            [
                "cover",
                "--keys", str(empty_keys),
                "--transform", workspace["transform"],
                "--relation", "chapter",
            ]
        )
        assert code == 0
        assert "no functional dependencies" in capsys.readouterr().out


def _write_chain(tmp_path, depth, chain_keys):
    """A rule ``v{i} <- v{i-1} : a{i}`` ``depth`` variables deep, with
    ``id = value(@id of v0)`` and ``leaf = value(v{depth-1})``.  With
    ``chain_keys`` every ``a{i}`` is unique under its ``a{i-1}``, so the
    cover is ``id -> leaf``; without, nothing below ``v0`` is keyed."""
    lines = ["table U", "  var v0 <- xr : a0"]
    lines += [f"  var v{i} <- v{i - 1} : a{i}" for i in range(1, depth)]
    lines += [
        "  var vid <- v0 : @id",
        "  field id = value(vid)",
        f"  field leaf = value(v{depth - 1})",
    ]
    keys = ["(., (a0, {@id}))"]
    if chain_keys:
        keys += [f"(//a{i - 1}, (a{i}, {{}}))" for i in range(1, depth)]
    keys_file = tmp_path / f"chain{depth}.keys"
    keys_file.write_text("\n".join(keys) + "\n")
    transform_file = tmp_path / f"chain{depth}.dsl"
    transform_file.write_text("\n".join(lines) + "\n")
    return ["--keys", str(keys_file), "--transform", str(transform_file), "--relation", "U"]


class TestDeepRules:
    """Neither the implication oracle nor ``TableTree.path_between``
    recurses once per variable or per target step."""

    def test_cover_of_a_500_deep_keyed_chain(self, tmp_path, capsys):
        assert main(["cover", *_write_chain(tmp_path, 500, chain_keys=True)]) == 0
        assert capsys.readouterr().out == "id -> leaf\n"

    def test_cover_of_a_1200_deep_unkeyed_chain(self, tmp_path, capsys):
        assert main(["cover", *_write_chain(tmp_path, 1200, chain_keys=False)]) == 0
        assert capsys.readouterr().out == "(no functional dependencies are propagated)\n"


class TestDesignCommand:
    def test_design_with_sql(self, workspace, capsys):
        code = main(
            [
                "design",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "chapter",
                "--sql",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Minimum cover" in out
        assert "CREATE TABLE" in out

    def test_3nf_option(self, workspace, capsys):
        code = main(
            [
                "design",
                "--keys", workspace["keys"],
                "--transform", workspace["transform"],
                "--relation", "chapter",
                "--normal-form", "3NF",
            ]
        )
        assert code == 0


def _write_workload(tmp_path, num_fields, num_keys):
    """A generated universal relation as CLI arguments (keys and DSL files)."""
    from repro.experiments.generators import generate_workload
    from repro.transform.dsl import render_transformation
    from repro.transform.rule import Transformation

    workload = generate_workload(num_fields, depth=5, num_keys=num_keys, seed=2)
    keys_file = tmp_path / f"w{num_fields}.keys"
    keys_file.write_text("".join(f"{key.text}\n" for key in workload.keys))
    transform_file = tmp_path / f"w{num_fields}.dsl"
    transform_file.write_text(render_transformation(Transformation([workload.rule])))
    return ["--keys", str(keys_file), "--transform", str(transform_file), "--relation", "U"]


class TestSchemaDesignPins:
    """``cover`` and ``design`` print exactly what the straightforward
    algorithms print: BCNF over the exhaustive FD projection of the
    universal cover, and the linear scan behind
    ``TableRule.fields_of_variable``."""

    def test_design_matches_the_exhaustive_projection(self, tmp_path, capsys, monkeypatch):
        from repro.core import minimum_cover_from_keys
        from repro.relational import normalization, sql
        from repro.relational.schema import DatabaseSchema

        from tests.relational.projection_reference import reference_projection

        args = _write_workload(tmp_path, 11, 8)
        rule = parse_transformation(open(args[3]).read()).rule("U")
        cover = minimum_cover_from_keys(parse_keys(open(args[1]).read()), rule).cover
        with reference_projection():
            fragments = normalization.bcnf_decompose(rule.relation, rule.field_names, cover)
        expected = "\n".join(
            ["Minimum cover of propagated FDs:"]
            + [f"  {fd}" for fd in cover]
            + ["BCNF decomposition:"]
            + [f"  {relation.describe()}" for relation in fragments]
        )
        expected += "\n\n" + sql.create_schema(DatabaseSchema(fragments)) + "\n"

        def no_projection(*_args):
            raise AssertionError("design projected an FD set")

        monkeypatch.setattr(normalization, "project_fds", no_projection)
        assert main(["design", *args, "--sql"]) == 0
        out = capsys.readouterr().out
        assert out == expected
        assert out.count("CREATE TABLE") == 5

    def test_cover_matches_the_linear_field_scan(self, tmp_path, capsys, monkeypatch):
        from repro.transform.rule import TableRule

        argv = ["cover", *_write_workload(tmp_path, 300, 40)]
        assert main(argv) == 0
        fast = capsys.readouterr().out
        monkeypatch.setattr(
            TableRule,
            "fields_of_variable",
            lambda rule, variable: [f.field for f in rule.fields if f.variable == variable],
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == fast
        assert len(fast.splitlines()) > 100


class TestShredCommand:
    def test_tables_printed_and_keys_validated(self, workspace, capsys):
        code = main(
            [
                "shred",
                "--transform", workspace["transform"],
                "--xml", workspace["xml"],
                "--keys", workspace["keys"],
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfies all" in out
        assert "Introduction" in out

    def test_sql_mode(self, workspace, capsys):
        code = main(
            ["shred", "--transform", workspace["transform"], "--xml", workspace["xml"], "--sql"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "INSERT INTO" in out

    def test_violated_keys_reported(self, workspace, tmp_path, capsys):
        bad_xml = tmp_path / "bad.xml"
        bad_xml.write_text("<r><book isbn='1'/><book isbn='1'/></r>")
        code = main(
            [
                "shred",
                "--transform", workspace["transform"],
                "--xml", str(bad_xml),
                "--keys", workspace["keys"],
            ]
        )
        assert code == 1
        assert "key violated" in capsys.readouterr().out


class TestCheckDocCommand:
    def test_report_matches_the_dom_reference(self, workspace, capsys):
        code = main(["check-doc", "--keys", workspace["keys"], "--xml", workspace["xml"]])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == dom_reference.check_doc(
            workspace["keys"], workspace["xml"]
        )

    def test_dom_is_no_option(self, workspace):
        # The DOM plane is a library API and a test reference, not a plane
        # a flag selects.
        with pytest.raises(SystemExit) as info:
            main(["check-doc", "--keys", workspace["keys"], "--xml", workspace["xml"], "--dom"])
        assert info.value.code == 2


class TestParallelPlane:
    """--jobs must not change a single output byte."""

    def test_shred_jobs_output_identical(self, workspace, capsys):
        serial_code = main(
            [
                "shred",
                "--transform", workspace["transform"],
                "--xml", workspace["xml"],
                "--keys", workspace["keys"],
                "--stream",
            ]
        )
        serial_out = capsys.readouterr().out
        parallel_code = main(
            [
                "shred",
                "--transform", workspace["transform"],
                "--xml", workspace["xml"],
                "--keys", workspace["keys"],
                "--jobs", "2",
            ]
        )
        parallel_out = capsys.readouterr().out
        assert parallel_code == serial_code
        assert parallel_out == serial_out

    def test_check_doc_jobs_output_identical(self, workspace, tmp_path, capsys):
        bad_xml = tmp_path / "bad.xml"
        bad_xml.write_text(
            "<r><book isbn='1'><chapter number='1'/><chapter number='1'/></book>"
            "<book isbn='1'/><book/></r>"
        )
        serial_code = main(["check-doc", "--keys", workspace["keys"], "--xml", str(bad_xml)])
        serial_out = capsys.readouterr().out
        parallel_code = main(
            ["check-doc", "--keys", workspace["keys"], "--xml", str(bad_xml), "--jobs", "2"]
        )
        parallel_out = capsys.readouterr().out
        assert serial_code == parallel_code == 1
        assert parallel_out == serial_out

    def test_jobs_env_variable_is_honoured(self, workspace, capsys, monkeypatch):
        serial_code = main(["check-doc", "--keys", workspace["keys"], "--xml", workspace["xml"]])
        serial_out = capsys.readouterr().out
        monkeypatch.setenv("REPRO_JOBS", "2")
        env_code = main(["check-doc", "--keys", workspace["keys"], "--xml", workspace["xml"]])
        env_out = capsys.readouterr().out
        assert env_code == serial_code
        assert env_out == serial_out


class TestShredPlanesAgree:
    """``shred`` prints the DOM reference's rows in the same order:
    ``--sql --copy`` stdout is compared byte for byte, which a bag
    comparison of the rows would not catch."""

    def _assert_planes_agree(self, transform, xml, capsys, planes=([], ["--stream"])):
        dom = dom_reference.shred(transform, xml, sql_form=True, copy=True)
        assert dom[0] == 0 and "COPY" in dom[1] and dom[2] == ""
        base = ["shred", "--transform", transform, "--xml", xml, "--sql", "--copy"]
        for plane in planes:
            code = main(base + plane)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == dom, plane

    def test_figure1_with_the_paper_rules(self, workspace, tmp_path, capsys):
        from repro.transform.dsl import render_transformation

        rules = tmp_path / "paper.dsl"
        rules.write_text(render_transformation(pe.paper_transformation()))
        self._assert_planes_agree(str(rules), workspace["xml"], capsys)

    def test_gate_shaped_document(self, tmp_path, capsys):
        from repro.experiments.generators import generate_workload
        from repro.experiments.scenarios import synthesize_document_chunks
        from repro.transform import Transformation
        from repro.transform.dsl import render_transformation

        workload = generate_workload(20, depth=4, num_keys=24, seed=2)
        rules = tmp_path / "gate.dsl"
        rules.write_text(render_transformation(Transformation([workload.rule])))
        xml = tmp_path / "gate.xml"
        xml.write_text(
            "".join(synthesize_document_chunks(workload, fanout=4, top_level_repeat=1))
        )
        self._assert_planes_agree(str(rules), str(xml), capsys)

    def test_deep_nesting_has_no_recursion_limit(self, tmp_path, capsys):
        # value() of a 1500-deep element: every plane builds it without
        # recursing once per level.
        from repro.experiments.scenarios import deep_nesting_chunks

        rules = tmp_path / "deep.dsl"
        rules.write_text("table deep\n  var x <- xr : link\n  field v = value(x)\n")
        xml = tmp_path / "deep.xml"
        xml.write_text("".join(deep_nesting_chunks(depth=1500, repeat=2)))
        self._assert_planes_agree(
            str(rules), str(xml), capsys, planes=([], ["--stream"], ["--jobs", "2"])
        )


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401  (import must not execute main)


VIOLATING_XML = """<bib>
  <book isbn="999">
    <title>Dup</title>
    <chapter number="7"><name>First</name></chapter>
    <chapter number="7"><name>Second</name></chapter>
  </book>
</bib>
"""


@pytest.fixture()
def violating_workspace(workspace, tmp_path):
    bad_xml = tmp_path / "violating.xml"
    bad_xml.write_text(VIOLATING_XML)
    workspace["bad_xml"] = str(bad_xml)
    workspace["db"] = str(tmp_path / "out.db")
    return workspace


class TestLoadCommand:
    def test_clean_strict_load(self, violating_workspace, capsys):
        ws = violating_workspace
        code = main(
            [
                "load",
                "--transform", ws["transform"],
                "--xml", ws["xml"],
                "--db", ws["db"],
                "--keys", ws["keys"],
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chapter:" in out
        assert "satisfies all propagated keys" in out

    def test_strict_load_rejects_violating_document(self, violating_workspace, capsys):
        ws = violating_workspace
        code = main(
            [
                "load",
                "--transform", ws["transform"],
                "--xml", ws["bad_xml"],
                "--db", ws["db"],
                "--keys", ws["keys"],
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "load rejected" in out
        assert "Second" in out  # the exact violating row is printed

    def test_log_mode_with_verify_finds_violations(self, violating_workspace, capsys):
        ws = violating_workspace
        code = main(
            [
                "load",
                "--transform", ws["transform"],
                "--xml", ws["bad_xml"],
                "--db", ws["db"],
                "--keys", ws["keys"],
                "--mode", "log",
                "--verify",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "violates its keys" in out
        assert "value-conflict" in out

    def test_log_mode_without_verify_stages_quietly(self, violating_workspace, capsys):
        ws = violating_workspace
        code = main(
            [
                "load",
                "--transform", ws["transform"],
                "--xml", ws["bad_xml"],
                "--db", ws["db"],
                "--keys", ws["keys"],
                "--mode", "log",
            ]
        )
        assert code == 0

    def test_corpus_gets_provenance_column(self, violating_workspace, capsys):
        ws = violating_workspace
        code = main(
            [
                "load",
                "--transform", ws["transform"],
                "--xml", ws["xml"],
                "--xml", ws["bad_xml"],
                "--db", ws["db"],
                "--keys", ws["keys"],
                "--mode", "log",
            ]
        )
        assert code == 0
        code = main(["query", "--db", ws["db"], "--sql",
                     'SELECT DISTINCT "_document" FROM "chapter" ORDER BY 1'])
        assert code == 0
        out = capsys.readouterr().out
        assert ws["xml"] in out and ws["bad_xml"] in out

    def test_parallel_load(self, violating_workspace, capsys):
        ws = violating_workspace
        code = main(
            [
                "load",
                "--transform", ws["transform"],
                "--xml", ws["xml"],
                "--db", ws["db"],
                "--keys", ws["keys"],
                "--jobs", "2",
            ]
        )
        assert code == 0

    def test_log_mode_into_strict_database_is_usage_error(self, violating_workspace, capsys):
        ws = violating_workspace
        base = ["load", "--transform", ws["transform"], "--xml", ws["xml"],
                "--db", ws["db"], "--keys", ws["keys"]]
        assert main(base) == 0  # creates a strict-mode database
        # Staging into it hits the strict constraints: usage error, not a
        # violation report and not a traceback.
        assert main(base + ["--mode", "log"]) == 2
        assert "does not expect" in capsys.readouterr().err

    def test_reloading_into_existing_database_appends(self, violating_workspace, capsys):
        """The README walkthrough reuses one --db across invocations."""
        ws = violating_workspace
        argv = ["load", "--transform", ws["transform"], "--xml", ws["xml"],
                "--db", ws["db"], "--keys", ws["keys"], "--mode", "log"]
        assert main(argv) == 0
        assert main(argv) == 0  # second run must not crash on CREATE TABLE
        capsys.readouterr()
        assert main(["query", "--db", ws["db"]]) == 0
        assert "chapter: 6 rows" in capsys.readouterr().out


class TestQueryCommand:
    @pytest.fixture()
    def loaded_db(self, violating_workspace):
        ws = violating_workspace
        assert main(
            [
                "load",
                "--transform", ws["transform"],
                "--xml", ws["xml"],
                "--db", ws["db"],
                "--keys", ws["keys"],
            ]
        ) == 0
        return ws

    def test_lists_tables_by_default(self, loaded_db, capsys):
        capsys.readouterr()
        assert main(["query", "--db", loaded_db["db"]]) == 0
        assert "chapter: 3 rows" in capsys.readouterr().out

    def test_table_dump_with_limit(self, loaded_db, capsys):
        capsys.readouterr()
        code = main(["query", "--db", loaded_db["db"], "--table", "chapter",
                     "--limit", "2"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].split("\t") == ["inBook", "number", "name"]
        assert len(out) == 3  # header + 2 rows

    def test_arbitrary_sql(self, loaded_db, capsys):
        capsys.readouterr()
        code = main(["query", "--db", loaded_db["db"], "--sql",
                     'SELECT COUNT(*) FROM "chapter"'])
        assert code == 0
        assert "3" in capsys.readouterr().out

    def test_missing_database_is_usage_error(self, tmp_path):
        assert main(["query", "--db", str(tmp_path / "absent.db")]) == 2

    def test_sql_and_table_together_is_usage_error(self, loaded_db):
        assert main(["query", "--db", loaded_db["db"], "--sql", "SELECT 1",
                     "--table", "chapter"]) == 2

    def test_bad_sql_is_usage_error(self, loaded_db):
        assert main(["query", "--db", loaded_db["db"], "--sql", "SELEC oops"]) == 2

    def test_unknown_table_is_usage_error(self, loaded_db):
        assert main(["query", "--db", loaded_db["db"], "--table", "nope"]) == 2

    def test_limit_without_table_is_usage_error(self, loaded_db):
        assert main(["query", "--db", loaded_db["db"], "--sql", "SELECT 1",
                     "--limit", "2"]) == 2


class TestExitCodes:
    """The uniform exit-code contract: 0 = holds, 1 = violations, 2 = usage."""

    def test_check_doc_violations_exit_one(self, violating_workspace):
        ws = violating_workspace
        assert main(["check-doc", "--keys", ws["keys"], "--xml", ws["bad_xml"]]) == 1

    def test_check_doc_clean_exit_zero(self, violating_workspace):
        ws = violating_workspace
        assert main(["check-doc", "--keys", ws["keys"], "--xml", ws["xml"]]) == 0

    def test_shred_violations_exit_one(self, violating_workspace):
        ws = violating_workspace
        assert main(["shred", "--transform", ws["transform"],
                     "--xml", ws["bad_xml"], "--keys", ws["keys"]]) == 1

    def test_load_violations_exit_one(self, violating_workspace):
        ws = violating_workspace
        assert main(["load", "--transform", ws["transform"],
                     "--xml", ws["bad_xml"], "--db", ws["db"],
                     "--keys", ws["keys"]]) == 1

    @pytest.mark.parametrize("command", ["check-doc", "shred", "load"])
    def test_missing_file_exit_two(self, violating_workspace, command):
        ws = violating_workspace
        argv = {
            "check-doc": ["check-doc", "--keys", ws["keys"], "--xml", "/absent.xml"],
            "shred": ["shred", "--transform", ws["transform"], "--xml", "/absent.xml"],
            "load": ["load", "--transform", ws["transform"], "--xml", "/absent.xml",
                     "--db", ws["db"]],
        }[command]
        assert main(argv) == 2

    @pytest.mark.parametrize("command", ["check-doc", "shred", "load"])
    def test_malformed_xml_exit_two(self, violating_workspace, tmp_path, command):
        ws = violating_workspace
        broken = tmp_path / "broken.xml"
        broken.write_text("<a><b></a>")
        argv = {
            "check-doc": ["check-doc", "--keys", ws["keys"], "--xml", str(broken)],
            "shred": ["shred", "--transform", ws["transform"], "--xml", str(broken)],
            "load": ["load", "--transform", ws["transform"], "--xml", str(broken),
                     "--db", ws["db"]],
        }[command]
        assert main(argv) == 2

    def test_argparse_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(["load"])  # missing required arguments
        assert info.value.code == 2

    def test_missing_expat_falls_back_to_pure(
        self, violating_workspace, capsys, monkeypatch
    ):
        # The backend is picked from what the platform offers: without
        # expat every document command runs on the pure tokenizer, with
        # the same report and exit code.
        ws = violating_workspace
        argv = ["shred", "--transform", ws["transform"], "--xml", ws["bad_xml"],
                "--keys", ws["keys"], "--stream"]
        assert main(argv) == 1
        expected = capsys.readouterr().out
        monkeypatch.setattr(accel, "_expat_module", lambda: None)
        assert main(argv) == 1
        assert capsys.readouterr().out == expected

    def test_tokenizer_flag_is_an_argparse_error(self, violating_workspace):
        ws = violating_workspace
        with pytest.raises(SystemExit) as info:
            main(["check-doc", "--keys", ws["keys"], "--xml", ws["xml"],
                  "--tokenizer", "pure"])
        assert info.value.code == 2


class TestBackendSelection:
    """--backend / REPRO_BACKEND route load and query to an engine."""

    #: Never dialed: ``connect_postgres`` is patched to the driver double.
    DSN = "postgresql://localhost/repro"

    @pytest.fixture()
    def fake_driver(self, monkeypatch):
        monkeypatch.setattr(
            "repro.storage.postgres.connect_postgres", connect_fake_postgres
        )

    def test_postgres_load_and_verify(self, violating_workspace, fake_driver, capsys):
        ws = violating_workspace
        code = main(
            ["load", "--transform", ws["transform"], "--xml", ws["xml"],
             "--db", self.DSN, "--backend", "postgres",
             "--keys", ws["keys"], "--verify"]
        )
        assert code == 0
        assert "satisfies all propagated keys" in capsys.readouterr().out

    def test_postgres_rejects_violations_like_sqlite(
        self, violating_workspace, fake_driver, capsys
    ):
        ws = violating_workspace
        argv = ["load", "--transform", ws["transform"], "--xml", ws["bad_xml"],
                "--keys", ws["keys"]]
        assert main(argv + ["--db", ws["db"]]) == 1
        sqlite_out = capsys.readouterr().out
        assert main(argv + ["--db", self.DSN, "--backend", "postgres"]) == 1
        assert capsys.readouterr().out == sqlite_out

    @pytest.mark.parametrize("command", ["load", "query", "serve"])
    @pytest.mark.parametrize("route", ["flag", "env"])
    @pytest.mark.parametrize("name", ["oracle", "fake-postgres", "postgres-fake"])
    def test_unknown_backend_flag_exit_two(
        self, violating_workspace, capsys, monkeypatch, command, route, name
    ):
        ws = violating_workspace
        argv = {
            "load": ["load", "--transform", ws["transform"], "--xml", ws["xml"]],
            "query": ["query"],
            "serve": ["serve"],
        }[command] + ["--db", ws["db"]]
        if route == "flag":
            argv += ["--backend", name]
        else:
            monkeypatch.setenv("REPRO_BACKEND", name)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown storage backend" in err

    def test_query_backend_flag(self, violating_workspace, capsys):
        ws = violating_workspace
        assert main(["load", "--transform", ws["transform"], "--xml", ws["xml"],
                     "--db", ws["db"], "--keys", ws["keys"]]) == 0
        capsys.readouterr()
        assert main(["query", "--db", ws["db"]]) == 0
        assert "book" in capsys.readouterr().out

    def test_serve_prints_no_banner_when_the_backend_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        # No driver importable: the service's pool probe fails fast.
        monkeypatch.setitem(sys.modules, "psycopg", None)
        monkeypatch.setitem(sys.modules, "psycopg2", None)
        db = str(tmp_path / "x.db")
        assert main(["serve", "--db", db, "--backend", "postgres"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no PostgreSQL driver is installed" in err


class TestEnvironmentErrors:
    """Malformed environment variables are uniform usage errors (exit 2)."""

    @pytest.mark.parametrize("plane", [[], ["--stream"]], ids=["shred", "shred-stream"])
    def test_malformed_repro_jobs_exit_two(
        self, violating_workspace, capsys, monkeypatch, plane
    ):
        # Every shred goes through the pipeline driver, which reads REPRO_JOBS.
        ws = violating_workspace
        monkeypatch.setenv("REPRO_JOBS", "abc")
        code = main(["shred", "--transform", ws["transform"],
                     "--xml", ws["xml"]] + plane)
        assert code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err


class TestCrashPaths:
    """Ctrl-C and a hung-up stdout reader exit cleanly, not with tracebacks."""

    def test_keyboard_interrupt_exits_130(self, violating_workspace, monkeypatch):
        ws = violating_workspace

        def interrupted(path):
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.cli._read", interrupted)
        code = main(["check-doc", "--keys", ws["keys"], "--xml", ws["xml"]])
        assert code == 130

    def test_broken_pipe_exits_141(self, violating_workspace, monkeypatch):
        ws = violating_workspace

        def hung_up(path):
            raise BrokenPipeError()

        monkeypatch.setattr("repro.cli._read", hung_up)
        # Stub the fd-level silencing: it would stomp pytest's capture of
        # fd 1 (the subprocess test below exercises the real thing).
        monkeypatch.setattr("repro.cli._silence_stdout", lambda: None)
        code = main(["check-doc", "--keys", ws["keys"], "--xml", ws["xml"]])
        assert code == 141

    def test_real_pipe_hangup_has_no_traceback(self, violating_workspace):
        # `repro query … | head -1`-shaped: the reader closes after one
        # line while thousands remain; the process must exit 141 with an
        # empty stderr instead of printing BrokenPipeError twice.
        import os
        import subprocess
        import sys

        import repro

        ws = violating_workspace
        assert main(["load", "--transform", ws["transform"], "--xml", ws["xml"],
                     "--db", ws["db"], "--keys", ws["keys"]]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        big = 'WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i+1 FROM n LIMIT 100000) SELECT i FROM n'
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "query", "--db", ws["db"], "--sql", big],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        process.stdout.readline()
        process.stdout.close()
        code = process.wait(timeout=60)
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert code == 141, stderr
        assert stderr == ""


class TestStatsFlags:
    """PR-10: ``--stats`` / ``--stats-json`` print telemetry on stderr
    while stdout stays byte-identical to an uninstrumented run."""

    def test_stats_prints_table_on_stderr_only(self, workspace, capsys):
        ws = workspace
        argv = ["check-doc", "--keys", ws["keys"], "--xml", ws["xml"]]
        code = main(argv)
        plain = capsys.readouterr()
        assert main(argv + ["--stats"]) == code
        stats = capsys.readouterr()
        assert stats.out == plain.out
        assert plain.err == ""
        assert "pipeline.events" in stats.err
        assert "check.violations" in stats.err
        assert "metric" in stats.err  # the table header

    def test_stats_json_emits_the_stable_schema(self, workspace, capsys):
        import json

        ws = workspace
        code = main(
            ["shred", "--stream", "--transform", ws["transform"],
             "--xml", ws["xml"], "--stats-json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.err)
        assert doc["schema"] == "repro-stats/1"
        counters = {c["name"]: c for c in doc["counters"]}
        assert counters["pipeline.events"]["value"] > 0
        rows = [c for c in doc["counters"] if c["name"] == "shred.rows"]
        assert {r["labels"]["relation"] for r in rows} == {"book", "chapter"}

    @staticmethod
    def _counters(argv, capsys):
        """Run ``argv`` with ``--stats-json``; name → summed counter value,
        plus the per-relation ``shred.rows``."""
        import json

        assert main(argv + ["--stats-json"]) in (0, 1)
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        totals, rows = {}, {}
        for counter in doc["counters"]:
            totals[counter["name"]] = totals.get(counter["name"], 0) + counter["value"]
            if counter["name"] == "shred.rows":
                rows[counter["labels"]["relation"]] = counter["value"]
        return totals, rows

    def test_shred_counts_the_dom_reference_rows(self, workspace, capsys):
        from pathlib import Path

        from repro.transform import evaluate_transformation
        from repro.xmlmodel import parse_document

        ws = workspace
        dom = evaluate_transformation(
            parse_transformation(Path(ws["transform"]).read_text()),
            parse_document(Path(ws["xml"]).read_text()),
        )
        dom_rows = {name: len(instance.rows) for name, instance in dom.items()}
        assert set(dom_rows) == {"book", "chapter"} and all(dom_rows.values())
        argv = ["shred", "--transform", ws["transform"], "--xml", ws["xml"]]
        for plane in ([], ["--stream"]):
            _, rows = self._counters(argv + plane, capsys)
            assert rows == dom_rows, plane

    def test_load_counts_pipeline_events(self, violating_workspace, capsys):
        from pathlib import Path

        from repro.xmlmodel import iter_events

        ws = violating_workspace
        totals, _ = self._counters(
            ["load", "--transform", ws["transform"], "--xml", ws["xml"],
             "--db", ws["db"], "--keys", ws["keys"]],
            capsys,
        )
        assert totals["pipeline.events"] == sum(1 for _ in iter_events(Path(ws["xml"])))

    def test_pruned_check_doc_counts_skips(self, tmp_path, capsys):
        from repro.keys import parse_keys
        from repro.xmlmodel import iter_events
        from repro.xmlmodel.dtd import parse_dtd
        from repro.xmlmodel.events import SKIP
        from repro.xmlmodel.static import compile_plan

        dtd_text = (
            "<!ELEMENT r (book*)>\n<!ELEMENT book (title, chapter*)>\n"
            "<!ELEMENT title (#PCDATA)>\n<!ELEMENT chapter (title, section*)>\n"
            "<!ELEMENT section (title)>\n<!ATTLIST book isbn ID #REQUIRED>\n"
            "<!ATTLIST chapter number CDATA #REQUIRED>\n"
        )
        keys_text = "K = (., (//chapter, {@number}))\n"
        doc = (
            '<r><book isbn="b1"><title>T</title><chapter number="1"><title>C</title>'
            "<section><title>S</title></section></chapter></book></r>"
        )
        files = {"book.dtd": dtd_text, "keys.txt": keys_text, "doc.xml": doc}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        # File sources skip on the accelerated path, which auto takes for paths.
        plan = compile_plan(parse_dtd(dtd_text), keys=parse_keys(keys_text))
        events = iter_events(tmp_path / "doc.xml", skip=plan.skipset)
        skips = [e for e in events if e.kind == SKIP]
        assert skips
        totals, _ = self._counters(
            ["check-doc", "--keys", str(tmp_path / "keys.txt"), "--xml",
             str(tmp_path / "doc.xml"), "--dtd", str(tmp_path / "book.dtd"), "--prune"],
            capsys,
        )
        assert totals["pipeline.skips"] == len(skips)
        assert totals["pipeline.elided_ids"] == sum(e.value for e in skips)

    def test_stats_flags_are_mutually_exclusive(self, workspace, capsys):
        ws = workspace
        with pytest.raises(SystemExit) as excinfo:
            main(["check-doc", "--keys", ws["keys"], "--xml", ws["xml"],
                  "--stats", "--stats-json"])
        assert excinfo.value.code == 2

    def test_stats_does_not_leak_the_telemetry_switch(self, workspace):
        from repro import obs

        ws = workspace
        argv = ["check-doc", "--keys", ws["keys"], "--xml", ws["xml"], "--stats"]
        was_enabled = obs.enabled()
        installed = obs.enable()  # the process-wide registry, restored below
        try:
            # From each starting state (``REPRO_METRICS`` may have set one),
            # ``--stats`` leaves the switch and the registry as it found them.
            for enabled in (False, True):
                if enabled:
                    obs.enable(installed)
                else:
                    obs.disable()
                main(argv)
                assert obs.enabled() is enabled
                assert obs.metrics() is (installed if enabled else obs.NULL_REGISTRY)
        finally:
            obs.enable(installed)
            if not was_enabled:
                obs.disable()

    def test_stats_with_violations_keeps_exit_code(
        self, violating_workspace, capsys
    ):
        ws = violating_workspace
        code = main(
            ["check-doc", "--keys", ws["keys"], "--xml", ws["bad_xml"],
             "--stats"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "key violated" in captured.out
        assert "check.violations" in captured.err


class TestSchemaCommandStats:
    """``--stats`` on ``cover`` and ``design``: counters on stderr, stdout
    and exit code unchanged."""

    @pytest.mark.parametrize(
        "command, counters",
        [
            ("cover", ["cover.implication_queries", "cover.generated_fds", "cover.fds"]),
            ("design", ["design.fragment_covers", "design.fragments"]),
        ],
    )
    def test_stats_leave_stdout_alone(self, workspace, capsys, command, counters):
        import json

        ws = workspace
        argv = [command, "--keys", ws["keys"], "--transform", ws["transform"],
                "--relation", "chapter"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(argv + ["--stats"]) == 0
        table = capsys.readouterr()
        assert table.out == plain.out
        assert all(name in table.err for name in counters)
        assert main(argv + ["--stats-json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out
        values = {c["name"]: c["value"] for c in json.loads(captured.err)["counters"]}
        assert all(values[name] > 0 for name in counters)

    def test_cover_counts_match_the_result(self, workspace, capsys):
        import json

        from repro.core import minimum_cover_from_keys

        ws = workspace
        assert main(["cover", "--keys", ws["keys"], "--transform", ws["transform"],
                     "--relation", "chapter", "--stats-json"]) == 0
        captured = capsys.readouterr()
        values = {c["name"]: c["value"] for c in json.loads(captured.err)["counters"]}
        rule = parse_transformation(TRANSFORM_TEXT).rule("chapter")
        result = minimum_cover_from_keys(parse_keys(KEYS_TEXT), rule)
        assert values["cover.fds"] == len(result.cover) == len(captured.out.splitlines())
        assert values["cover.generated_fds"] == len(result.generated)
        assert values["cover.implication_queries"] == result.implication_queries

    def test_design_counts_fragments(self, workspace, capsys):
        import json

        ws = workspace
        assert main(["design", "--keys", ws["keys"], "--transform", ws["transform"],
                     "--relation", "chapter", "--sql", "--stats-json"]) == 0
        captured = capsys.readouterr()
        values = {c["name"]: c["value"] for c in json.loads(captured.err)["counters"]}
        assert values["design.fragments"] == captured.out.count("CREATE TABLE")

    def test_design_cover_counters_describe_the_universal_cover(self, workspace, capsys):
        """``design`` propagates a cover per fragment, but ``cover.*`` counts
        only the universal one (as ``cover`` prints it); fragment covers have
        their own counter, and nothing is projected."""
        import json

        ws = workspace
        inputs = ["--keys", ws["keys"], "--transform", ws["transform"], "--relation", "chapter"]

        def counters(argv):
            assert main(argv + ["--stats-json"]) == 0
            err = capsys.readouterr().err
            return {c["name"]: c["value"] for c in json.loads(err)["counters"]}

        cover = counters(["cover", *inputs])
        design = counters(["design", "--sql", *inputs])
        names = ["cover.implication_queries", "cover.generated_fds", "cover.fds"]
        assert {name: design[name] for name in names} == {name: cover[name] for name in names}
        assert design["design.fragment_covers"] >= design["design.fragments"] > 0
        assert design.get("design.projections", 0) == 0
        assert design.get("design.closures", 0) == 0

    @pytest.mark.parametrize("command", ["cover", "design"])
    def test_stats_keep_usage_exit_code(self, workspace, command):
        ws = workspace
        assert main([command, "--keys", "/absent.keys", "--transform", ws["transform"],
                     "--relation", "chapter", "--stats"]) == 2
        assert main([command, "--keys", ws["keys"], "--transform", ws["transform"],
                     "--relation", "nope", "--stats"]) == 2


class TestVerbosityFlags:
    """PR-10: structured logging replaces ad-hoc stderr prints; the
    default level keeps stderr quiet, ``-v`` narrates, errors always
    show (same text, same exit codes, pinned above)."""

    def test_default_run_keeps_stderr_empty(self, workspace, capsys):
        ws = workspace
        assert main(
            ["check-doc", "--keys", ws["keys"], "--xml", ws["xml"]]
        ) == 0
        assert capsys.readouterr().err == ""

    def test_verbose_narrates_on_stderr(self, workspace, capsys):
        ws = workspace
        assert main(
            ["-v", "check-doc", "--keys", ws["keys"], "--xml", ws["xml"]]
        ) == 0
        captured = capsys.readouterr()
        assert "checked" in captured.err
        assert "violation(s)" in captured.err
        assert "checked" not in captured.out

    def test_verbose_shred_and_load_narrate(self, violating_workspace, capsys):
        ws = violating_workspace
        assert main(
            ["-v", "shred", "--transform", ws["transform"], "--xml", ws["xml"]]
        ) == 0
        assert "shredded 2 relation(s)" in capsys.readouterr().err
        assert main(
            ["-v", "load", "--transform", ws["transform"], "--xml", ws["xml"],
             "--db", ws["db"], "--keys", ws["keys"]]
        ) == 0
        assert "load finished" in capsys.readouterr().err

    def test_quiet_still_shows_errors(self, workspace, tmp_path, capsys):
        ws = workspace
        code = main(
            ["-q", "check-doc", "--keys", ws["keys"],
             "--xml", str(tmp_path / "missing.xml")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_errors_show_without_any_flag(self, workspace, tmp_path, capsys):
        ws = workspace
        code = main(
            ["check-doc", "--keys", ws["keys"],
             "--xml", str(tmp_path / "missing.xml")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
