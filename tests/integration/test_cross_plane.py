"""Cross-plane robustness: every plane gives the same answer.

``check-doc`` and ``shred`` reach the same document through several
routes of the pipeline driver — the serial streaming pass, the sharded
pass on worker processes, the DTD-pruned pass.  All of them are promised
to print byte-identical reports and exit codes, equal to the report the
DOM reference renders in-process (:mod:`tests.dom_reference`).  This
suite holds them to it on the schema-shaped stress corpora of
:mod:`repro.experiments.scenarios` (entity-dense text, a DBLP-shaped
bibliography, deep recursive nesting), on an ill-formed document, whose
syntax error must read the same on every plane (``apply-delta``, a
verified ``load`` and a service upload included), on carriage returns,
which every plane keeps, and on a file that is not UTF-8, whose decode
error must read the same on every plane, and on character references
outside the grammar, which every plane keeps literal.  The pure tokenizer is not a CLI plane (the backend is the
tokenizer's own choice), so its events are fed to the pipeline driver
in-process and compared with the default plane's answer.
"""

import asyncio
import io
import json
import sqlite3
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.scenarios import (
    DBLP_DTD,
    DEEP_DTD,
    ENTITY_STORM_DTD,
    MONDIAL_DTD,
    dblp_shaped_chunks,
    deep_nesting_chunks,
    entity_storm_chunks,
    mondial_shaped_chunks,
)
from repro.keys import parse_keys
from repro.parallel import run_pipeline
from repro.transform import evaluate_transformation, parse_transformation
from repro.xmlmodel import iter_events, parse_document
from repro.xmlmodel.parser import XMLSyntaxError

from tests import dom_reference

#: name → (document chunks, DTD, keys, transformation).  The keys are
#: chosen to be violated, so the reports carry witnesses.
CORPORA = {
    "storm": (
        lambda: entity_storm_chunks(records=300),
        ENTITY_STORM_DTD,
        "K1 = (., (//record, {@id}))\nK2 = (//record, (blob, {}))\n",
        "table blob\n"
        "  var r <- xr : //record\n"
        "  var i <- r : @id\n"
        "  var b <- r : blob\n"
        "  field id = value(i)\n"
        "  field text = value(b)\n",
    ),
    "dblp": (
        lambda: dblp_shaped_chunks(records=1200),
        DBLP_DTD,
        "K1 = (., (//article, {@key}))\nK2 = (//article, (author, {}))\n",
        "table article\n"
        "  var a <- xr : //article\n"
        "  var k <- a : @key\n"
        "  var t <- a : title\n"
        "  field key = value(k)\n"
        "  field title = value(t)\n",
    ),
    "deep": (
        lambda: deep_nesting_chunks(depth=1500, repeat=2),
        DEEP_DTD,
        "K1 = (., (//link, {@n}))\nK2 = (., (//payload, {}))\n",
        "table deep\n  var x <- xr : link\n  field v = value(x)\n",
    ),
}

#: The ``check-doc`` planes that must agree byte for byte with the DOM
#: reference.
CHECK_PLANES = {
    "default": [],
    "jobs2": ["--jobs", "2"],
    "prune": ["--dtd", "{dtd}", "--prune"],
}

KEYS = "K = (., (//country, {@car_code}))\n"


def _workspace(directory, name):
    chunks, dtd, keys, transform = CORPORA[name]
    return _write(
        directory, doc="".join(chunks()), dtd=dtd, keys=keys, rules=transform
    )


def _write(directory, **texts):
    """Write one file per text; map each name to its path (plus a fresh
    ``db`` path)."""
    paths = {"db": str(directory / "out.db")}
    for name, text in texts.items():
        (directory / name).write_text(text)
        paths[name] = str(directory / name)
    return paths


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request, tmp_path_factory):
    return _workspace(tmp_path_factory.mktemp(request.param), request.param)


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(args, ws):
    return [arg.format(**ws) for arg in args]


def _loaded_rows(db):
    """Rows over every table of a SQLite database."""
    connection = sqlite3.connect(db)
    try:
        tables = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
        return sum(
            connection.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
            for (name,) in tables
        )
    finally:
        connection.close()


class TestCheckDocPlanesAgree:
    def test_reports_and_exit_codes_are_identical(self, corpus, capsys):
        base = ["check-doc", "--keys", corpus["keys"], "--xml", corpus["doc"]]
        dom = dom_reference.check_doc(corpus["keys"], corpus["doc"])
        code, out, err = dom
        assert code == 1 and "key violated" in out and err == ""
        for name, args in CHECK_PLANES.items():
            assert _run(base + _argv(args, corpus), capsys) == dom, name


def _answer(run):
    """Everything a pipeline run reports: rows and violations with ids."""
    rows = {name: instance.rows for name, instance in run.instances.items()}
    return rows, [
        (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail)
        for v in run.violations
    ]


class TestPureTokenizerPlane:
    def test_pure_events_match_the_default_plane(self, corpus):
        keys = parse_keys(Path(corpus["keys"]).read_text())
        rules = parse_transformation(Path(corpus["rules"]).read_text())
        doc = Path(corpus["doc"])
        default = run_pipeline(doc, rules=rules, keys=keys)
        pure = run_pipeline(iter_events(doc, engine="pure"), rules=rules, keys=keys)
        assert default.violations
        assert _answer(pure) == _answer(default)


class TestShredPlanesAgree:
    def test_serial_and_sharded_rows_match_the_dom_reference(self, corpus, capsys):
        dom = dom_reference.shred(corpus["rules"], corpus["doc"], sql_form=True, copy=True)
        assert dom[0] == 0 and "COPY" in dom[1] and dom[2] == ""
        base = [
            "shred", "--transform", corpus["rules"], "--xml", corpus["doc"],
            "--sql", "--copy",
        ]
        for plane in ([], ["--stream"], ["--jobs", "2"]):
            assert _run(base + plane, capsys) == dom, plane


# ----------------------------------------------------------------------
# An ill-formed document: one syntax error, the same on every plane
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ill_formed(tmp_path_factory):
    """A Mondial-shaped document whose second organization holds
    ``<name><population></name></population>`` — a mismatched end tag deep
    in the last shard, inside a subtree the keys never look at."""
    text = "".join(
        mondial_shaped_chunks(countries=10, provinces=2, cities=2, organizations=4)
    )
    at = text.index("<name>Organization 1</name>")
    text = text[:at] + "<name><population></name></population>" + text[at:]
    return _write(
        tmp_path_factory.mktemp("ill_formed"),
        doc=text,
        dtd=MONDIAL_DTD,
        keys=KEYS,
        rules="table country\n  var c <- xr : //country\n"
        "  var k <- c : @car_code\n  field code = value(k)\n",
    )


class TestIllFormedDocument:
    @pytest.fixture(scope="class")
    def expected(self, ill_formed):
        """Exit 2, no stdout, and the DOM parser's error on stderr."""
        with pytest.raises(XMLSyntaxError) as caught:
            parse_document(open(ill_formed["doc"]).read())
        assert caught.value.message == "mismatched end tag </name> for <population>"
        expected = 2, "", f"error: {caught.value}\n"
        assert dom_reference.check_doc(ill_formed["keys"], ill_formed["doc"]) == expected
        assert dom_reference.shred(ill_formed["rules"], ill_formed["doc"]) == expected
        return expected

    @pytest.mark.parametrize(
        "plane",
        [[], ["--jobs", "2"]],
        ids=["default", "jobs2"],
    )
    def test_check_doc_reports_the_serial_error(self, ill_formed, expected, plane, capsys):
        argv = ["check-doc", "--keys", ill_formed["keys"], "--xml", ill_formed["doc"]]
        assert _run(argv + _argv(plane, ill_formed), capsys) == expected

    def test_apply_delta_reports_the_document_offset(
        self, ill_formed, expected, capsys, monkeypatch
    ):
        # Slices are indexed inside a synthetic root wrapper; the error
        # still reads at its offset in the document.
        monkeypatch.setattr("sys.stdin", io.StringIO("violations\n"))
        argv = ["apply-delta", "--keys", ill_formed["keys"], "--xml", ill_formed["doc"],
                "--repl"]
        assert _run(argv, capsys) == expected

    def test_malformed_delta_reports_the_fragment_offset(self, ill_formed, capsys):
        fragment = '<country car_code="Z"><name>x</province></country>'
        with pytest.raises(XMLSyntaxError) as caught:
            list(iter_events(fragment))
        one = Path(ill_formed["doc"]).parent / "one_country.xml"
        one.write_text('<mondial><country car_code="A"/></mondial>')
        argv = ["apply-delta", "--keys", ill_formed["keys"], "--xml", str(one),
                "--op", f"insert 0 {fragment}"]
        code, out, err = _run(argv, capsys)
        assert (code, err) == (2, f"error: {caught.value}\n")
        assert caught.value.position == 39
        assert out == f"indexed {one}: 1 top-level subtree(s)\n"

    def test_strict_upload_answers_the_error_and_serves_on(self, ill_formed, expected):
        from repro.service import IngestionService
        from repro.service.registry import rule_to_wire

        rules = parse_transformation(Path(ill_formed["rules"]).read_text())
        register = {
            "op": "register", "tenant": "geo", "mode": "strict",
            "rules": [rule_to_wire(rule) for rule in rules],
        }
        upload = {"op": "upload", "tenant": "geo", "text": Path(ill_formed["doc"]).read_text()}

        async def exchange():
            service = IngestionService()
            await service.start()
            server = await service.serve_ndjson("127.0.0.1", 0)
            try:
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def ask(request):
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await asyncio.wait_for(reader.readline(), 30))

                replies = [await ask(request) for request in (register, upload, {"op": "ping"})]
                writer.close()
                return replies
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()
                service.close()

        registered, uploaded, ping = asyncio.run(exchange())
        assert registered["ok"]
        error_line = expected[2][len("error: "):-1]
        assert uploaded == {"ok": False, "error": f"XMLSyntaxError: {error_line}"}
        assert ping == {"ok": True, "op": "ping"}

    def test_pure_events_raise_the_serial_error(self, ill_formed, expected):
        keys = parse_keys(Path(ill_formed["keys"]).read_text())
        events = iter_events(Path(ill_formed["doc"]), engine="pure")
        with pytest.raises(XMLSyntaxError) as caught:
            run_pipeline(events, keys=keys)
        assert f"error: {caught.value}\n" == expected[2]

    @pytest.mark.parametrize(
        "plane",
        [["--jobs", "1"], ["--jobs", "2"]],
        ids=["accel", "jobs2-accel"],
    )
    def test_pruned_check_doc_reports_the_serial_error(
        self, ill_formed, expected, plane, capsys
    ):
        argv = [
            "check-doc", "--keys", ill_formed["keys"], "--xml", ill_formed["doc"],
            "--dtd", ill_formed["dtd"], "--prune",
        ]
        assert _run(argv + plane, capsys) == expected

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verified_load_reports_the_serial_error_and_loads_nothing(
        self, ill_formed, expected, jobs, tmp_path, capsys
    ):
        db = str(tmp_path / "verified.db")
        argv = [
            "load", "--transform", ill_formed["rules"], "--keys", ill_formed["keys"],
            "--xml", ill_formed["doc"], "--db", db, "--verify", "--jobs", jobs,
        ]
        assert _run(argv, capsys) == expected
        assert _loaded_rows(db) == 0

    @pytest.mark.parametrize(
        "command",
        [
            ["check-doc", "--keys", "{keys}", "--xml", "{doc}"],
            ["shred", "--transform", "{rules}", "--xml", "{doc}"],
            ["load", "--transform", "{rules}", "--xml", "{doc}", "--db", "{db}"],
        ],
        ids=["check-doc", "shred", "load"],
    )
    def test_sharded_commands_print_the_serial_stderr_line(
        self, ill_formed, expected, command, capsys
    ):
        argv = _argv(command, ill_formed)
        serial = _run(argv + ["--jobs", "1"], capsys)
        assert serial == expected
        assert _run(argv + ["--jobs", "2"], capsys) == serial


# ----------------------------------------------------------------------
# Carriage returns: every plane reads the file's bytes as they are
# ----------------------------------------------------------------------
#: Two ``<i>`` whose ``@k`` differ only in ``\r\n`` against ``\n``.  The
#: in-tree dialect keeps carriage returns, so the values differ and the
#: key holds; a plane that translates newlines reports a duplicate.
CRLF_DOC = '<r><i k="x\r\ny"/><i k="x\ny"/></r>'
CRLF_KEYS = "K = (., (//i, {@k}))\n"
CRLF_RULES = "table i\n  var a <- xr : //i\n  var k <- a : @k\n  field k = value(k)\n"


@pytest.fixture()
def crlf(tmp_path):
    paths = {}
    for name, text in (
        ("doc", CRLF_DOC), ("keys", CRLF_KEYS), ("rules", CRLF_RULES),
        ("frag", '<i k="x\r\ny"/>'), ("one", '<r><i k="x\ny"/></r>'),
    ):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        paths[name] = str(tmp_path / name)
    return paths


class TestCarriageReturns:
    def test_check_doc_planes_keep_carriage_returns(self, crlf, capsys):
        dom = dom_reference.check_doc(crlf["keys"], crlf["doc"])
        assert dom[0] == 0 and dom[2] == ""
        base = ["check-doc", "--keys", crlf["keys"], "--xml", crlf["doc"]]
        assert _run(base, capsys) == dom
        assert _run(base + ["--jobs", "2"], capsys) == dom

    def test_shred_planes_keep_carriage_returns(self, crlf, capsys):
        dom = dom_reference.shred(crlf["rules"], crlf["doc"], sql_form=True)
        assert dom[0] == 0 and "'x\r\ny'" in dom[1]
        base = ["shred", "--transform", crlf["rules"], "--xml", crlf["doc"], "--sql"]
        for plane in ([], ["--stream"], ["--jobs", "2"]):
            assert _run(base + plane, capsys) == dom, plane

    def test_apply_delta_keeps_carriage_returns(self, crlf, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("violations\n"))
        argv = ["apply-delta", "--keys", crlf["keys"], "--xml", crlf["doc"], "--repl"]
        code, out, _ = _run(argv, capsys)
        assert (code, out.splitlines()[-1]) == (0, "0 violation(s)")

    def test_delta_fragment_file_keeps_carriage_returns(self, crlf, capsys):
        argv = [
            "apply-delta", "--keys", crlf["keys"], "--xml", crlf["one"],
            "--op", f"insert 1 {crlf['frag']}",
        ]
        code, out, _ = _run(argv, capsys)
        assert code == 0 and "(total 0)" in out

    @pytest.mark.parametrize(
        "text", [CRLF_DOC, "<r><a>one\rtwo</a><b k='\r'/></r>"], ids=["crlf", "lone-cr"]
    )
    def test_pure_and_expat_path_events_agree(self, tmp_path, text):
        target = tmp_path / "doc.xml"
        target.write_bytes(text.encode("utf-8"))
        pure = list(iter_events(target, engine="pure"))
        assert pure == list(iter_events(target, engine="expat"))
        assert pure == list(iter_events(text, engine="pure"))


# ----------------------------------------------------------------------
# Character references outside the grammar: literal on every plane
# ----------------------------------------------------------------------
#: A reference past ``chr``'s range, one ``int()`` would read as 10
#: beside a real newline, and two naming no XML character (NUL and a
#: surrogate, which no SQL literal or UTF-8 encoder could carry).  All
#: stay literal, so every plane exits 0 and the key holds.
CHAR_REF_DOCS = {
    "huge": ('<r><i k="&#99999999999999999999;"/></r>', "&#99999999999999999999;"),
    "underscore": ('<r><i k="&#1_0;"/><i k="&#10;"/></r>', "&#1_0;"),
    "nul": ('<r><i k="&#0;"/></r>', "&#0;"),
    "surrogate": ('<r><i k="&#xD800;"/></r>', "&#xD800;"),
}
CHAR_REF_DTD = "<!ELEMENT r (i*)>\n<!ELEMENT i EMPTY>\n<!ATTLIST i k CDATA #REQUIRED>\n"


@pytest.fixture(params=sorted(CHAR_REF_DOCS))
def char_ref(request, tmp_path):
    doc, literal = CHAR_REF_DOCS[request.param]
    paths = _write(tmp_path, doc=doc, dtd=CHAR_REF_DTD, keys=CRLF_KEYS, rules=CRLF_RULES)
    return paths, literal


class TestLiteralCharacterReferences:
    def test_check_doc_planes_hold_the_key(self, char_ref, capsys):
        paths, _ = char_ref
        dom = dom_reference.check_doc(paths["keys"], paths["doc"])
        assert dom == (0, "document satisfies all 1 keys\n", "")
        base = ["check-doc", "--keys", paths["keys"], "--xml", paths["doc"]]
        for plane in ([], ["--jobs", "2"], ["--dtd", paths["dtd"], "--prune"]):
            assert _run(base + plane, capsys) == dom, plane

    def test_shred_planes_keep_the_reference(self, char_ref, capsys):
        paths, literal = char_ref
        dom = dom_reference.shred(paths["rules"], paths["doc"], sql_form=True)
        assert dom[0] == 0 and f"'{literal}'" in dom[1] and dom[2] == ""
        base = ["shred", "--transform", paths["rules"], "--xml", paths["doc"], "--sql"]
        for plane in ([], ["--stream"], ["--jobs", "2"]):
            assert _run(base + plane, capsys) == dom, plane

    def test_load_stores_the_reference(self, char_ref, capsys):
        paths, literal = char_ref
        argv = [
            "load", "--transform", paths["rules"], "--keys", paths["keys"],
            "--xml", paths["doc"], "--db", paths["db"],
        ]
        code, _, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        tree = parse_document(Path(paths["doc"]).read_text())
        rules = parse_transformation(Path(paths["rules"]).read_text())
        dom = [(row.get_value("k"),) for row in evaluate_transformation(rules, tree)["i"]]
        connection = sqlite3.connect(paths["db"])
        try:
            loaded = connection.execute('SELECT "k" FROM "i"').fetchall()
        finally:
            connection.close()
        assert sorted(loaded) == sorted(dom) and (literal,) in loaded

    def test_apply_delta_holds_the_key(self, char_ref, capsys, monkeypatch):
        paths, literal = char_ref
        dom = dom_reference.check_doc(paths["keys"], paths["doc"])
        monkeypatch.setattr("sys.stdin", io.StringIO(f'violations\nreplace 0 <i k="{literal}"/>\n'))
        argv = [
            "apply-delta", "--transform", paths["rules"], "--keys", paths["keys"],
            "--xml", paths["doc"], "--db", paths["db"], "--repl",
        ]
        code, out, err = _run(argv, capsys)
        assert (code, err) == (dom[0], "")
        lines = out.splitlines()
        assert "0 violation(s)" in lines
        assert lines[-1].startswith("replace 0: ") and lines[-1].endswith("(total 0)")


# ----------------------------------------------------------------------
# A file that is not UTF-8: one decode error, the same on every plane
# ----------------------------------------------------------------------
UTF8_DTD = "<!ELEMENT r (a*)>\n<!ELEMENT a (#PCDATA)>\n"


@pytest.fixture(scope="module")
def not_utf8(tmp_path_factory):
    """A 4 KiB+ document with a Latin-1 ``é`` (byte 0xe9) near its end."""
    directory = tmp_path_factory.mktemp("not_utf8")
    head = "<r>" + "<a>x</a>" * 600
    raw = head.encode("utf-8") + b"<a>caf\xe9</a></r>"
    paths = _write(
        directory, dtd=UTF8_DTD, keys="K = (., (//a, {}))\n",
        rules="table a\n  var a <- xr : //a\n  field v = value(a)\n",
    )
    (directory / "doc").write_bytes(raw)
    paths["doc"] = str(directory / "doc")
    position = len(head) + len("<a>caf")
    message = (
        f"error: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
        "invalid continuation byte\n"
    )
    assert dom_reference.check_doc(paths["keys"], paths["doc"]) == (2, "", message)
    assert dom_reference.shred(paths["rules"], paths["doc"]) == (2, "", message)
    return paths, message


class TestNotUtf8Document:
    @pytest.mark.parametrize(
        "command",
        [
            ["check-doc", "--keys", "{keys}", "--xml", "{doc}"],
            ["check-doc", "--keys", "{keys}", "--xml", "{doc}", "--jobs", "2"],
            [
                "check-doc", "--keys", "{keys}", "--xml", "{doc}",
                "--dtd", "{dtd}", "--prune",
            ],
            ["shred", "--transform", "{rules}", "--xml", "{doc}"],
            ["shred", "--transform", "{rules}", "--xml", "{doc}", "--stream"],
        ],
        ids=["check-doc", "check-doc-jobs2", "check-doc-prune", "shred", "shred-stream"],
    )
    def test_every_plane_reports_the_decode_error(self, not_utf8, command, capsys):
        paths, message = not_utf8
        assert _run(_argv(command, paths), capsys) == (2, "", message)

    def test_load_reports_the_decode_error_and_loads_nothing(self, not_utf8, capsys):
        paths, message = not_utf8
        argv = _argv(["load", "--transform", "{rules}", "--xml", "{doc}", "--db", "{db}"], paths)
        assert _run(argv, capsys) == (2, "", message)
        assert _loaded_rows(paths["db"]) == 0
