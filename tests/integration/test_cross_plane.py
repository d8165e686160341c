"""Cross-plane robustness: every CLI plane gives the same answer.

``check-doc`` and ``shred`` reach the same document through several
planes — the DOM, the serial streaming pass, the sharded pass on worker
processes, the DTD-pruned pass.  All of them are promised to print
byte-identical reports and exit codes.  This suite holds them to it on
the schema-shaped stress corpora of :mod:`repro.experiments.scenarios`
(entity-dense text, a DBLP-shaped bibliography, deep recursive nesting),
on an ill-formed document, whose syntax error must read the same on
every plane, on carriage returns, which every plane keeps, and on a file
that is not UTF-8, whose decode error must read the same on every plane.
The pure tokenizer is not a CLI plane (the backend is the
tokenizer's own choice), so its events are fed to the pipeline driver
in-process and compared with the default plane's answer.
"""

import io
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
from repro.transform import parse_transformation
from repro.xmlmodel import iter_events, parse_document
from repro.xmlmodel.parser import XMLSyntaxError

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

#: The ``check-doc`` planes that must agree byte for byte.
CHECK_PLANES = {
    "default": [],
    "dom": ["--dom"],
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


class TestCheckDocPlanesAgree:
    def test_reports_and_exit_codes_are_identical(self, corpus, capsys):
        base = ["check-doc", "--keys", corpus["keys"], "--xml", corpus["doc"]]
        results = {
            name: _run(base + _argv(args, corpus), capsys)
            for name, args in CHECK_PLANES.items()
        }
        code, out, err = results["dom"]
        assert code == 1 and "key violated" in out and err == ""
        for name, result in results.items():
            assert result == (code, out, err), name


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
    def test_streaming_sharded_and_dom_rows_are_identical(self, corpus, capsys):
        base = [
            "shred", "--transform", corpus["rules"], "--xml", corpus["doc"],
            "--sql", "--copy",
        ]
        dom = _run(base, capsys)
        assert dom[0] == 0 and "COPY" in dom[1] and dom[2] == ""
        assert _run(base + ["--stream"], capsys) == dom
        assert _run(base + ["--jobs", "2"], capsys) == dom


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
        return 2, "", f"error: {caught.value}\n"

    @pytest.mark.parametrize(
        "plane",
        [[], ["--dom"], ["--jobs", "2"]],
        ids=["default", "dom", "jobs2"],
    )
    def test_check_doc_reports_the_serial_error(self, ill_formed, expected, plane, capsys):
        argv = ["check-doc", "--keys", ill_formed["keys"], "--xml", ill_formed["doc"]]
        assert _run(argv + _argv(plane, ill_formed), capsys) == expected

    def test_pure_events_raise_the_serial_error(self, ill_formed, expected):
        keys = parse_keys(Path(ill_formed["keys"]).read_text())
        events = iter_events(Path(ill_formed["doc"]), engine="pure")
        with pytest.raises(XMLSyntaxError) as caught:
            run_pipeline(events, keys=keys)
        assert f"error: {caught.value}\n" == expected[2]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: a skipped subtree is not checked for "
        "well-formedness, so --prune accepts the ill-formed document",
    )
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
        base = ["check-doc", "--keys", crlf["keys"], "--xml", crlf["doc"]]
        serial = _run(base, capsys)
        assert serial[0] == 0 and serial[2] == ""
        assert _run(base + ["--dom"], capsys) == serial
        assert _run(base + ["--jobs", "2"], capsys) == serial

    def test_shred_planes_keep_carriage_returns(self, crlf, capsys):
        base = ["shred", "--transform", crlf["rules"], "--xml", crlf["doc"], "--sql"]
        dom = _run(base, capsys)
        assert dom[0] == 0 and "'x\r\ny'" in dom[1]
        assert _run(base + ["--stream"], capsys) == dom
        assert _run(base + ["--jobs", "2"], capsys) == dom

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
    return paths, message


class TestNotUtf8Document:
    @pytest.mark.parametrize(
        "command",
        [
            ["check-doc", "--keys", "{keys}", "--xml", "{doc}"],
            ["check-doc", "--keys", "{keys}", "--xml", "{doc}", "--jobs", "2"],
            ["check-doc", "--keys", "{keys}", "--xml", "{doc}", "--dom"],
            [
                "check-doc", "--keys", "{keys}", "--xml", "{doc}",
                "--dtd", "{dtd}", "--prune",
            ],
            ["shred", "--transform", "{rules}", "--xml", "{doc}", "--stream"],
        ],
        ids=["check-doc", "check-doc-jobs2", "check-doc-dom", "check-doc-prune", "shred-stream"],
    )
    def test_every_plane_reports_the_decode_error(self, not_utf8, command, capsys):
        paths, message = not_utf8
        assert _run(_argv(command, paths), capsys) == (2, "", message)

    def test_load_reports_the_decode_error_and_loads_nothing(self, not_utf8, capsys):
        paths, message = not_utf8
        argv = _argv(["load", "--transform", "{rules}", "--xml", "{doc}", "--db", "{db}"], paths)
        assert _run(argv, capsys) == (2, "", message)
        connection = sqlite3.connect(paths["db"])
        try:
            tables = connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
            rows = sum(
                connection.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
                for (name,) in tables
            )
        finally:
            connection.close()
        assert rows == 0
