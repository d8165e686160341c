"""Cross-plane robustness: every CLI plane gives the same answer.

``check-doc`` and ``shred`` reach the same document through several
planes — the DOM, the serial streaming pass, the sharded pass on worker
processes, the DTD-pruned pass, the pure tokenizer.  All of them are
promised to print byte-identical reports and exit codes.  This suite
holds them to it on the schema-shaped stress corpora of
:mod:`repro.experiments.scenarios` (entity-dense text, a DBLP-shaped
bibliography, deep recursive nesting) and on an ill-formed document,
whose syntax error must read the same on every plane.
"""

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
from repro.xmlmodel import parse_document
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
    "pure": ["--tokenizer", "pure"],
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
        [[], ["--dom"], ["--jobs", "2"], ["--tokenizer", "pure"],
         ["--jobs", "1", "--tokenizer", "pure", "--dtd", "{dtd}", "--prune"]],
        ids=["default", "dom", "jobs2", "pure", "prune-pure"],
    )
    def test_check_doc_reports_the_serial_error(self, ill_formed, expected, plane, capsys):
        argv = ["check-doc", "--keys", ill_formed["keys"], "--xml", ill_formed["doc"]]
        assert _run(argv + _argv(plane, ill_formed), capsys) == expected

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: a skipped subtree is not checked for "
        "well-formedness, so --prune accepts the ill-formed document",
    )
    @pytest.mark.parametrize(
        "plane",
        [["--jobs", "1", "--tokenizer", "auto"],
         ["--jobs", "2", "--tokenizer", "auto"],
         ["--jobs", "2", "--tokenizer", "pure"]],
        ids=["accel", "jobs2-accel", "jobs2-pure"],
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
