"""End-to-end regression: the Figure 2(a) import failure, streaming edition.

Example 1.1 / Figure 2(a) of the paper: the consumer shreds the document of
Figure 1 into a ``Chapter(bookTitle, chapterNum, chapterName)`` table whose
declared key is ``(bookTitle, chapterNum)`` — and the import fails, because
two books are both titled ``XML`` and both have a chapter number 1.  The
refined design keyed on ``(isbn, chapterNum)`` loads cleanly.

This suite pins that reproduction end-to-end through the *streaming* data
plane: document text → event stream → streaming shredder → hash-grouped key
check → report (and the CLI front end on top), with the DOM pipeline as the
reference at every step.
"""

import io

import pytest

from repro.cli import main
from repro.experiments import paper_example as pe
from repro.keys.key import parse_key
from repro.keys.stream import stream_violations
from repro.relational.instance import RelationInstance
from repro.transform.evaluate import evaluate_transformation
from repro.transform.stream import iter_rule_rows, stream_evaluate_transformation
from repro.xmlmodel.parser import XMLSyntaxError
from repro.xmlmodel.serializer import serialize

from tests import dom_reference


@pytest.fixture(scope="module")
def figure1_text():
    return serialize(pe.figure1_document(), xml_declaration=True)


class TestFigure2aStreaming:
    def test_initial_design_fails_to_import(self, figure1_text):
        transformation, schema = pe.initial_chapter_design()
        instances = stream_evaluate_transformation(
            transformation, figure1_text, schema=schema
        )
        chapter = instances["Chapter"]
        assert not chapter.satisfies_key()
        found = chapter.key_violations()
        assert [violation.kind for violation in found] == ["value-conflict"]
        # The witness of Figure 2(a): two chapters number 1 of books titled
        # "XML", with different names.
        assert "'XML'" in found[0].detail and "'1'" in found[0].detail

    def test_streaming_instance_matches_dom_instance(self, figure1_text):
        transformation, schema = pe.initial_chapter_design()
        dom = evaluate_transformation(
            transformation, pe.figure1_document(), schema=schema
        )
        stream = stream_evaluate_transformation(transformation, figure1_text, schema=schema)
        assert set(dom["Chapter"].rows) == set(stream["Chapter"].rows)
        # Identical violation reports from identical instances.
        dom_report = [v.kind for v in dom["Chapter"].key_violations()]
        stream_report = [v.kind for v in stream["Chapter"].key_violations()]
        assert dom_report == stream_report == ["value-conflict"]

    def test_refined_design_imports_cleanly(self, figure1_text):
        transformation, schema = pe.refined_chapter_design()
        instances = stream_evaluate_transformation(
            transformation, figure1_text, schema=schema
        )
        assert instances["Chapter"].satisfies_key()
        assert len(instances["Chapter"]) == 3

    def test_cli_check_doc_streams_the_violation_report(self, tmp_path, capsys):
        # The XML-level counterpart: a document violating K2 reported through
        # `check-doc` (document → streaming violations → report).
        keys_file = tmp_path / "keys.txt"
        keys_file.write_text("K2 = (//book, (chapter, {@number}))\n")
        bad = tmp_path / "bad.xml"
        bad.write_text(
            '<r><book isbn="1"><chapter number="1"/><chapter number="1"/></book></r>'
        )
        code = main(["check-doc", "--keys", str(keys_file), "--xml", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "key violated" in captured.out and "duplicate-value" in captured.out
        # The DOM reference agrees verbatim.
        assert dom_reference.check_doc(keys_file, bad) == (code, captured.out, captured.err)

    def test_cli_shred_matches_the_dom_reference(self, tmp_path, capsys, figure1_text):
        transform_file = tmp_path / "rules.dsl"
        transform_file.write_text(
            "table Chapter\n"
            "  var ba <- xr : //book\n"
            "  var bt <- ba : title\n"
            "  var bc <- ba : chapter\n"
            "  var cn <- bc : @number\n"
            "  var cm <- bc : name\n"
            "  field bookTitle   = value(bt)\n"
            "  field chapterNum  = value(cn)\n"
            "  field chapterName = value(cm)\n"
        )
        xml_file = tmp_path / "figure1.xml"
        xml_file.write_text(figure1_text)
        dom = dom_reference.shred(transform_file, xml_file)
        assert dom[0] == 0
        argv = ["shred", "--transform", str(transform_file), "--xml", str(xml_file)]
        for plane in ([], ["--stream"]):
            code = main(argv + plane)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == dom, plane


class TestEmptyDocument:
    """No document is not a clean document: every empty source is the
    empty text, which has no root element."""

    @pytest.mark.parametrize(
        "make_source",
        [
            lambda: "",
            lambda: [""],
            lambda: io.StringIO(""),
            lambda: [],
            lambda: iter([]),
        ],
        ids=["string", "one-empty-chunk", "file-like", "empty-list", "empty-iterator"],
    )
    def test_empty_sources_have_no_root_element(self, make_source):
        key = parse_key("(//book, (chapter, {@number}))")
        rule = pe.initial_chapter_design()[0].rule("Chapter")
        with pytest.raises(XMLSyntaxError, match="expected a root element") as caught:
            stream_violations(make_source(), [key])
        assert caught.value.position == 0
        with pytest.raises(XMLSyntaxError, match="expected a root element") as caught:
            list(iter_rule_rows(rule, make_source()))
        assert caught.value.position == 0
