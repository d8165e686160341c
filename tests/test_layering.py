"""Layering: tokenizer settings stay in the tokenizer, and a command
pays only for its plane.

Which backend turns text into events, and whether whitespace-only text is
kept, are decisions of :mod:`repro.xmlmodel` alone: the planes above it
(driver, shard worker, checker, shredder, DTD validator, loader,
incremental engine, CLI) consume :class:`~repro.xmlmodel.events.Event`
streams and take neither setting.  A caller that needs a particular
backend composes ``iter_events(text, engine=...)`` into a plane.

Every package re-exports its public names lazily (PEP 562) and the CLI
imports each command's plane inside its handler, so the algorithm layer
(core, design, implication) and the cover/design/check commands never
load the data planes.  Those probes run in a fresh interpreter, because
this process has imported everything already.

The package ships only what a command runs: test doubles (the in-process
PostgreSQL driver, the fault injector) live under ``tests/``, and no
``--backend`` name selects one.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.incremental.engine import IncrementalEngine
from repro.keys.stream import stream_satisfies, stream_violations
from repro.parallel import _ShardWorker, run_pipeline, run_sharded
from repro.storage.loader import BulkLoader
from repro.transform.stream import (
    StreamShredder,
    iter_rule_rows,
    stream_evaluate_rule,
    stream_evaluate_transformation,
)
from repro.xmlmodel.dtd import stream_dtd_violations
from repro.xmlmodel.events import as_events, iter_events
from repro.xmlmodel.matching import PathNFA
from repro.xmlmodel.shards import DocumentShards

#: Entry points of the planes: neither setting is a parameter of these.
PLANE_ENTRY_POINTS = [
    as_events,
    _ShardWorker,
    run_pipeline,
    run_sharded,
    stream_violations,
    stream_satisfies,
    iter_rule_rows,
    stream_evaluate_rule,
    StreamShredder.run,
    stream_evaluate_transformation,
    stream_dtd_violations,
    BulkLoader.load_document,
    BulkLoader.load_corpus,
    IncrementalEngine.__init__,
]

#: Shard replays live in xmlmodel and keep ``strip_whitespace`` (the
#: differential tests replay both whitespace modes), but not ``engine``.
SHARD_REPLAYS = [
    DocumentShards.shard_events,
    DocumentShards.replay_events,
]


def _name(entry):
    return getattr(entry, "__qualname__", repr(entry))


@pytest.mark.parametrize("entry", PLANE_ENTRY_POINTS, ids=_name)
def test_planes_take_no_tokenizer_settings(entry):
    parameters = inspect.signature(entry).parameters
    assert "engine" not in parameters
    assert "strip_whitespace" not in parameters


@pytest.mark.parametrize("entry", SHARD_REPLAYS, ids=_name)
def test_shard_replays_take_no_engine(entry):
    assert "engine" not in inspect.signature(entry).parameters


def test_one_shard_form():
    """Every sharded run replays text slices, whatever the source's
    encoding: the shard module defines one shard form, the tokenizer has
    no byte-fragment entry point, and the worker payload holds text."""
    from repro import xmlmodel
    from repro.xmlmodel import accel, shards

    def defined(module, kind):
        return {
            name
            for name, member in inspect.getmembers(module, kind)
            if member.__module__ == module.__name__
        }

    assert defined(shards, inspect.isclass) == {"DocumentShards", "ShardSlice"}
    assert "mmap" not in vars(shards)
    functions = defined(accel, inspect.isfunction)
    assert {name for name in functions if "fragment" in name} == set()
    assert {name for name in xmlmodel.__all__ if "shard" in name.lower()} == {
        "DocumentShards",
        "ShardSlice",
    }
    assert _ShardWorker.__dataclass_fields__["shards"].type == "DocumentShards"


def test_expat_is_fed_text_only():
    """The accelerated tokenizer reads paths as text through the shared
    reader: it maps no file and keeps no byte-level prolog skipper."""
    from repro.xmlmodel import accel

    assert "mmap" not in vars(accel)
    for name in ("_mapped_events", "_release_mapping", "_skip_bytes_prolog"):
        assert not hasattr(accel, name), name


def test_accel_takes_no_skip_set():
    """Only the string scanner elides subtrees: expat's entry points take
    no skip set, and the accelerated module never builds a SKIP event."""
    from repro.xmlmodel import accel

    for function in (accel._expat_segments, accel._expat_events, accel.accelerated_events):
        assert "skip" not in inspect.signature(function).parameters, function.__name__
    assert "SKIP" not in vars(accel)


def _loops_and_names(source):
    """The ``while``/``for`` statements and the names read in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.While, ast.For))]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return loops, names


def test_one_skip_route():
    """The string scanner skips an element by one exact match or not at
    all: its skip function walks no tags, the events module never asks the
    skip set about one label, and the skip set has no per-tag check."""
    from repro.xmlmodel import events
    from repro.xmlmodel.static import SkipSet

    loops, _ = _loops_and_names(inspect.getsource(events._skip_string_subtree))
    assert loops == []
    _, names = _loops_and_names(inspect.getsource(events))
    assert "verifies" not in names and "skippable" not in names
    loops, _ = _loops_and_names(inspect.getsource(SkipSet))
    assert loops == []
    for name in ("verifies", "skippable"):
        assert not hasattr(SkipSet, name), name


def test_static_plan_defines_no_automaton():
    """Every path match steps ``PathNFA``: the static plan reads its skip
    set off that automaton's states and tabulates no second one."""
    from repro.xmlmodel import static

    classes = {
        name
        for name, member in inspect.getmembers(static, inspect.isclass)
        if member.__module__ == static.__name__
    }
    assert classes == {"LabelGraph", "SkipSet", "StaticPlan"}
    _, names = _loops_and_names(inspect.getsource(static))
    names |= set(vars(static))
    for name in ("SpecializedNFA", "OTHER_LABEL", "advance"):
        assert name not in names, name
    assert static.PathNFA is PathNFA


@pytest.mark.parametrize("entry", [run_pipeline, run_sharded], ids=_name)
def test_pipeline_takes_no_executor(entry):
    assert "executor" not in inspect.signature(entry).parameters


def _functions_outside_xmlmodel():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.xmlmodel") or info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for _, member in inspect.getmembers(module):
            if getattr(member, "__module__", None) != info.name:
                continue
            if inspect.isfunction(member):
                yield member
            elif inspect.isclass(member):
                for _, method in inspect.getmembers(member, inspect.isfunction):
                    yield method


def test_no_function_outside_xmlmodel_takes_strip_whitespace():
    offenders = [
        f"{function.__module__}.{function.__qualname__}"
        for function in _functions_outside_xmlmodel()
        if "strip_whitespace" in inspect.signature(function).parameters
    ]
    assert offenders == []


def test_auto_is_not_a_spelling():
    with pytest.raises(ValueError, match="unknown tokenizer engine"):
        iter_events("<a/>", engine="auto")


def test_environment_does_not_pick_the_backend(monkeypatch):
    monkeypatch.setenv("REPRO_TOKENIZER", "pure")
    with obs.collect() as registry:
        list(iter_events("<a/>"))
    snapshot = registry.snapshot()
    assert snapshot.counter("tokenizer.calls", engine="auto") == 1
    assert snapshot.counter("tokenizer.calls", engine="pure") == 0


PACKAGES = [
    "repro",
    "repro.core",
    "repro.design",
    "repro.experiments",
    "repro.incremental",
    "repro.keys",
    "repro.obs",
    "repro.relational",
    "repro.service",
    "repro.storage",
    "repro.transform",
    "repro.xmlmodel",
]

#: Data-plane modules the algorithm layer must not load.
DATA_PLANE = {
    "repro.xmlmodel.events",
    "repro.xmlmodel.accel",
    "repro.xmlmodel.static",
    "repro.xmlmodel.shards",
    "repro.xmlmodel.parser",
    "repro.xmlmodel.dtd",
    "repro.keys.stream",
    "repro.transform.stream",
    "repro.parallel",
}


def _is_data_plane(module):
    return (
        module in DATA_PLANE
        or module.startswith(("repro.incremental", "repro.service"))
        or (module.startswith("repro.storage.") and module != "repro.storage.backend")
    )


def _run_fresh(script, *args, cwd=None):
    """Run ``script`` in a fresh interpreter; return its last stdout line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def _loaded_after(statements, cwd=None):
    """The ``repro`` modules a fresh interpreter holds after ``statements``."""
    script = statements + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    return json.loads(_run_fresh(script, cwd=cwd))


@pytest.mark.parametrize(
    "module",
    ["repro.core", "repro.relational", "repro.keys.implication", "repro.design"],
)
def test_algorithm_layer_imports_no_data_plane(module):
    loaded = _loaded_after(f"import {module}")
    assert module in loaded
    assert [name for name in loaded if _is_data_plane(name)] == []


@pytest.fixture()
def design_workspace(tmp_path):
    from repro.experiments import paper_example

    (tmp_path / "keys.txt").write_text(
        "\n".join(key.text for key in paper_example.paper_keys()) + "\n"
    )
    (tmp_path / "universal.dsl").write_text(paper_example._UNIVERSAL_DSL)
    return tmp_path


DESIGN_INPUTS = ["--keys", "keys.txt", "--transform", "universal.dsl", "--relation", "U"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", *DESIGN_INPUTS],
        ["design", "--sql", *DESIGN_INPUTS],
        ["check", "--fd", "bookIsbn, chapNum -> chapName", *DESIGN_INPUTS],
    ],
    ids=lambda argv: argv[0],
)
def test_algorithm_commands_import_no_data_plane(design_workspace, argv):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n",
        cwd=design_workspace,
    )
    assert "repro.core" in loaded
    assert [name for name in loaded if _is_data_plane(name)] == []


#: The DOM plane, and the design-validation check that loads it.
DOM_PLANE = ["repro.core.checking", "repro.transform.evaluate", "repro.xmlmodel.tree"]


@pytest.mark.parametrize(
    "argv",
    [["cover", *DESIGN_INPUTS], ["design", "--sql", *DESIGN_INPUTS]],
    ids=lambda argv: argv[0],
)
def test_schema_commands_load_no_dom_plane(design_workspace, argv):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n",
        cwd=design_workspace,
    )
    assert "repro.design" in loaded or argv[0] == "cover"
    assert [name for name in DOM_PLANE if name in loaded] == []


#: Runs the statements in ``sys.argv[1]`` in a fresh interpreter (serial
#: unless they ask for jobs) and prints, as one JSON object, which DOM
#: entry points ran and whether ``repro.transform.evaluate`` loaded.
DOM_CALL_PROBE = """
import contextlib, io, json, os, sys
os.environ.pop("REPRO_JOBS", None)
WATCHED = {"repro.xmlmodel.parser.parse_document", "repro.xmlmodel.dtd.DTD.validate"}
calls = set()
def profile(frame, event, arg):
    if event == "call":
        name = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"
        if name in WATCHED:
            calls.add(name)
from repro.cli import main
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
sys.setprofile(None)
print(json.dumps({
    "calls": sorted(calls),
    "evaluate": "repro.transform.evaluate" in sys.modules,
}))
"""


@pytest.fixture()
def document_workspace(tmp_path):
    files = {
        "doc.xml": '<r><i k="1"/><i k="2"/></r>',
        "keys.txt": "K = (., (//i, {@k}))\n",
        "rules.dsl": "table i\n  var a <- xr : //i\n  var k <- a : @k\n  field k = value(k)\n",
        "r.dtd": "<!ELEMENT r (i*)>\n<!ELEMENT i EMPTY>\n<!ATTLIST i k CDATA #REQUIRED>\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def _dom_calls(statements, cwd):
    return json.loads(_run_fresh(DOM_CALL_PROBE, statements, cwd=cwd))


def test_dom_call_probe_sees_the_dom_plane(document_workspace):
    report = _dom_calls(
        "from repro.transform import evaluate_transformation\n"
        "from repro.xmlmodel import parse_document\n"
        "from repro.xmlmodel.dtd import parse_dtd\n"
        "parse_dtd(open('r.dtd').read()).validate(parse_document(open('doc.xml').read()))\n",
        cwd=document_workspace,
    )
    assert report == {
        "calls": ["repro.xmlmodel.dtd.DTD.validate", "repro.xmlmodel.parser.parse_document"],
        "evaluate": True,
    }


SHRED = ["shred", "--transform", "rules.dsl", "--xml", "doc.xml"]
CHECK_DOC = ["check-doc", "--keys", "keys.txt", "--xml", "doc.xml"]


@pytest.mark.parametrize(
    "argv",
    [
        SHRED,
        SHRED + ["--keys", "keys.txt"],
        SHRED + ["--dtd", "r.dtd"],
        SHRED + ["--jobs", "2"],
        CHECK_DOC,
        CHECK_DOC + ["--dtd", "r.dtd"],
        CHECK_DOC + ["--dtd", "r.dtd", "--prune"],
        CHECK_DOC + ["--jobs", "2"],
    ],
    ids=lambda argv: " ".join([argv[0]] + [arg for arg in argv[5:] if arg.startswith("--")]),
)
def test_document_commands_run_no_dom_plane(document_workspace, argv):
    report = _dom_calls(f"assert main({argv!r}) == 0", cwd=document_workspace)
    assert report == {"calls": [], "evaluate": False}


def test_importing_the_cli_loads_no_plane():
    loaded = _loaded_after("import repro.cli")
    assert [
        name for name in loaded
        if name not in ("repro", "repro.cli") and not name.startswith("repro.obs")
    ] == []
    # Exposition loads with ``--stats`` or the service, not with the CLI.
    assert "repro.obs.render" not in loaded


#: Run with the package name as ``sys.argv[1]``; prints what is wrong with
#: its public surface as one JSON object.
PUBLIC_SURFACE_PROBE = """
import importlib, json, sys
name = sys.argv[1]
package = importlib.import_module(name)
public = list(package.__all__)
report = {"not_in_dir": sorted(set(public) - set(dir(package)))}
namespace = {}
exec(f"from {name} import *", namespace)
report["not_starred"] = [n for n in public if n not in namespace]
report["mismatched"] = [n for n in public if getattr(package, n) is not namespace.get(n)]
try:
    package.no_such_name
    report["unknown"] = "resolved"
except AttributeError:
    report["unknown"] = "AttributeError"
except RecursionError:
    report["unknown"] = "RecursionError"
print(json.dumps(report))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_public_surface_resolves(package):
    assert json.loads(_run_fresh(PUBLIC_SURFACE_PROBE, package)) == {
        "not_in_dir": [],
        "not_starred": [],
        "mismatched": [],
        "unknown": "AttributeError",
    }


def _src_trees():
    """``(path, syntax tree)`` of every module under ``src/repro``."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root), ast.parse(path.read_text(), filename=str(path))


def test_src_defines_no_fakes():
    fakes = [
        f"{path}:{node.name}"
        for path, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.startswith("Fake")
    ]
    assert fakes == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_nothing_from_tests():
    offenders = [
        f"{path}:{module}"
        for path, tree in _src_trees()
        for module in _imported_modules(tree)
        if module == "tests" or module.startswith("tests.")
    ]
    assert offenders == []


def test_only_real_engines_are_backend_names():
    from repro.storage import BACKEND_NAMES

    assert BACKEND_NAMES == ("sqlite", "postgres", "postgresql", "pg")


def test_setup_declares_the_package():
    root = Path(repro.__file__).parents[2]
    out = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        capture_output=True, text=True, cwd=root, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "repro"
    from setuptools import find_packages

    packages = find_packages(str(root / "src"))
    assert set(PACKAGES) <= set(packages)
    assert [name for name in packages if not name.startswith("repro")] == []
