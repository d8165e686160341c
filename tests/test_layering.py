"""Tokenizer settings stay in the tokenizer.

Which backend turns text into events, and whether whitespace-only text is
kept, are decisions of :mod:`repro.xmlmodel` alone: the planes above it
(driver, shard worker, checker, shredder, DTD validator, loader,
incremental engine, CLI) consume :class:`~repro.xmlmodel.events.Event`
streams and take neither setting.  A caller that needs a particular
backend composes ``iter_events(text, engine=...)`` into a plane.
"""

import importlib
import inspect
import pkgutil

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
from repro.xmlmodel.shards import DocumentShards, MappedDocumentShards

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
    MappedDocumentShards.shard_events,
    MappedDocumentShards.replay_events,
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
