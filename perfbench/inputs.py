"""Seeded inputs for the four workloads.

Everything the system under test receives is generated here, from the
workload seed alone, and written as plain files (documents, key files,
transformation DSL, DTD) or sent as wire frames (uploads).  The same
seed always gives byte-identical inputs.  Generation runs before any
timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.generators import generate_workload
from repro.experiments.scenarios import (
    MONDIAL_DTD,
    mondial_shaped_chunks,
    synthesize_document_chunks,
    synthesized_node_count,
)
from repro.transform.dsl import render_transformation
from repro.transform.rule import Transformation

#: Default seeds: 2 reproduces the sharding gate document of
#: ``benchmarks/bench_parallel.py``, 0 the Fig. 7 schema workloads.
DEFAULT_SEEDS = {"gate-doc": 2, "mondial-doc": 0, "edit-stream": 2, "schema-design": 0}

#: The sharding gate document's shape.
GATE = dict(num_fields=20, depth=4, num_keys=24, fanout=4, top_level_repeat=30)
#: The Mondial-shaped document (the static/obs gate size).
MONDIAL = dict(countries=1450, provinces=4, cities=5, organizations=60)
MONDIAL_KEYS = ("(., (//country, {@car_code}))", "(., (//organization, {@abbrev}))")
#: ``repro cover`` input (Fig. 7a scale) and ``repro design`` input.
COVER = dict(num_fields=2000, depth=5, num_keys=100)
DESIGN = dict(num_fields=11, depth=5, num_keys=8)
#: Upload documents: items per document, and one upload in this many
#: carries a duplicate key.
UPLOAD_ITEMS = 110
UPLOAD_DUPLICATE_EVERY = 10

#: Smoke size: the same shapes, scaled down (for the benchmark's own tests).
SMOKE = {
    "gate": dict(GATE, top_level_repeat=3),
    "mondial": dict(MONDIAL, countries=120, organizations=10),
    "cover": dict(COVER, num_fields=200, num_keys=20),
    "design": dict(DESIGN, num_fields=8, num_keys=6),
}


def gate_duplicate_every(seed: int) -> int:
    """Every Nth spine element collides with its sibling; 211 at seed 2."""
    return 190 + (seed + 19) % 41


@dataclass
class DocumentInputs:
    """A document plus the key/rule/DTD files the commands read."""

    xml: Path
    keys: Path
    text: str
    transform: Optional[Path] = None
    dtd: Optional[Path] = None
    #: Top-level subtrees (gate document only), for delta fragments.
    subtrees: List[str] = field(default_factory=list)
    header: str = ""
    footer: str = ""
    sizes: Dict[str, int] = field(default_factory=dict)


def _split_top_level(text: str, tag: str) -> Tuple[str, List[str], str]:
    """Cut ``<root><tag …>…</tag>…</root>`` into header, subtrees, footer.

    ``tag`` never nests inside itself in the generated documents, so each
    subtree runs from ``<tag `` to the next ``</tag>``.
    """
    opener, closer = f"<{tag} ", f"</{tag}>"
    first = text.index(opener)
    pieces = []
    pos = first
    while True:
        end = text.index(closer, pos) + len(closer)
        pieces.append(text[pos:end])
        if not text.startswith(opener, end):
            return text[:first], pieces, text[end:]
        pos = end


def gate_inputs(seed: int, directory: Path, smoke: bool = False) -> DocumentInputs:
    shape = SMOKE["gate"] if smoke else GATE
    workload = generate_workload(
        shape["num_fields"], depth=shape["depth"], num_keys=shape["num_keys"], seed=seed
    )
    text = "".join(
        synthesize_document_chunks(
            workload,
            fanout=shape["fanout"],
            top_level_repeat=shape["top_level_repeat"],
            duplicate_every=gate_duplicate_every(seed),
        )
    )
    header, subtrees, footer = _split_top_level(text, workload.level_tags[0])
    key_texts = [key.text for key in workload.keys]
    inputs = DocumentInputs(
        xml=directory / "gate.xml",
        keys=directory / "gate.keys",
        transform=directory / "gate.dsl",
        text=text,
        subtrees=subtrees,
        header=header,
        footer=footer,
    )
    inputs.xml.write_text(text, encoding="ascii")
    inputs.keys.write_text("\n".join(key_texts) + "\n", encoding="ascii")
    inputs.transform.write_text(
        render_transformation(Transformation([workload.rule])) + "\n", encoding="ascii"
    )
    inputs.sizes = {
        "nodes": synthesized_node_count(
            workload, fanout=shape["fanout"], top_level_repeat=shape["top_level_repeat"]
        ),
        "bytes": len(text),
        "keys": len(key_texts),
        "fields": len(workload.fields),
        "subtrees": len(subtrees),
        "duplicate_every": gate_duplicate_every(seed),
    }
    return inputs


def mondial_inputs(seed: int, directory: Path, smoke: bool = False) -> DocumentInputs:
    """The Mondial-shaped document with seeded duplicate ``car_code`` and
    ``abbrev`` values (so the key checks have violations to find)."""
    shape = SMOKE["mondial"] if smoke else MONDIAL
    text = "".join(mondial_shaped_chunks(**shape))
    rng = random.Random(seed)
    countries, organizations = shape["countries"], shape["organizations"]
    injected = 0
    for _ in range(6 + seed % 5):
        victim, twin = rng.sample(range(countries), 2)
        old, new = f'car_code="C{victim}"', f'car_code="C{twin}"'
        if old in text:
            text = text.replace(old, new, 1)
            injected += 1
    victim, twin = rng.sample(range(organizations), 2)
    text = text.replace(f'abbrev="ORG{victim}"', f'abbrev="ORG{twin}"', 1)
    inputs = DocumentInputs(
        xml=directory / "mondial.xml",
        keys=directory / "mondial.keys",
        dtd=directory / "mondial.dtd",
        text=text,
    )
    inputs.xml.write_text(text, encoding="ascii")
    inputs.keys.write_text("\n".join(MONDIAL_KEYS) + "\n", encoding="ascii")
    inputs.dtd.write_text(MONDIAL_DTD + "\n", encoding="ascii")
    inputs.sizes = {
        "bytes": len(text),
        "keys": len(MONDIAL_KEYS),
        "countries": countries,
        "organizations": organizations,
        "injected_duplicates": injected + 1,
    }
    return inputs


@dataclass
class SchemaInputs:
    """One ``cover`` or ``design`` problem: a key file and a DSL file."""

    keys: Path
    transform: Path
    sizes: Dict[str, int]


def _schema_problem(name: str, shape: Dict, seed: int, directory: Path) -> SchemaInputs:
    """Render a generated universal relation; the seed also shuffles the
    order of the key lines and of the ``field`` lines (the problem itself
    is order-independent, the input text is not)."""
    workload = generate_workload(
        shape["num_fields"], depth=shape["depth"], num_keys=shape["num_keys"], seed=seed
    )
    rng = random.Random(seed)
    rule = workload.rule
    lines = [f"table {rule.relation}"]
    lines += [f"  var {m.variable} <- {m.source} : {m.path.text}" for m in rule.mappings]
    fields = [f"  field {f.field} = value({f.variable})" for f in rule.fields]
    rng.shuffle(fields)
    key_lines = [key.text for key in workload.keys]
    rng.shuffle(key_lines)
    inputs = SchemaInputs(
        keys=directory / f"{name}.keys",
        transform=directory / f"{name}.dsl",
        sizes={"fields": len(workload.fields), "keys": len(key_lines), "depth": shape["depth"]},
    )
    inputs.keys.write_text("\n".join(key_lines) + "\n", encoding="ascii")
    inputs.transform.write_text("\n".join(lines + fields) + "\n", encoding="ascii")
    return inputs


def schema_inputs(seed: int, directory: Path, smoke: bool = False) -> Tuple[SchemaInputs, SchemaInputs]:
    cover = SMOKE["cover"] if smoke else COVER
    design = SMOKE["design"] if smoke else DESIGN
    return (
        _schema_problem("cover", cover, seed, directory),
        _schema_problem("design", design, seed, directory),
    )


# ----------------------------------------------------------------------
# Upload frames
# ----------------------------------------------------------------------
UPLOAD_TENANT = "bench"
UPLOAD_RULE = {
    "relation": "item",
    "fields": {"id": "vid", "v": "vv"},
    "mappings": [["vi", "xr", "//item"], ["vid", "vi", "@id"], ["vv", "vi", "v"]],
}
UPLOAD_SCHEMA = {"name": "item", "attributes": ["id", "v"], "keys": [["id"]]}


@dataclass
class Upload:
    text: str
    items: int
    #: The row strict mode must reject, or ``None`` for a clean upload.
    injected: Optional[Dict[str, str]]


class UploadSource:
    """Seeded ~5 KB upload documents; one in ten carries a duplicate id."""

    def __init__(self, seed: int, items: int = UPLOAD_ITEMS) -> None:
        self.seed = seed
        self.items = items
        self.rng = random.Random(seed * 7919 + 17)
        self.offset = self.rng.randrange(UPLOAD_DUPLICATE_EVERY)
        self.count = 0

    def next(self) -> Upload:
        n = self.count
        self.count += 1
        rng = self.rng
        ids = [f"s{self.seed}u{n}i{j}" for j in range(self.items)]
        values = [f"v{rng.randrange(10**9):09d}" for _ in range(self.items)]
        injected = None
        if n % UPLOAD_DUPLICATE_EVERY == self.offset:
            first, second = sorted(rng.sample(range(self.items), 2))
            ids[second] = ids[first]
            injected = {"id": ids[second], "v": values[second]}
        body = "".join(
            f'<item id="{i}"><v>{v}</v></item>' for i, v in zip(ids, values)
        )
        return Upload(f"<batch>{body}</batch>", self.items, injected)
