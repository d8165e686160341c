"""The running example of the paper, as reusable objects.

Everything the worked examples of the paper use is constructed here once and
shared by the example scripts, the integration tests and the documentation:

* :func:`figure1_document` — the XML tree of Figure 1 (two ``book`` elements,
  chapters, sections, one author with contact information);
* :func:`paper_keys` — the keys :math:`K_1 … K_7` of Example 2.1;
* :func:`paper_transformation` — the transformation of Example 2.4
  (``book`` / ``chapter`` / ``section`` rules);
* :func:`universal_relation` — the universal relation ``U`` of Example 3.1;
* :func:`initial_chapter_design` / :func:`refined_chapter_design` — the two
  consumer designs of Example 1.1 / Figure 2;
* :data:`EXPECTED_MINIMUM_COVER` — the four FDs the paper derives for ``U``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.keys.key import XMLKey, parse_keys
from repro.relational.fd import FunctionalDependency
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.transform.dsl import parse_transformation
from repro.transform.rule import TableRule, Transformation
from repro.transform.universal import UniversalRelation
from repro.xmlmodel.builder import document, element, text
from repro.xmlmodel.tree import XMLTree


# ----------------------------------------------------------------------
# Figure 1 — the XML document
# ----------------------------------------------------------------------
def figure1_document() -> XMLTree:
    """The tree of Figure 1 (two books titled "XML", isbn 123 and 234)."""
    book1 = element(
        "book",
        {"isbn": "123"},
        element(
            "author",
            element("name", text("Tim Bray")),
            element("contact", text("tbray@example.org")),
        ),
        element("title", text("XML")),
        element(
            "chapter",
            {"number": "1"},
            element("name", text("Introduction")),
            element("section", {"number": "1"}, element("name", text("Fundamentals"))),
            element("section", {"number": "2"}, element("name", text("Attributes"))),
        ),
        element(
            "chapter",
            {"number": "10"},
            element("name", text("Conclusion")),
        ),
    )
    book2 = element(
        "book",
        {"isbn": "234"},
        element("title", text("XML")),
        element(
            "chapter",
            {"number": "1"},
            element("name", text("Getting Acquainted")),
        ),
    )
    return document(element("r", book1, book2))


# ----------------------------------------------------------------------
# Example 2.1 — the XML keys K1 … K7
# ----------------------------------------------------------------------
_PAPER_KEYS_TEXT = """
K1 = (., (//book, {@isbn}))
K2 = (//book, (chapter, {@number}))
K3 = (//book, (title, {}))
K4 = (//book/chapter, (name, {}))
K5 = (//book/chapter/section, (name, {}))
K6 = (//book/chapter, (section, {@number}))
K7 = (//book, (author/contact, {}))
"""


def paper_keys() -> List[XMLKey]:
    """The keys of Example 2.1 (K1–K7)."""
    return parse_keys(_PAPER_KEYS_TEXT)


# ----------------------------------------------------------------------
# Example 2.4 — the transformation σ = (Rule(book), Rule(chapter), Rule(section))
# ----------------------------------------------------------------------
_PAPER_TRANSFORMATION_DSL = """
table book
  var xa <- xr : //book
  var x1 <- xa : @isbn
  var x2 <- xa : title
  var xb <- xa : author
  var x3 <- xb : name
  var x4 <- xb : contact
  field isbn    = value(x1)
  field title   = value(x2)
  field author  = value(x3)
  field contact = value(x4)

table chapter
  var ya <- xr : //book
  var y1 <- ya : @isbn
  var yc <- ya : chapter
  var y2 <- yc : @number
  var y3 <- yc : name
  field inBook = value(y1)
  field number = value(y2)
  field name   = value(y3)

table section
  var zc <- xr : //book/chapter
  var z1 <- zc : @number
  var zs <- zc : section
  var z2 <- zs : @number
  var z3 <- zs : name
  field inChapt = value(z1)
  field number  = value(z2)
  field name    = value(z3)
"""


def paper_transformation() -> Transformation:
    """The transformation of Example 2.4."""
    return parse_transformation(_PAPER_TRANSFORMATION_DSL, name="sigma")


def paper_schema() -> DatabaseSchema:
    """The relational schema R of Example 2.4, with its declared keys."""
    return DatabaseSchema(
        [
            RelationSchema("book", ["isbn", "title", "author", "contact"], keys=[{"isbn"}]),
            RelationSchema("chapter", ["inBook", "number", "name"], keys=[{"inBook", "number"}]),
            RelationSchema(
                "section", ["inChapt", "number", "name"], keys=[{"inChapt", "number"}]
            ),
        ],
        name="R",
    )


# ----------------------------------------------------------------------
# Example 3.1 — the universal relation U
# ----------------------------------------------------------------------
_UNIVERSAL_DSL = """
universal U
  var xb <- xr : //book
  var x1 <- xb : @isbn
  var x2 <- xb : title
  var xg <- xb : author
  var x3 <- xg : name
  var x4 <- xg : contact
  var yc <- xb : chapter
  var y1 <- yc : @number
  var y2 <- yc : name
  var zs <- yc : section
  var z1 <- zs : @number
  var z2 <- zs : name
  field bookIsbn    = value(x1)
  field bookTitle   = value(x2)
  field bookAuthor  = value(x3)
  field authContact = value(x4)
  field chapNum     = value(y1)
  field chapName    = value(y2)
  field secNum      = value(z1)
  field secName     = value(z2)
"""


def universal_relation() -> UniversalRelation:
    """The universal relation U of Example 3.1 with its table rule."""
    transformation = parse_transformation(_UNIVERSAL_DSL, name="universal")
    return UniversalRelation(transformation.rule("U"))


#: The minimum cover the paper derives for U (Example 3.1).
EXPECTED_MINIMUM_COVER: Tuple[FunctionalDependency, ...] = (
    FunctionalDependency({"bookIsbn"}, {"bookTitle"}),
    FunctionalDependency({"bookIsbn"}, {"authContact"}),
    FunctionalDependency({"bookIsbn", "chapNum"}, {"chapName"}),
    FunctionalDependency({"bookIsbn", "chapNum", "secNum"}, {"secName"}),
)


# ----------------------------------------------------------------------
# Example 1.1 / Figure 2 — the consumer's Chapter designs
# ----------------------------------------------------------------------
_INITIAL_DESIGN_DSL = """
table Chapter
  var ba <- xr : //book
  var bt <- ba : title
  var bc <- ba : chapter
  var cn <- bc : @number
  var cm <- bc : name
  field bookTitle   = value(bt)
  field chapterNum  = value(cn)
  field chapterName = value(cm)
"""

_REFINED_DESIGN_DSL = """
table Chapter
  var ba <- xr : //book
  var bi <- ba : @isbn
  var bc <- ba : chapter
  var cn <- bc : @number
  var cm <- bc : name
  field isbn        = value(bi)
  field chapterNum  = value(cn)
  field chapterName = value(cm)
"""


def initial_chapter_design() -> Tuple[Transformation, DatabaseSchema]:
    """The initial design of Example 1.1: key (bookTitle, chapterNum)."""
    transformation = parse_transformation(_INITIAL_DESIGN_DSL, name="initial")
    schema = DatabaseSchema(
        [
            RelationSchema(
                "Chapter",
                ["bookTitle", "chapterNum", "chapterName"],
                keys=[{"bookTitle", "chapterNum"}],
            )
        ],
        name="initial",
    )
    return transformation, schema


def refined_chapter_design() -> Tuple[Transformation, DatabaseSchema]:
    """The refined design of Example 1.1: key (isbn, chapterNum)."""
    transformation = parse_transformation(_REFINED_DESIGN_DSL, name="refined")
    schema = DatabaseSchema(
        [
            RelationSchema(
                "Chapter",
                ["isbn", "chapterNum", "chapterName"],
                keys=[{"isbn", "chapterNum"}],
            )
        ],
        name="refined",
    )
    return transformation, schema
