"""Relational substrate: schemas, instances with nulls, FDs and normalization.

The consumer side of the paper is a relational database.  This package
implements everything the propagation algorithms and the design workflow
need:

* relation and database schemas (``schema``);
* instances with a typed ``NULL`` and the paper's FD-with-nulls semantics
  (``instance``);
* functional dependencies, Armstrong closure, implication, covers and the
  ``minimize`` routine of Section 5 (``fd``);
* candidate keys, BCNF / 3NF decomposition (``normalization``).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "schema": ("DatabaseSchema", "RelationSchema"),
        "instance": (
            "NULL",
            "FDViolation",
            "FDViolationAccumulator",
            "NullType",
            "RelationInstance",
            "Row",
        ),
        "bitset": ("AttributeUniverse", "BitFDSet"),
        "fd": (
            "FDSet",
            "FunctionalDependency",
            "attribute_closure",
            "equivalent",
            "implies_fd",
            "minimize",
            "minimum_cover",
        ),
        "normalization": (
            "bcnf_decompose",
            "candidate_keys",
            "is_bcnf",
            "is_3nf",
            "project_fds",
            "synthesize_3nf",
        ),
    },
)

__all__ = [
    "AttributeUniverse",
    "BitFDSet",
    "DatabaseSchema",
    "RelationSchema",
    "NULL",
    "NullType",
    "FDViolation",
    "FDViolationAccumulator",
    "RelationInstance",
    "Row",
    "FDSet",
    "FunctionalDependency",
    "attribute_closure",
    "equivalent",
    "implies_fd",
    "minimize",
    "minimum_cover",
    "bcnf_decompose",
    "candidate_keys",
    "is_bcnf",
    "is_3nf",
    "project_fds",
    "synthesize_3nf",
]
