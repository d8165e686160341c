"""Relational substrate: schemas, instances with nulls, FDs and normalization.

The consumer side of the paper is a relational database.  This package
implements everything the propagation algorithms and the design workflow
need:

* relation and database schemas (``schema``);
* instances with a typed ``NULL`` and the paper's FD-with-nulls semantics
  (``instance``);
* functional dependencies, Armstrong closure, implication, covers and the
  ``minimize`` routine of Section 5 (``fd``);
* candidate keys, BCNF / 3NF decomposition (``normalization``);
* a small relational algebra (``algebra``) used to illustrate the boundary
  drawn by Theorem 3.1 (full relational algebra makes propagation
  undecidable) and for cross-checking instances in tests.
"""

from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.instance import (
    NULL,
    FDViolation,
    FDViolationAccumulator,
    NullType,
    RelationInstance,
    Row,
)
from repro.relational.bitset import AttributeUniverse, BitFDSet
from repro.relational.fd import (
    FDSet,
    FunctionalDependency,
    attribute_closure,
    equivalent,
    implies_fd,
    minimize,
    minimum_cover,
)
from repro.relational.normalization import (
    bcnf_decompose,
    candidate_keys,
    is_bcnf,
    is_3nf,
    project_fds,
    synthesize_3nf,
)
from repro.relational import algebra

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
    "algebra",
]
