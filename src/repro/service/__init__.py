"""The service plane: a long-lived ingestion front-end over the storage plane.

One process, many documents, many tenants: the service owns a backend
pool, a per-tenant registry of transformations + compiled DDL plans, and
an asyncio ingestion pipeline (bounded queue → worker tasks → transactional
loads).  The paper's pipeline stays untouched — the service is plumbing
that feeds :class:`~repro.storage.loader.BulkLoader` and reads
:class:`~repro.storage.verify.SQLVerifier`, so every guarantee the storage
plane proves (savepoint atomicity, witness-identical verification) holds
per uploaded document here too.

* :mod:`repro.service.registry` — tenants, their table rules and DDL
  plans, and the JSON wire codecs for both;
* :mod:`repro.service.server` — :class:`IngestionService` (embeddable,
  asyncio) and the NDJSON-over-TCP front door (``repro serve``).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "registry": (
            "SchemaRegistry",
            "TenantConfig",
            "rule_from_wire",
            "rule_to_wire",
            "schema_from_wire",
            "schema_to_wire",
        ),
        "server": ("IngestionService",),
    },
)

__all__ = [
    "IngestionService",
    "SchemaRegistry",
    "TenantConfig",
    "rule_from_wire",
    "rule_to_wire",
    "schema_from_wire",
    "schema_to_wire",
]
