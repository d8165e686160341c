"""Incremental constraint plane: subtree deltas over a live document.

See :mod:`repro.incremental.engine` for the delta model and
:mod:`repro.incremental.storage` for keeping a database in step.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "Delta",
            "DeltaReport",
            "IncrementalEngine",
            "delete",
            "insert",
            "replace",
        ),
        "storage": ("DeltaStore",),
    },
)

__all__ = [
    "Delta",
    "DeltaReport",
    "DeltaStore",
    "IncrementalEngine",
    "delete",
    "insert",
    "replace",
]
