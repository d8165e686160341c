"""XML keys: syntax, satisfaction and implication.

This package implements the key language :math:`K^@` of Section 2 of the
paper: keys of the form ``(C, (T, {@a1, ..., @ak}))`` where ``C`` (the
*context* path) and ``T`` (the *target* path) are expressions of the path
language and the key paths are simple attributes.  A key is *absolute* when
its context is the empty path and *relative* otherwise.

Modules
-------
``key``
    The :class:`XMLKey` value type plus a concise textual syntax.
``satisfaction``
    Checking ``T ⊨ key`` on documents (Definition 2.1) and reporting
    violations, used e.g. to reproduce the import failure of Figure 2(a).
``implication``
    A sound inference engine for ``Σ ⊨ φ`` together with the ``exist``
    attribute-existence test of Figure 5.
``transitive``
    Transitive key sets and keyed nodes (Section 4).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "key": ("XMLKey", "parse_key", "parse_keys"),
        "satisfaction": ("KeyViolation", "satisfies", "satisfies_all", "violations"),
        "stream": (
            "CheckerShardResult",
            "KeyStreamChecker",
            "merge_shard_results",
            "stream_satisfies",
            "stream_violations",
        ),
        "implication": ("ImplicationEngine", "attributes_exist", "implies"),
        "transitive": (
            "chain_to_root",
            "immediately_precedes",
            "is_transitive_set",
            "precedes",
        ),
    },
)

__all__ = [
    "XMLKey",
    "parse_key",
    "parse_keys",
    "KeyViolation",
    "satisfies",
    "satisfies_all",
    "violations",
    "KeyStreamChecker",
    "CheckerShardResult",
    "merge_shard_results",
    "stream_satisfies",
    "stream_violations",
    "ImplicationEngine",
    "attributes_exist",
    "implies",
    "chain_to_root",
    "immediately_precedes",
    "precedes",
    "is_transitive_set",
]
