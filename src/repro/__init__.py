"""repro — a reproduction of *Propagating XML Constraints to Relations*.

(Davidson, Fan, Hara, Qin — ICDE 2003.)

The library answers two questions about storing XML data in relations:

1. **Is my existing relational design safe?**  Given the XML keys published
   with the data and the transformation used to shred it, is every declared
   relational key / FD *guaranteed* by the XML keys?
   → :func:`repro.core.check_propagation`,
     :func:`repro.core.check_schema_consistency`.

2. **What is a good relational design?**  Given a universal relation and the
   XML keys, compute a minimum cover of all propagated FDs and normalise.
   → :func:`repro.core.minimum_cover_from_keys`,
     :func:`repro.design.design_from_scratch`.

Everything the algorithms rely on — the XML tree model, the path language,
XML keys and their implication, the relational FD machinery and the
transformation (shredding) language — is implemented in the sub-packages
``xmlmodel``, ``keys``, ``relational`` and ``transform``.
"""

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__``/``__dir__`` pair (PEP 562) of a package
    whose public names live in its submodules.

    ``exports`` maps each submodule (relative to ``package``) to the names
    it provides; the submodule itself is an attribute of the package too,
    as it would be after an eager import.  Nothing is imported until a
    name is first read: then its submodule is imported and the value is
    cached in the package, so ``import repro.core`` costs only the package
    ``__init__`` and ``from repro.core import check_propagation`` only
    what that function's module imports.
    """
    table: Dict[str, Tuple[str, Optional[str]]] = {}
    for submodule, names in exports.items():
        table[submodule] = (f"{package}.{submodule}", None)
        for name in names:
            table[name] = (f"{package}.{submodule}", name)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            target, attribute = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(target)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "xmlmodel": (
            "XMLTree",
            "document",
            "element",
            "parse_document",
            "parse_path",
            "text",
        ),
        "keys": ("XMLKey", "parse_key", "parse_keys", "satisfies", "violations"),
        "relational": (
            "NULL",
            "DatabaseSchema",
            "FDSet",
            "FunctionalDependency",
            "RelationInstance",
            "RelationSchema",
        ),
        "transform": (
            "TableRule",
            "TableTree",
            "Transformation",
            "UniversalRelation",
            "evaluate_rule",
            "evaluate_transformation",
            "parse_transformation",
        ),
        "core": (
            "check_propagation",
            "check_schema_consistency",
            "gminimum_cover_check",
            "minimum_cover_from_keys",
            "naive_minimum_cover",
        ),
        "design": ("design_from_scratch",),
        "parallel": ("resolve_jobs", "run_sharded"),
    },
)

__all__ = [
    "XMLTree",
    "document",
    "element",
    "text",
    "parse_document",
    "parse_path",
    "XMLKey",
    "parse_key",
    "parse_keys",
    "satisfies",
    "violations",
    "NULL",
    "DatabaseSchema",
    "FDSet",
    "FunctionalDependency",
    "RelationInstance",
    "RelationSchema",
    "TableRule",
    "TableTree",
    "Transformation",
    "UniversalRelation",
    "evaluate_rule",
    "evaluate_transformation",
    "parse_transformation",
    "check_propagation",
    "check_schema_consistency",
    "gminimum_cover_check",
    "minimum_cover_from_keys",
    "naive_minimum_cover",
    "design_from_scratch",
    "resolve_jobs",
    "run_sharded",
    "__version__",
]
