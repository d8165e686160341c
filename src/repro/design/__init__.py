"""Design refinement workflows built on top of key propagation."""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "refine": (
            "DesignResult",
            "design_from_scratch",
            "restrict_rule",
            "validate_existing_design",
        ),
    },
)

__all__ = [
    "DesignResult",
    "design_from_scratch",
    "restrict_rule",
    "validate_existing_design",
]
