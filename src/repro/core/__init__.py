"""The paper's primary contribution: XML key propagation algorithms.

* ``propagation`` — Algorithm ``propagation`` (Fig. 5): is a given FD on a
  predefined relational view implied by the XML keys?
* ``minimum_cover`` — Algorithm ``minimumCover``: a polynomial-time minimum
  cover of *all* FDs propagated onto a universal relation.
* ``naive`` — Algorithm ``naive``: the exponential enumerate-and-test
  baseline.
* ``gminimum_cover`` — ``GminimumCover``: propagation checking by way of the
  minimum cover plus relational implication.
* ``checking`` — consistency checking of predefined designs (Example 1.1).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "propagation": (
            "PropagationResult",
            "attribute_field_pairs",
            "attribute_fields_of",
            "check_propagation",
            "propagated_fds",
        ),
        "minimum_cover": (
            "CandidateKey",
            "MinimumCoverResult",
            "minimum_cover_from_keys",
        ),
        "naive": ("TooManyFields", "naive_minimum_cover"),
        "gminimum_cover": ("gminimum_cover_check",),
        "checking": (
            "ConsistencyReport",
            "InstanceCheck",
            "KeyCheck",
            "check_instance",
            "check_schema_consistency",
        ),
    },
)

__all__ = [
    "PropagationResult",
    "attribute_field_pairs",
    "attribute_fields_of",
    "check_propagation",
    "propagated_fds",
    "CandidateKey",
    "MinimumCoverResult",
    "minimum_cover_from_keys",
    "TooManyFields",
    "naive_minimum_cover",
    "gminimum_cover_check",
    "ConsistencyReport",
    "InstanceCheck",
    "KeyCheck",
    "check_instance",
    "check_schema_consistency",
]
