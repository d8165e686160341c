"""Differential properties for the fast key-implication oracle.

Three layers of agreement, each checked on ≥ 200 random examples:

1. **Containment vs. the recursive reference** — the iterative, cross-call
   memoised ``contains`` must answer exactly like the pre-optimisation
   per-call recursion of ``tests/xmlmodel/containment_reference.py``.

2. **Containment vs. a brute-force word oracle** — an independent decision
   procedure that *enumerates* the covered expression's language (every
   ``//`` expanded to all bounded-length element-label sequences over a
   small alphabet plus fresh labels) and checks each word against a naive
   word matcher for the covering expression.  For the ``{/, //}`` fragment
   a failed containment always has a short witness, so bounded enumeration
   decides these instances exactly.

3. **Engine vs. engine** — a warm (cached, indexed, containment-memoised)
   :class:`ImplicationEngine` must give the same ``implies`` and
   ``attributes_exist`` answers as a fresh engine and as the linear-scan
   reference engine of ``tests/keys/implication_reference.py`` (per-variant
   recursive containment, no indexes, no memoised ``contains``) over random
   query streams.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.paper_example import paper_keys
from repro.keys.implication import ImplicationEngine
from repro.keys.key import XMLKey
from repro.xmlmodel.paths import StepKind, contains

from tests.keys.implication_reference import LinearScanImplicationEngine
from tests.property.strategies import path_expressions
from tests.xmlmodel.containment_reference import (
    containment_recursive,
    reference_containment,
)
import pytest

# Hypothesis suites run in their own CI job (see .github/workflows/ci.yml).
pytestmark = pytest.mark.slow

differential_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# 1. Iterative/memoised containment vs. the recursive reference
# ----------------------------------------------------------------------
class TestContainmentMatchesRecursiveReference:
    @differential_settings
    @given(path_expressions(), path_expressions())
    def test_same_verdicts(self, covering, covered):
        expected = containment_recursive(covered.steps, covering.steps)
        assert contains(covering, covered) == expected
        # A second probe answers from the memo table; it must not drift.
        assert contains(covering, covered) == expected

    @differential_settings
    @given(path_expressions(), path_expressions())
    def test_reference_mode_agrees_and_restores(self, covering, covered):
        from repro.xmlmodel import paths

        fast = contains(covering, covered)
        with reference_containment():
            assert paths.contains(covering, covered) == fast
        assert paths.contains is contains
        assert contains(covering, covered) == fast


# ----------------------------------------------------------------------
# 2. Containment vs. brute-force language enumeration
# ----------------------------------------------------------------------
#: Expansion alphabet: the two element labels the strategies use plus two
#: fresh labels never occurring in any generated expression (containment
#: over an unbounded alphabet must survive labels it has never seen).
_ALPHABET = ("a", "b", "f1", "f2")
_MAX_GAP = 3


def _word_matches(steps, word):
    """Naive, independent membership test: ``word ∈ L(steps)``.

    ``word`` is a tuple of concrete labels (attribute labels carry ``@``).
    A ``//`` step absorbs any run of *element* labels, mirroring the XML
    data model restriction of the containment procedure.
    """
    if not steps:
        return not word
    head, rest = steps[0], steps[1:]
    if head.kind is StepKind.DESCENDANT:
        for absorb in range(len(word) + 1):
            if absorb > 0 and word[absorb - 1].startswith("@"):
                break
            if _word_matches(rest, word[absorb:]):
                return True
        return False
    if not word:
        return False
    return word[0] == head.text and _word_matches(rest, word[1:])


def _bounded_language(steps):
    """All words of ``L(steps)`` with every ``//`` expanded to ≤ _MAX_GAP labels."""
    if not steps:
        yield ()
        return
    head, rest = steps[0], steps[1:]
    if head.kind is StepKind.DESCENDANT:
        for tail in _bounded_language(rest):
            for gap_length in range(_MAX_GAP + 1):
                for gap in itertools.product(_ALPHABET, repeat=gap_length):
                    yield gap + tail
    else:
        for tail in _bounded_language(rest):
            yield (head.text,) + tail


def _small_paths(max_size=4, max_descendants=2):
    return path_expressions(max_size=max_size).filter(
        lambda path: sum(
            1 for step in path.steps if step.kind is StepKind.DESCENDANT
        )
        <= max_descendants
    )


class TestContainmentMatchesBruteForce:
    @differential_settings
    @given(_small_paths(), _small_paths())
    def test_same_verdicts_as_enumeration(self, covering, covered):
        brute = all(
            _word_matches(covering.steps, word)
            for word in _bounded_language(covered.steps)
        )
        assert contains(covering, covered) == brute

    @differential_settings
    @given(_small_paths())
    def test_enumerated_words_belong_to_their_language(self, path):
        for word in itertools.islice(_bounded_language(path.steps), 200):
            assert _word_matches(path.steps, word)


# ----------------------------------------------------------------------
# 3. Warm/indexed engine vs. fresh and reference engines
# ----------------------------------------------------------------------
PAPER_KEYS = paper_keys()
WARM_ENGINE = ImplicationEngine(PAPER_KEYS)

_ATTRIBUTE_POOL = [(), ("isbn",), ("number",), ("isbn", "number"), ("other",)]


def _queries(contexts, targets):
    return st.lists(
        st.builds(
            XMLKey,
            st.sampled_from(contexts),
            st.sampled_from(targets),
            st.sampled_from(_ATTRIBUTE_POOL),
        ),
        min_size=1,
        max_size=8,
    )


_PAPER_CONTEXTS = [".", "//book", "//book/chapter", "r/book", "//book/author"]
_PAPER_TARGETS = [
    ".",
    "//book",
    "book",
    "chapter",
    "title",
    "author/contact",
    "chapter/section",
    "@isbn",
    "@number",
]


class TestWarmEngineMatchesFreshAndReference:
    @differential_settings
    @given(_queries(_PAPER_CONTEXTS, _PAPER_TARGETS))
    def test_implies_stream_agreement(self, queries):
        fresh = ImplicationEngine(PAPER_KEYS)
        reference = LinearScanImplicationEngine(PAPER_KEYS)
        reference_answers = [reference.implies(query) for query in queries]
        warm_answers = [WARM_ENGINE.implies(query) for query in queries]
        fresh_answers = [fresh.implies(query) for query in queries]
        assert warm_answers == fresh_answers == reference_answers
        # Replay against the now fully-memoised engines: pure cache reads.
        assert [WARM_ENGINE.implies(query) for query in queries] == warm_answers
        assert [fresh.implies(query) for query in queries] == fresh_answers

    @differential_settings
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["//book", "//book/chapter", "//book/chapter/section", "title"]),
                st.sampled_from([("isbn",), ("number",), ("isbn", "number"), ("other",)]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_attributes_exist_stream_agreement(self, probes):
        fresh = ImplicationEngine(PAPER_KEYS)
        reference = LinearScanImplicationEngine(PAPER_KEYS)
        reference_answers = [
            reference.attributes_exist(path, attrs) for path, attrs in probes
        ]
        warm_answers = [WARM_ENGINE.attributes_exist(path, attrs) for path, attrs in probes]
        fresh_answers = [fresh.attributes_exist(path, attrs) for path, attrs in probes]
        assert warm_answers == fresh_answers == reference_answers

    @differential_settings
    @given(
        st.lists(
            st.builds(
                XMLKey,
                path_expressions(max_size=3),
                path_expressions(max_size=3),
                st.sets(st.sampled_from(["x", "y", "isbn"]), max_size=2).map(frozenset),
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.builds(
                XMLKey,
                path_expressions(max_size=3),
                path_expressions(max_size=3),
                st.sets(st.sampled_from(["x", "y", "isbn"]), max_size=2).map(frozenset),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_random_key_sets_agree_with_reference(self, keys, queries):
        indexed = ImplicationEngine(keys)
        reference = LinearScanImplicationEngine(keys)
        reference_answers = [reference.implies(query) for query in queries]
        assert [indexed.implies(query) for query in queries] == reference_answers
