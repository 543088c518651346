"""Shared corpus fixtures, session-scoped since generation is deterministic,
the helpers that make and check test-case specs, and the brute-force
counting oracle.

Scope fixtures are lists in family order; cluster_subsets numbers subsets
from 0, so ``scopes[subset.id]`` is that subset's scope.
"""

from __future__ import annotations

import json
from itertools import product

import pytest

from probsynth import (
    LOG10_SLACK,
    Fault,
    ProbabilityTable,
    TestCase,
    TestCaseSpec,
    build_scopes,
    cluster_subsets,
    evaluate,
    generate_zipf_corpus,
    random_program_corpus,
)
from probsynth.synth import _values_equal

# brute_force_count refuses anything bigger than this
_BRUTE_FORCE_MAX_ALPHABET = 8
_BRUTE_FORCE_MAX_SIZE = 8


def brute_force_count(table: ProbabilityTable, size: int, threshold: float) -> int:
    """Test oracle: full enumeration with no pruning, same admissibility rule.

    Guarded to alphabets of at most 8 instructions and sizes of at most 8.
    """
    if len(table.log10_probs) > _BRUTE_FORCE_MAX_ALPHABET or size > _BRUTE_FORCE_MAX_SIZE:
        raise ValueError(
            f"brute force guard: need alphabet <= {_BRUTE_FORCE_MAX_ALPHABET} and "
            f"size <= {_BRUTE_FORCE_MAX_SIZE}, got {len(table.log10_probs)} and {size}"
        )
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    logs = list(table.log10_probs.values())
    limit = threshold - LOG10_SLACK
    return sum(1 for candidate in product(logs, repeat=size) if sum(candidate) >= limit)


def cases_from_program(program, inputs_list) -> TestCaseSpec:
    """A spec whose expected outputs are a known program's results on the
    given inputs; raises ValueError if the program faults on any of them."""
    cases = []
    for inputs in inputs_list:
        result = evaluate(program, inputs)
        if isinstance(result, Fault):
            raise ValueError(f"program faults ({result.reason}) on inputs {inputs!r}")
        cases.append(TestCase(inputs=tuple(inputs), expected=result))
    return TestCaseSpec(cases=tuple(cases))


def satisfies(program, spec: TestCaseSpec) -> bool:
    """True when the program reproduces every case's expected output."""
    return all(_values_equal(evaluate(program, case.inputs), case.expected) for case in spec.cases)


def write_spec(spec: TestCaseSpec, path) -> None:
    """Write a spec in the format ``synth --spec`` reads."""
    payload = {"cases": [{"inputs": list(c.inputs), "output": c.expected} for c in spec.cases]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)


@pytest.fixture(scope="session")
def zipf_corpus():
    """Plain Zipf corpus: 10,000 units over 200 ranked instructions."""
    return generate_zipf_corpus(10_000, 200, 1.0, "1..40", seed=1)


@pytest.fixture(scope="session")
def clustered_corpus():
    """Clustered Zipf corpus: 10,000 units drawn from 24 overlapping pools."""
    return generate_zipf_corpus(10_000, 120, 1.0, "1..30", seed=11, clusters=24, cluster_size=10)


@pytest.fixture(scope="session")
def clustered_family(clustered_corpus):
    return cluster_subsets(clustered_corpus, cap=10)


@pytest.fixture(scope="session")
def clustered_scopes(clustered_corpus, clustered_family):
    return build_scopes(clustered_corpus, clustered_family, "subsets", 30)


@pytest.fixture(scope="session")
def dsl_corpus():
    """Well-formed stack-DSL programs usable both as corpus units and programs."""
    return random_program_corpus(300, "1..6", seed=17)


@pytest.fixture(scope="session")
def dsl_family(dsl_corpus):
    return cluster_subsets(dsl_corpus, cap=8)


@pytest.fixture(scope="session")
def dsl_scopes(dsl_corpus, dsl_family):
    return build_scopes(dsl_corpus, dsl_family, "subsets", 6)
