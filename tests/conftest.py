"""Shared corpus fixtures; session-scoped since generation is deterministic.

Scope fixtures are lists in family order; cluster_subsets numbers subsets
from 0, so ``scopes[subset.id]`` is that subset's scope.
"""

from __future__ import annotations

import pytest

from probsynth import build_scopes, cluster_subsets, generate_zipf_corpus, random_program_corpus


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
