"""Cross-validation of per-size thresholds against held-out program units.

For each training fraction the corpus is split uniformly at random into a
training and a test part; thresholds are the per-size minimum solution
probabilities observed in the training part, and coverage is the
percentage of test units (per size) whose solution probability clears the
threshold for their size. Instruction probabilities come from the full
corpus, matching the protocol this reproduces, so each unit's solution
probability is computed once per call and shared by every split.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .corpus import Corpus
from .probability import GLOBAL_SCOPE, LOG10_SLACK, build_scopes, size_minima


def _split_indices(n: int, fraction: float, seed: int) -> set[int]:
    """Indices of the training units: round(fraction * n) of range(n),
    clamped to 1..n-1, drawn without replacement."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if n < 2:
        raise ValueError(f"corpus must have at least 2 units to split, got {n}")
    k = min(max(round(fraction * n), 1), n - 1)
    return set(random.Random(seed).sample(range(n), k))


@dataclass(frozen=True)
class ValidationResult:
    """Coverage of held-out units per size for one training fraction."""

    training_fraction: float
    per_size_coverage: dict[int, float]
    per_size_test_counts: dict[int, int]


def _split_result(
    fraction: float, sizes: Sequence[int], log_probs: Sequence[float | None], train: set[int]
) -> ValidationResult:
    """Thresholds from the training positions, coverage of the others.
    ``log_probs`` holds None for units above ``max_size``."""
    minima, _ = size_minima((sizes[i], log_probs[i]) for i in train if log_probs[i] is not None)
    hits = dict.fromkeys(minima, 0)
    totals = dict.fromkeys(minima, 0)
    for i, size in enumerate(sizes):
        if size not in minima or i in train:
            continue
        totals[size] += 1
        if log_probs[i] >= minima[size] - LOG10_SLACK:
            hits[size] += 1
    return ValidationResult(
        training_fraction=fraction,
        per_size_coverage={s: (100.0 * hits[s] / totals[s]) if totals[s] else 100.0 for s in minima},
        per_size_test_counts=totals,
    )


def validate(
    corpus: Corpus,
    fractions: Sequence[float],
    max_size: int,
    seed: int,
) -> list[ValidationResult]:
    """Run the threshold cross-validation sweep over training fractions.

    One split per fraction, each drawn with ``seed``. A size that the
    training part never exhibits has no entry in ``per_size_coverage``.
    """
    units = corpus.units
    sizes = [unit.size for unit in units]
    [scope] = build_scopes(corpus, None, GLOBAL_SCOPE, max_size)
    by_id = dict(zip((unit.id for unit in scope.units), scope.unit_log10_probs))
    log_probs = [by_id.get(unit.id) for unit in units]
    return [
        _split_result(fraction, sizes, log_probs, _split_indices(len(units), fraction, seed))
        for fraction in fractions
    ]
