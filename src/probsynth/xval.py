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

import csv
import math
import random
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .corpus import Corpus
from .probability import GLOBAL_SCOPE, LOG10_SLACK, build_scopes, fmt12


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
    seed: int
    per_size_coverage: dict[int, float]
    per_size_test_counts: dict[int, int]
    sizes_without_threshold: tuple[int, ...]


def _split_result(
    fraction: float, seed: int, sizes: Sequence[int], log_probs: Sequence[float | None], train: set[int], max_size: int
) -> ValidationResult:
    """Thresholds from the training positions, coverage of the others.
    ``log_probs`` holds None for units above ``max_size``."""
    minima: dict[int, float] = {}
    for i in train:
        log_prob, size = log_probs[i], sizes[i]
        if log_prob is not None and log_prob < minima.get(size, math.inf):
            minima[size] = log_prob
    hits = dict.fromkeys(minima, 0)
    totals = dict.fromkeys(minima, 0)
    for i, size in enumerate(sizes):
        if size not in minima or i in train:
            continue
        totals[size] += 1
        if log_probs[i] >= minima[size] - LOG10_SLACK:
            hits[size] += 1
    ordered = sorted(minima)
    return ValidationResult(
        training_fraction=fraction,
        seed=seed,
        per_size_coverage={s: (100.0 * hits[s] / totals[s]) if totals[s] else 100.0 for s in ordered},
        per_size_test_counts={s: totals[s] for s in ordered},
        sizes_without_threshold=tuple(s for s in range(1, max_size + 1) if s not in minima),
    )


def validate(
    corpus: Corpus,
    fractions: Sequence[float],
    max_size: int,
    seed: int,
) -> list[ValidationResult]:
    """Run the threshold cross-validation sweep over training fractions.

    One split per fraction, each drawn with ``seed``. Sizes 1..max_size
    that the training part never exhibits are listed in
    ``sizes_without_threshold``.
    """
    units = corpus.units
    sizes = [unit.size for unit in units]
    [scope] = build_scopes(corpus, None, GLOBAL_SCOPE, max_size)
    by_id = dict(zip(scope.unit_ids, scope.unit_log10_probs))
    log_probs = [by_id.get(unit.id) for unit in units]
    return [
        _split_result(fraction, seed, sizes, log_probs, _split_indices(len(units), fraction, seed), max_size)
        for fraction in fractions
    ]


def write_validation_csv(results: Iterable[ValidationResult], out: IO[str]) -> None:
    """CSV export of the sweep: fraction, size, coverage percentage, test count."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["fraction", "size", "coverage_pct", "n_test_pus"])
    for result in results:
        for size, coverage in result.per_size_coverage.items():
            writer.writerow(
                [
                    fmt12(result.training_fraction),
                    str(size),
                    fmt12(coverage),
                    str(result.per_size_test_counts[size]),
                ]
            )
