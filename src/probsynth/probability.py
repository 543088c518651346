"""Instruction probabilities, solution probabilities, and per-size thresholds.

An instruction's probability in a scope is its occurrence count divided by
the total instruction occurrences in that scope; a solution's probability
is the product over all of its instruction occurrences, duplicates
included. Everything is stored and combined in the log10 domain, since
solution probabilities at size 40 fall far below the linear float range.

A scope is the whole corpus or one instruction subset. ``build_scopes``
is the one way to make them: each ``Scope`` holds its table, its units,
their log10 solution probabilities (each computed once) and the per-size
thresholds, the minima of those probabilities. A scope with an empty
threshold table puts every size at its floor, the lowest probability the
table allows, so nothing is cut.

Threshold comparison convention used throughout the package: a candidate
is admissible when its log10 solution probability is >= threshold minus
LOG10_SLACK, so float rounding never excludes a corpus unit from the
space its own probability defined.
"""

from __future__ import annotations

import csv
import math
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from typing import IO, Iterable, Mapping, Sequence

from .corpus import Corpus
from .subsets import InstructionSubset, SubsetFamily

# Log-domain slack applied toward inclusion in threshold comparisons.
LOG10_SLACK = 1e-9

GLOBAL_SCOPE = "global"


def subset_scope(subset_id: int) -> str:
    """Scope label for a per-subset table ("is:3")."""
    return f"is:{subset_id}"


def fmt12(value: float) -> str:
    """Fixed 12-significant-digit rendering for reproducible CSV diffs."""
    return format(value, ".12g")


@dataclass(frozen=True)
class ProbabilityTable:
    """Instruction -> log10 probability for one scope, with the raw counts.

    Entries are kept in canonical rank order (descending count, then name)
    so exports and rank queries are deterministic.
    """

    scope: str
    log10_probs: dict[str, float]
    counts: dict[str, int]
    total_count: int

    def __len__(self) -> int:
        return len(self.log10_probs)

    @property
    def min_log10(self) -> float:
        return min(self.log10_probs.values())

    @property
    def max_log10(self) -> float:
        return max(self.log10_probs.values())


def table_from_counts(scope: str, counts: Mapping[str, int]) -> ProbabilityTable:
    """Build a probability table from occurrence counts.

    Every probability is count/total computed as log10(count) - log10(total);
    zero or negative counts are rejected rather than smoothed.
    """
    if not counts:
        raise ValueError(f"cannot build probability table for {scope!r}: no counts")
    for instruction, count in counts.items():
        if count < 1:
            raise ValueError(f"instruction {instruction!r} has non-positive count {count}")
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    log_total = math.log10(total)
    return ProbabilityTable(
        scope=scope,
        log10_probs={instr: math.log10(c) - log_total for instr, c in ordered},
        counts=dict(ordered),
        total_count=total,
    )


def global_instruction_probs(corpus: Corpus) -> ProbabilityTable:
    """Occurrence probability of each instruction over the whole corpus."""
    counts: Counter = Counter()
    for unit in corpus.units:
        counts.update(unit.instructions)
    return table_from_counts(GLOBAL_SCOPE, counts)


def subset_instruction_probs(corpus: Corpus, subset: InstructionSubset) -> ProbabilityTable:
    """Instruction probabilities over the units covered by one subset, of
    every size (the paper's per-IS formulation)."""
    counts: Counter = Counter()
    for unit_id in subset.covered_units:
        counts.update(corpus.unit_by_id[unit_id].instructions)
    return table_from_counts(subset_scope(subset.id), counts)


def solution_probability(table: ProbabilityTable, instructions: Iterable[str]) -> float:
    """Log10 probability of a solution: sum over occurrences, duplicates included."""
    total = 0.0
    for instruction, multiplicity in Counter(instructions).items():
        try:
            lp = table.log10_probs[instruction]
        except KeyError:
            raise KeyError(
                f"instruction {instruction!r} has no entry in the {table.scope!r} table"
            ) from None
        total += multiplicity * lp
    return total


@dataclass(frozen=True)
class ThresholdTable:
    """Per-size minimum observed log10 solution probability for one scope."""

    scope: str
    thresholds: dict[int, float]
    support_counts: dict[int, int]

    def __contains__(self, size: int) -> bool:
        return size in self.thresholds


def _unit_log_probs(
    corpus: Corpus, table: ProbabilityTable, scope_units: Iterable[str], max_size: int
) -> tuple[tuple[str, ...], array, ThresholdTable]:
    """The scope units of at most ``max_size`` instructions, their log10
    solution probabilities, and the per-size minima of those."""
    unit_ids = []
    log_probs = array("d")
    minima: dict[int, float] = {}
    support: dict[int, int] = {}
    for unit_id in scope_units:
        unit = corpus.unit_by_id[unit_id]
        if unit.size > max_size:
            continue
        log_prob = solution_probability(table, unit.instructions)
        unit_ids.append(unit_id)
        log_probs.append(log_prob)
        size = unit.size
        if size not in minima or log_prob < minima[size]:
            minima[size] = log_prob
        support[size] = support.get(size, 0) + 1
    ordered = sorted(minima)
    thresholds = ThresholdTable(
        scope=table.scope,
        thresholds={s: minima[s] for s in ordered},
        support_counts={s: support[s] for s in ordered},
    )
    return tuple(unit_ids), log_probs, thresholds


def derive_thresholds(
    corpus: Corpus,
    table: ProbabilityTable,
    scope_units: Sequence[str],
    max_size: int,
) -> ThresholdTable:
    """Minimum solution probability per size over the scope's units.

    A size gets a threshold only if at least one scope unit has that size;
    units larger than ``max_size`` are filtered out, not errors. The
    support count records how many units the minimum ranged over.
    """
    if not scope_units:
        raise ValueError("scope_units must be non-empty")
    return _unit_log_probs(corpus, table, scope_units, max_size)[2]


@dataclass(frozen=True)
class Scope:
    """One probability scope: the whole corpus (``subset_id`` None) or one
    instruction subset.

    ``unit_ids`` are the scope's units of at most the builder's max size,
    in scope order, and ``unit_log10_probs`` their solution probabilities
    under ``table``, position for position.
    """

    subset_id: int | None
    table: ProbabilityTable
    unit_ids: tuple[str, ...]
    unit_log10_probs: array
    thresholds: ThresholdTable

    def without_thresholds(self) -> Scope:
        """The same scope with an empty threshold table: every size at its floor."""
        return replace(self, thresholds=ThresholdTable(self.table.scope, {}, {}))


def build_scopes(corpus: Corpus, family: SubsetFamily | None, which: str, max_size: int) -> list[Scope]:
    """The global scope, the family's subset scopes in family order, or both
    (``which`` = "global", "subsets" or "both"), with thresholds for sizes
    up to ``max_size``."""
    if which not in (GLOBAL_SCOPE, "subsets", "both"):
        raise ValueError(f"unknown scope selection {which!r}")
    sources = []
    if which in (GLOBAL_SCOPE, "both"):
        sources.append((None, global_instruction_probs(corpus), [u.id for u in corpus.units]))
    if which in ("subsets", "both"):
        sources.extend((s.id, subset_instruction_probs(corpus, s), s.covered_units) for s in family.subsets)
    return [
        Scope(subset_id, table, *_unit_log_probs(corpus, table, unit_ids, max_size))
        for subset_id, table, unit_ids in sources
    ]


@dataclass(frozen=True)
class ProbabilityRange:
    """Possible and observed solution-probability extent at one size."""

    size: int
    min_possible: float
    max_possible: float
    observed_min: float | None = None
    observed_median: float | None = None
    observed_max: float | None = None
    n_observed: int = 0


def probability_range(
    table: ProbabilityTable, size: int, observed: Sequence[float] | None = None
) -> ProbabilityRange:
    """Lowest/highest achievable log10 solution probability at a size.

    The extremes are the scope's lowest and highest instruction log-probs
    times the size; ``observed`` log10 solution probabilities, when given,
    are summarised as min/median/max.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not table.log10_probs:
        raise ValueError("probability table is empty")
    lo = size * table.min_log10
    hi = size * table.max_log10
    if observed:
        return ProbabilityRange(
            size=size,
            min_possible=lo,
            max_possible=hi,
            observed_min=min(observed),
            observed_median=statistics.median(observed),
            observed_max=max(observed),
            n_observed=len(observed),
        )
    return ProbabilityRange(size=size, min_possible=lo, max_possible=hi)


def write_tables_csv(tables: Iterable[ProbabilityTable], out: IO[str]) -> None:
    """CSV export of probability tables: scope, instruction, count, log10 prob."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scope", "instruction", "count", "log10_probability"])
    for table in tables:
        for instruction, lp in table.log10_probs.items():
            writer.writerow([table.scope, instruction, str(table.counts[instruction]), fmt12(lp)])


def write_thresholds_csv(tables: Iterable[ThresholdTable], out: IO[str]) -> None:
    """CSV export of threshold tables: scope, size, support count, log10 threshold."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scope", "size", "count", "log10_probability"])
    for table in tables:
        for size, threshold in table.thresholds.items():
            writer.writerow([table.scope, str(size), str(table.support_counts[size]), fmt12(threshold)])


def write_ranges_csv(ranges: Iterable[tuple[str, ProbabilityRange]], out: IO[str]) -> None:
    """CSV export of (scope, range) rows summarising possible vs observed."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "scope",
            "size",
            "min_possible_log10",
            "max_possible_log10",
            "observed_min_log10",
            "observed_median_log10",
            "observed_max_log10",
            "n_observed",
        ]
    )
    for scope, r in ranges:
        observed = [
            "" if v is None else fmt12(v)
            for v in (r.observed_min, r.observed_median, r.observed_max)
        ]
        writer.writerow(
            [scope, str(r.size), fmt12(r.min_possible), fmt12(r.max_possible), *observed, str(r.n_observed)]
        )
