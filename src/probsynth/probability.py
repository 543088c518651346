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

import math
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

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
