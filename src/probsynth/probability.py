"""Instruction probabilities, solution probabilities, and per-size thresholds.

An instruction's probability in a scope is its occurrence count divided by
the total instruction occurrences in that scope; a solution's probability
is the product over all of its instruction occurrences, duplicates
included. Everything is stored and combined in the log10 domain, since
solution probabilities at size 40 fall far below the linear float range.

A scope is the whole corpus or one instruction subset. ``build_scopes``
is the one way to make them: each ``Scope`` is one record of its table,
its units, their log10 solution probabilities (each computed once) and
its per-size thresholds, the minima of those probabilities. A threshold
is only meaningful under its own scope's table, so the two travel
together. A scope with no thresholds puts every size at its floor, the
lowest probability the table allows, so nothing is cut.

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
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus, ProgramUnit
from .subsets import InstructionSubset, SubsetFamily

# Log-domain slack applied toward inclusion in threshold comparisons.
LOG10_SLACK = 1e-9

GLOBAL_SCOPE = "global"


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
    return table_from_counts(GLOBAL_SCOPE, Counter(chain.from_iterable(unit.instructions for unit in corpus.units)))


def subset_instruction_probs(corpus: Corpus, subset: InstructionSubset) -> ProbabilityTable:
    """Instruction probabilities over the units covered by one subset, of
    every size (the paper's per-IS formulation), labelled "is:<subset id>"."""
    return _subset_table(subset.id, (corpus.unit_by_id[unit_id] for unit_id in subset.covered_units))


def _subset_table(subset_id: int, units: Iterable[ProgramUnit]) -> ProbabilityTable:
    return table_from_counts(f"is:{subset_id}", Counter(chain.from_iterable(unit.instructions for unit in units)))


def solution_probability(table: ProbabilityTable, instructions: Iterable[str]) -> float:
    """Log10 probability of a solution: sum over occurrences, duplicates included.

    Each distinct instruction adds its multiplicity times its log10
    probability, in order of first occurrence, one float addition at a
    time. That order fixes the rounding; ``math.fsum``, or ``sum`` (which
    compensates from Python 3.12), would round differently.
    """
    instructions = tuple(instructions)
    total = 0.0
    for instruction in dict.fromkeys(instructions):
        try:
            lp = table.log10_probs[instruction]
        except KeyError:
            raise KeyError(
                f"instruction {instruction!r} has no entry in the {table.scope!r} table"
            ) from None
        total += instructions.count(instruction) * lp
    return total


@dataclass(frozen=True)
class Scope:
    """One probability scope: the whole corpus (``subset_id`` None) or one
    instruction subset.

    ``units`` are the scope's units of at most the builder's max size, the
    corpus's own objects in scope order, and ``unit_log10_probs`` their
    probabilities under ``table``, position for position. ``thresholds``
    maps each size those units have to the least of their probabilities at
    that size, and ``support_counts`` to how many units it ranged over.
    """

    subset_id: int | None
    table: ProbabilityTable
    units: tuple[ProgramUnit, ...]
    unit_log10_probs: array
    thresholds: dict[int, float]
    support_counts: dict[int, int]

    def without_thresholds(self) -> Scope:
        """The same scope with no thresholds: every size at its floor."""
        return replace(self, thresholds={}, support_counts={})


def size_minima(pairs: Iterable[tuple[int, float]]) -> tuple[dict[int, float], dict[int, int]]:
    """The least log10 probability at each size among ``(size, log10
    probability)`` pairs, and how many pairs it ranged over: a scope's
    ``thresholds`` and ``support_counts``, both in ascending size order."""
    minima: dict[int, float] = {}
    support: dict[int, int] = {}
    for size, log_prob in pairs:
        if size not in minima or log_prob < minima[size]:
            minima[size] = log_prob
        support[size] = support.get(size, 0) + 1
    ordered = sorted(minima)
    return {s: minima[s] for s in ordered}, {s: support[s] for s in ordered}


def _scope(subset_id: int | None, table: ProbabilityTable, units: Iterable[ProgramUnit], max_size: int) -> Scope:
    """The scope over those of ``units`` with at most ``max_size``
    instructions, their log10 solution probabilities and per-size minima."""
    units = tuple(unit for unit in units if len(unit.instructions) <= max_size)
    log_probs = array("d", (solution_probability(table, unit.instructions) for unit in units))
    thresholds, support_counts = size_minima(zip((len(unit.instructions) for unit in units), log_probs))
    return Scope(subset_id, table, units, log_probs, thresholds, support_counts)


def derive_thresholds(
    corpus: Corpus,
    table: ProbabilityTable,
    scope_units: Sequence[str],
    max_size: int,
) -> Scope:
    """The scope of ``table`` over the given units, with its minimum
    solution probability per size.

    ``subset_id`` is None: the caller gives a table, not a subset. A size
    gets a threshold only if at least one scope unit has that size; units
    larger than ``max_size`` are filtered out, not errors.
    """
    if not scope_units:
        raise ValueError("scope_units must be non-empty")
    return _scope(None, table, (corpus.unit_by_id[unit_id] for unit_id in scope_units), max_size)


def scope_sources(
    corpus: Corpus, family: SubsetFamily | None, which: str
) -> list[tuple[int | None, ProbabilityTable, Sequence[ProgramUnit]]]:
    """The ``(subset_id, table, units)`` of the global scope, the family's
    subset scopes in family order, or both (``which`` = "global", "subsets"
    or "both"): each scope's table and all of its units."""
    if which not in (GLOBAL_SCOPE, "subsets", "both"):
        raise ValueError(f"unknown scope selection {which!r}")
    sources = []
    if which in (GLOBAL_SCOPE, "both"):
        sources.append((None, global_instruction_probs(corpus), corpus.units))
    if which in ("subsets", "both"):
        units = [[corpus.unit_by_id[unit_id] for unit_id in s.covered_units] for s in family.subsets]
        sources.extend((s.id, _subset_table(s.id, u), u) for s, u in zip(family.subsets, units))
    return sources


def build_scopes(corpus: Corpus, family: SubsetFamily | None, which: str, max_size: int) -> list[Scope]:
    """The scopes ``scope_sources`` selects, with thresholds for sizes up to
    ``max_size``."""
    return [_scope(*source, max_size) for source in scope_sources(corpus, family, which)]
