"""Exact counting of the admissible search space above a probability threshold.

A node is a candidate solution of a given size over a scope's instruction
alphabet; it is admissible when its log10 solution probability is at least
the threshold (minus the package-wide slack). Counts are exact arbitrary-
precision integers of ordered candidates (sequences), the same kind of
object as the ``cap ** size`` baseline: each admissible instruction
multiset contributes its multinomial coefficient S!/prod(m_i!).

The counter meets in the middle (Horowitz & Sahni, JACM 1974). The
instructions are sorted by descending probability and split in two: the
top ``h`` and the bottom ``b = k - h``.

The bottom side is solved once, ahead of any threshold. For every total
``r`` up to the largest size asked for, a table holds the log10
probabilities of all bottom multisets of total ``r`` in ascending order,
with the suffix sums of their weights ``r!/prod(m!)``. How many bottom
completions clear a bound, weighted, is then one binary search.

The top side is a depth-first branch and bound over multisets, walked with
an explicit stack so that no alphabet size meets the recursion limit. A
popped partial runs one loop over its children, taking m copies of its
instruction for m falling from the slots left, and the loop stops at the
first child whose best completion (all remaining slots on the most probable
remaining instruction) falls below the threshold. A child that passes is
answered by the first of four rules that applies: at the bottom, with ``r``
slots left, by the table for ``r``, its weight ``S!/(prod m_top! * r!)``
times the table's weights giving the multinomial; if even its worst
completion passes, by the closed form ``n ** r`` over the ``n`` remaining
instructions; with one slot left, by one binary search over the remaining
instructions' logs, which is the table for ``r = 1`` over them; otherwise it
is pushed. The bounds, lookups and searches skip enumeration but keep its
admissibility test, so the result equals full enumeration. (A lookup or a
search tests ``rest >= limit - partial`` where enumeration sums
``partial + rest``; the two roundings can part only for a candidate within
a few ulps of the limit.)

The split is worked out from the input: ``b`` is the largest bottom, at
most ``k - 1``, whose tables (``C(max_size + b, b)`` entries over all
totals) fit ``_TABLE_BUDGET`` entries, about 0.6 MB. With ``b = 0`` the
counter is the plain branch and bound. ``measure`` builds the tables once
per probability table, for its largest size, and every size it counts
shares them.
"""

from __future__ import annotations

import logging
import math
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterable

from .probability import LOG10_SLACK, ProbabilityTable, ThresholdTable

logger = logging.getLogger(__name__)

# brute_force_count refuses anything bigger than this
_BRUTE_FORCE_MAX_ALPHABET = 8
_BRUTE_FORCE_MAX_SIZE = 8

# Most entries the bottom tables of one counter may hold, over all totals.
# An entry is a float in an array and a suffix sum in a list, about 50
# bytes, so the tables stay near 0.6 MB.
_TABLE_BUDGET = 12_000


def _bottom_size(k: int, max_size: int) -> int:
    """Largest bottom of at most k - 1 instructions whose tables fit the budget."""
    b = 0
    while b < k - 1 and math.comb(max_size + b + 1, b + 1) <= _TABLE_BUDGET:
        b += 1
    return b


def _bottom_tables(logs: list[float], max_size: int) -> list[tuple[array, list[int]]]:
    """Per total r = 0..max_size: the ascending log10 probabilities of the
    multisets of total r over ``logs``, and the suffix sums of their weights.

    Built one instruction at a time: the multisets of total r over the first
    j + 1 instructions are those of total r - m over the first j, with m
    copies of instruction j added.
    """
    keys: list[list[float]] = [[0.0]] + [[] for _ in range(max_size)]
    weights: list[list[int]] = [[1]] + [[] for _ in range(max_size)]
    for log in logs:
        new_keys, new_weights = [], []
        for r in range(max_size + 1):
            out_keys: list[float] = []
            out_weights: list[int] = []
            for m in range(r + 1):
                add = m * log
                out_keys.extend([key + add for key in keys[r - m]])
                c = math.comb(r, m)
                out_weights.extend([w * c for w in weights[r - m]])
            new_keys.append(out_keys)
            new_weights.append(out_weights)
        keys, weights = new_keys, new_weights
    tables = []
    for r_keys, r_weights in zip(keys, weights):
        order = sorted(range(len(r_keys)), key=r_keys.__getitem__)
        suffix = list(accumulate(r_weights[j] for j in reversed(order)))[::-1] + [0]
        tables.append((array("d", [r_keys[j] for j in order]), suffix))
    return tables


class _Counter:
    """Exact counts over one table for every size up to ``max_size``.

    ``bottom`` fixes the split; left at None it is worked out from the
    input, and only tests set it.
    """

    def __init__(self, table: ProbabilityTable, max_size: int, bottom: int | None = None):
        self.table = table
        self.max_size = max_size
        self.logs = sorted(table.log10_probs.values(), reverse=True)
        # Ascending, so that the partners of a one-slot partial (the j with
        # logs[j] >= limit - logp) are a prefix of its range for bisect.
        self.neg = [-log for log in self.logs]
        k = len(self.logs)
        if bottom is None:
            bottom = _bottom_size(k, max_size)
        self.top = k - bottom
        self.tables = _bottom_tables(self.logs[self.top :], max_size)

    def serves(self, table: ProbabilityTable, size: int) -> bool:
        return table is self.table and size <= self.max_size

    def count(self, size: int, threshold: float) -> int:
        """Admissible candidates of exactly ``size`` instructions."""
        logs, neg, top, tables = self.logs, self.neg, self.top, self.tables
        k = len(logs)
        worst = logs[-1]
        limit = threshold - LOG10_SLACK
        # Best completion: all slots on instruction 0, the most probable.
        # Worst completion: all slots on the least probable instruction; if
        # even that passes, every candidate is admissible.
        if size * logs[0] < limit:
            return 0
        if size * worst >= limit:
            return k**size
        binomials = [[math.comb(r, m) for m in range(r + 1)] for r in range(size + 1)]
        total = 0
        # Partials that are neither cut nor closed by the bounds:
        # (next instruction, slots left, log10 so far, weight so far).
        stack = [(0, size, 0.0, 1)]
        pop, push = stack.pop, stack.append
        while stack:
            i, remaining, logp, coeff = pop()
            log = logs[i]
            nxt = i + 1
            bound = logs[nxt]
            n = k - nxt
            # Children in order of falling m, and so of falling best and
            # worst completion: once one is cut, so is every later one.
            for m in range(remaining, -1, -1):
                child_logp = logp + m * log
                r = remaining - m
                if child_logp + r * bound < limit:
                    break
                c = coeff * binomials[remaining][m]
                if nxt == top:
                    keys, suffix = tables[r]
                    total += c * suffix[bisect_left(keys, limit - child_logp)]
                elif child_logp + r * worst >= limit:
                    total += c * n**r
                elif r == 1:
                    total += c * (bisect_right(neg, child_logp - limit, nxt, k) - nxt)
                else:
                    push((nxt, r, child_logp, c))
        return total


# The counter ``measure`` shares across the sizes it counts.
_shared_counter: ContextVar[_Counter | None] = ContextVar("_shared_counter", default=None)


@contextmanager
def _sharing(counter: _Counter | None):
    token = _shared_counter.set(counter)
    try:
        yield
    finally:
        _shared_counter.reset(token)


def count_admissible(table: ProbabilityTable, size: int, threshold: float) -> int:
    """Exact number of admissible candidates at ``size`` over the table's alphabet."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not table.log10_probs:
        raise ValueError("probability table is empty")
    counter = _shared_counter.get()
    if counter is None or not counter.serves(table, size):
        counter = _Counter(table, size)
    return counter.count(size, threshold)


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


def baseline_size(is_cap: int, size: int) -> int:
    """Unpruned sequence count over a cap-sized subset alphabet: cap ** size."""
    if is_cap < 1:
        raise ValueError(f"is_cap must be >= 1, got {is_cap}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return is_cap**size


@dataclass(frozen=True)
class SpaceMeasurement:
    """Admissible-space size and reduction against the baseline for one size."""

    scope: str
    size: int
    threshold: float
    admissible_count: int
    baseline_count: int
    reduction_oom: float


def measure(
    table: ProbabilityTable, thresholds: ThresholdTable, sizes: Iterable[int], is_cap: int
) -> list[SpaceMeasurement]:
    """Measure admissible space and baseline reduction for each requested size.

    Sizes without a derived threshold are reported and skipped. A fully
    pruned space (admissible count 0) yields an infinite reduction, kept
    as the float infinity sentinel.
    """
    sizes = list(sizes)
    counted = [size for size in sizes if size in thresholds.thresholds]
    counter = _Counter(table, max(counted)) if counted else None
    out = []
    with _sharing(counter):
        for size in sizes:
            if size not in thresholds.thresholds:
                logger.warning("no threshold for scope %s at size %d; skipping", thresholds.scope, size)
                continue
            threshold = thresholds.thresholds[size]
            admissible = count_admissible(table, size, threshold)
            baseline = baseline_size(is_cap, size)
            if admissible == 0:
                reduction = math.inf
            else:
                reduction = math.log10(baseline) - math.log10(admissible)
            out.append(
                SpaceMeasurement(
                    scope=table.scope,
                    size=size,
                    threshold=threshold,
                    admissible_count=admissible,
                    baseline_count=baseline,
                    reduction_oom=reduction,
                )
            )
    return out
