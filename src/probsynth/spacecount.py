"""Exact counting of the admissible search space above a probability threshold.

A node is a candidate solution of a given size over a scope's instruction
alphabet; it is admissible when its log10 solution probability is at least
the threshold (minus the package-wide slack). Counts are exact arbitrary-
precision integers of ordered candidates (sequences), the same kind of
object as the ``cap ** size`` baseline: each admissible instruction
multiset contributes its multinomial coefficient S!/prod(m_i!).

The counter meets in the middle (Horowitz & Sahni, JACM 1974). The
instructions, in the table's order of descending probability, are split
in two: the top ``h`` and the bottom ``b = k - h``.

The bottom side is solved once per counter, for the limits it is built
for: one per size, its threshold less ``LOG10_SLACK``, for each size that
neither of the two bounds below answers. For every total ``r`` up to the
largest of those sizes, a table holds in ascending order the log10
probabilities of the bottom multisets of total ``r`` that a lookup can
reach, with the suffix sums of their weights ``r!/prod(m!)``. How many
bottom completions clear a bound, weighted, is then one binary search.

The tables are cut as the paper cuts partial solutions. A lookup into table
``r`` at size ``s`` asks for ``limit_s - logp``, where ``logp`` sums the
top multiset's ``s - r`` logs, each at most the largest, ``logs[0]``. So it
asks for at least ``limit_s - (s - r) * logs[0]``, and a bottom multiset of
total ``r`` is kept only if its key reaches the floor ``Q_r``, the least of
these over the served sizes ``s >= r``, less one more ``LOG10_SLACK`` for
the rounding of either sum. No dropped entry is ever counted. The same
test may drop a multiset while the tables are built: adding ``m`` copies of
a bottom instruction lowers its key by at least ``-m * logs[0]``, and
``Q_(r+m) >= Q_r + m * logs[0]``, so no multiset grown from a dropped one
would have been kept either. A counter counts a size only at its own limit
or above, and raises below it unless a bound answers.

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

The split is worked out from the input by one rule. The bottom grows one
instruction at a time, from the least probable up, to at most ``k - 1``,
and stops before the step whose kept entries would pass
``_TABLE_BUDGET``, about 0.6 MB. A step is counted, by one binary search
per source table, before any entry is made. With ``b = 0`` the counter is
the plain branch and bound. ``measure`` builds one counter per scope, at
its thresholds for every size it counts, and passes it to every count.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .probability import LOG10_SLACK, ProbabilityTable, Scope

# Most entries the bottom tables of one counter may keep, over all totals.
# An entry is a float in an array and a weight in a list (a suffix sum
# once built), about 50 bytes, so the tables stay near 0.6 MB.
_TABLE_BUDGET = 12_000


def _grow(keys: list[array], weights: list[list[int]], log: float, floors: list[float], budget: float) -> bool:
    """Add an instruction of log10 probability ``log`` to the bottom, in place:
    the multisets of total t are then those of total t - m with m copies of
    it added, kept if their key reaches ``floors[t]``. Returns False, and
    changes nothing, if the kept entries would pass ``budget``.
    """
    # Each table is ascending and so is every shifted copy of it, so the
    # entries of total t - m kept at total t are a suffix: count them first.
    starts = []
    kept = 0
    for t, floor in enumerate(floors):
        row = [bisect_left(keys[t - m], floor - m * log) for m in range(t + 1)]
        kept += sum(len(keys[t - m]) - i for m, i in enumerate(row))
        if kept > budget:
            return False
        starts.append(row)
    # From the largest total down, so that each total's old table is read
    # by no later total once it is replaced.
    for t in range(len(floors) - 1, -1, -1):
        new_keys: list[float] = []
        new_weights: list[int] = []
        for m, i in enumerate(starts[t]):
            add = m * log
            c = math.comb(t, m)
            new_keys += [key + add for key in keys[t - m][i:]]
            new_weights += [w * c for w in weights[t - m][i:]]
        order = sorted(range(len(new_keys)), key=new_keys.__getitem__)
        keys[t] = array("d", [new_keys[j] for j in order])
        weights[t] = [new_weights[j] for j in order]
    return True


def _bottom_tables(
    logs: list[float], floors: list[float], bottom: int | None
) -> tuple[int, list[tuple[array, list[int]]]]:
    """The bottom size and, per total r, the ascending log10 probabilities
    of the bottom multisets of total r that reach ``floors[r]``, with the
    suffix sums of their weights ``r!/prod(m!)``.

    The bottom grows from the least probable instruction up, one at a time,
    to ``bottom`` instructions if given, and otherwise as far as it can
    without passing ``_TABLE_BUDGET`` kept entries, and never to all ``k``.
    """
    k = len(logs)
    keys = [array("d", [0.0])] + [array("d") for _ in floors[1:]]
    weights: list[list[int]] = [[1]] + [[] for _ in floors[1:]]
    most, budget = (k - 1, _TABLE_BUDGET) if bottom is None else (bottom, math.inf)
    b = 0
    while b < most and _grow(keys, weights, logs[k - 1 - b], floors, budget):
        b += 1
    for r, r_weights in enumerate(weights):
        weights[r] = list(accumulate(reversed(r_weights)))[::-1] + [0]
    return b, list(zip(keys, weights))


class _Counter:
    """Exact counts over one table at the thresholds it was built for.

    ``thresholds`` maps each size it counts to its least threshold; it
    counts a size at that threshold or above, and any size one of the two
    bounds answers. ``bottom`` fixes the split; left at None it is worked
    out from the input, and only tests set it.
    """

    def __init__(self, table: ProbabilityTable, thresholds: dict[int, float], bottom: int | None = None):
        self.table = table
        self.logs = list(table.log10_probs.values())  # descending
        # Ascending, so that the partners of a one-slot partial (the j with
        # logs[j] >= limit - logp) are a prefix of its range for bisect.
        self.neg = [-log for log in self.logs]
        best, worst = self.logs[0], self.logs[-1]
        # The sizes the tables serve, at their limits: those neither bound
        # answers at their own threshold.
        limits = {size: threshold - LOG10_SLACK for size, threshold in thresholds.items()}
        self.limits = {size: limit for size, limit in limits.items() if size * worst < limit <= size * best}
        # The floors Q_r of the module docstring, one per total r.
        floors = [
            min([limit - (s - r) * best for s, limit in self.limits.items() if s >= r]) - LOG10_SLACK
            for r in range(max(self.limits, default=-1) + 1)
        ]
        b, self.tables = _bottom_tables(self.logs, floors, bottom) if floors else (0, [])
        self.top = len(self.logs) - b

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
        if limit < self.limits.get(size, math.inf):
            raise ValueError(f"counter does not serve size {size} at threshold {threshold!r}")
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


def count_admissible(table: ProbabilityTable, size: int, threshold: float, *, counter: _Counter | None = None) -> int:
    """Exact number of admissible candidates at ``size`` over the table's
    alphabet, from ``counter`` if given, which must serve the call."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not table.log10_probs:
        raise ValueError("probability table is empty")
    if counter is None:
        counter = _Counter(table, {size: threshold})
    elif counter.table is not table:
        raise ValueError(f"counter does not serve table {table.scope}")
    return counter.count(size, threshold)


@dataclass(frozen=True)
class SpaceMeasurement:
    """Admissible-space size and reduction against the baseline for one size."""

    scope: str
    size: int
    threshold: float
    admissible_count: int
    baseline_count: int
    reduction_oom: float


def measure(scope: Scope, sizes: Iterable[int], is_cap: int) -> list[SpaceMeasurement]:
    """Measure the scope's admissible space under its own table and
    thresholds, and its reduction against the ``is_cap ** size`` baseline,
    for each requested size.

    A size without a threshold in the scope raises ``ValueError`` before
    any count. A fully pruned space (admissible count 0) yields a reduction
    of ``math.inf``. No scope ``build_scopes`` makes has one, since each
    threshold is the probability of one of the scope's own units, but a
    scope given other thresholds (``dataclasses.replace(scope, thresholds=...)``) can.
    """
    if is_cap < 1:
        raise ValueError(f"is_cap must be >= 1, got {is_cap}")
    table, thresholds = scope.table, scope.thresholds
    sizes = list(sizes)
    for size in sizes:
        if size not in thresholds:
            raise ValueError(f"no threshold for scope {table.scope} at size {size}")
    counter = _Counter(table, {size: thresholds[size] for size in sizes})
    out = []
    for size in sizes:
        threshold = thresholds[size]
        admissible = count_admissible(table, size, threshold, counter=counter)
        baseline = is_cap**size
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
