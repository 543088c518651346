"""Exact admissible-space counting against the brute-force oracle."""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probsynth import (
    LOG10_SLACK,
    Corpus,
    ProgramUnit,
    build_scopes,
    cli,
    count_admissible,
    derive_thresholds,
    load_corpus,
    measure,
    save_corpus,
    solution_probability,
    table_from_counts,
)
from probsynth import spacecount
from probsynth.probability import fmt12
from probsynth.spacecount import _Counter

from conftest import brute_force_count

UNIFORM2 = table_from_counts("global", {"a": 1, "b": 1})
SKEWED2 = table_from_counts("global", {"a": 9, "b": 1})


def random_table(rng, k):
    return table_from_counts("global", {f"x{i}": rng.randint(1, 50) for i in range(k)})


def floor_at(size, threshold):
    """The thresholds of a counter that serves one size, from one threshold up."""
    return {size: threshold}


class TestCountAdmissible:
    def test_uniform_all_admissible(self):
        assert count_admissible(UNIFORM2, 2, math.log10(0.25)) == 4

    def test_skewed_single_survivor(self):
        assert count_admissible(SKEWED2, 2, math.log10(0.5)) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            count_admissible(UNIFORM2, 0, 0.0)
        with pytest.raises(ValueError, match="does not serve table"):
            count_admissible(SKEWED2, 2, -1.0, counter=_Counter(UNIFORM2, floor_at(2, -1.0)))


class TestBruteForce:
    def test_single_instruction(self):
        table = table_from_counts("global", {"a": 1})
        assert brute_force_count(table, 5, math.log10(1.0)) == 1

    def test_nothing_reaches_probability_one(self):
        assert brute_force_count(UNIFORM2, 3, 0.0) == 0

    def test_guard(self):
        big = table_from_counts("global", {f"x{i}": 1 for i in range(9)})
        with pytest.raises(ValueError):
            brute_force_count(big, 2, -1.0)
        with pytest.raises(ValueError):
            brute_force_count(UNIFORM2, 9, -1.0)


class TestOracleEquivalence:
    def test_randomized_against_brute_force(self):
        rng = random.Random(2024)
        for _ in range(120):
            table = random_table(rng, rng.randint(2, 5))
            size = rng.randint(1, 6)
            lo = size * table.min_log10
            hi = size * table.max_log10
            threshold = rng.uniform(lo - 1.0, hi + 1.0)
            assert count_admissible(table, size, threshold) == brute_force_count(table, size, threshold)

    def test_thresholds_exactly_at_candidate_probabilities(self):
        rng = random.Random(55)
        table = random_table(rng, 4)
        names = list(table.log10_probs)
        for _ in range(50):
            size = rng.randint(1, 5)
            multiset = rng.choices(names, k=size)
            threshold = solution_probability(table, multiset)
            assert count_admissible(table, size, threshold) == brute_force_count(table, size, threshold)

    def test_inverse_rank_table_percentile_threshold(self):
        # probabilities proportional to 1/rank over 8 instructions
        counts = {f"r{i}": 840 // i for i in range(1, 9)}
        table = table_from_counts("global", counts)
        rng = random.Random(8)
        names = list(table.log10_probs)
        weights = [10**lp for lp in table.log10_probs.values()]
        samples = sorted(
            solution_probability(table, rng.choices(names, weights=weights, k=6))
            for _ in range(1000)
        )
        threshold = samples[249]
        assert count_admissible(table, 6, threshold) == brute_force_count(table, 6, threshold)


# Most candidates brute_force_count enumerates for one check.
_BRUTE_FORCE_SEQUENCES = 5000


@st.composite
def counting_cases(draw):
    """A table of at most 8 instructions, a size of at most 8 and a threshold,
    either anywhere in the size's range or at, or just off, a candidate's probability."""
    size = draw(st.integers(1, 8))
    max_k = max(k for k in range(1, 9) if k**size <= _BRUTE_FORCE_SEQUENCES)
    counts = draw(st.lists(st.integers(1, 50), min_size=1, max_size=max_k))
    table = table_from_counts("global", {f"x{i}": c for i, c in enumerate(counts)})
    candidate = draw(st.lists(st.sampled_from(list(table.log10_probs)), min_size=size, max_size=size))
    threshold = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-7, -1e-7]).map(lambda off: solution_probability(table, candidate) + off),
            st.floats(size * table.min_log10 - 0.5, size * table.max_log10 + 0.5),
        )
    )
    return table, size, threshold


class TestSplitPoints:
    @settings(max_examples=150, deadline=None)
    @given(counting_cases())
    def test_every_split_matches_brute_force(self, case):
        table, size, threshold = case
        expected = brute_force_count(table, size, threshold)
        assert count_admissible(table, size, threshold) == expected
        k = len(table.log10_probs)
        for top in range(k + 1):
            counter = _Counter(table, floor_at(size, threshold), bottom=k - top)
            assert count_admissible(table, size, threshold, counter=counter) == expected, top

    def test_large_alphabet_has_no_recursion_limit(self):
        # 1,100 instructions whose pairs sit exactly at the threshold: a
        # search that recursed once per instruction would go 1,100 deep.
        counts = {"top": 4_000_000, "bottom": 1}
        counts.update({f"g{i}": 2_000 for i in range(1_100)})
        counts.update({f"s{i}": 2 for i in range(1_898)})
        table = table_from_counts("global", counts)
        assert len(table.log10_probs) == 3_000
        threshold = table.max_log10 + table.min_log10
        limit = threshold - LOG10_SLACK
        multiplicity = Counter(table.log10_probs.values())
        pairs = sum(
            na * nb for a, na in multiplicity.items() for b, nb in multiplicity.items() if a + b >= limit
        )
        assert pairs == 2 * 3_000 - 1 + 1_100**2
        assert count_admissible(table, 2, threshold) == pairs

    @pytest.mark.parametrize(
        "counts",
        [[1, 2, 4, 8, 16, 32], [1, 2, 3, 4, 6, 8, 12], [3, 5, 15, 9, 25, 45]],
        ids=["powers-of-two", "smooth", "products-of-3-and-5"],
    )
    def test_ties_at_every_split(self, counts):
        # Counts whose products coincide give many multisets of one
        # probability, so thresholds land on ties at every split.
        table = table_from_counts("global", {f"x{i}": c for i, c in enumerate(counts)})
        names = list(table.log10_probs)
        k = len(names)
        checked = set()
        for size in [s for s in range(1, 5) if k**s <= 3000]:
            for multiset in combinations_with_replacement(names, size):
                logp = solution_probability(table, multiset)
                for threshold in (logp, logp - LOG10_SLACK):
                    # Tied multisets repeat a check; each distinct one runs once.
                    if (size, threshold) in checked:
                        continue
                    checked.add((size, threshold))
                    expected = brute_force_count(table, size, threshold)
                    counters = [_Counter(table, floor_at(size, threshold), bottom=b) for b in range(k + 1)]
                    got = [counter.count(size, threshold) for counter in counters]
                    assert got == [expected] * (k + 1), (size, multiset, threshold)

    def test_large_alphabet_against_multiset_enumeration(self):
        # 103 instructions, as many as the README corpus's global table: the
        # default split and no bottom at all both answer one-slot partials
        # by bisection.
        table = table_from_counts("global", {f"x{i}": 10_000 // (i + 1) for i in range(103)})
        logs = list(table.log10_probs.values())
        size = 3
        weighted = []
        for combo in combinations_with_replacement(range(len(logs)), size):
            weight = math.factorial(size)
            for m in Counter(combo).values():
                weight //= math.factorial(m)
            weighted.append((sum(logs[i] for i in combo), weight))
        probabilities = sorted(logp for logp, _ in weighted)
        for q in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99):
            threshold = probabilities[int(q * len(probabilities))]
            thresholds = floor_at(size, threshold)
            counters = [_Counter(table, thresholds), _Counter(table, thresholds, bottom=0)]
            assert counters[0].top < len(logs)
            limit = threshold - LOG10_SLACK
            expected = sum(weight for logp, weight in weighted if logp >= limit)
            assert [counter.count(size, threshold) for counter in counters] == [expected] * 2, q


class TestFloors:
    def test_threshold_below_the_floor_never_undercounts(self):
        # The counter's tables hold only what its own floor can reach; asked
        # below it, a counter raises unless a bound answers without them.
        rng = random.Random(31)
        raised = 0
        for _ in range(60):
            table = random_table(rng, rng.randint(2, 6))
            size = rng.randint(2, 4)
            lo, hi = size * table.min_log10, size * table.max_log10
            floor = rng.uniform(lo, hi)
            threshold = rng.uniform(lo - 0.5, floor)
            expected = brute_force_count(table, size, threshold)
            assert count_admissible(table, size, threshold) == expected
            counter = _Counter(table, floor_at(size, floor))
            if size * counter.logs[-1] >= threshold - LOG10_SLACK:
                assert count_admissible(table, size, threshold, counter=counter) == expected
                continue
            with pytest.raises(ValueError, match="does not serve"):
                count_admissible(table, size, threshold, counter=counter)
            with pytest.raises(ValueError, match="does not serve"):
                counter.count(size, threshold)
            raised += 1
        assert raised >= 20

    def test_bounds_answer_before_any_table(self, clustered_corpus):
        # The README corpus's 103-instruction global table at size 4: a
        # threshold below every candidate, and one above every candidate,
        # are each answered by a bound, so the counter builds no bottom.
        [scope] = build_scopes(clustered_corpus, None, "global", 4)
        table, size = scope.table, 4
        k = len(table.log10_probs)
        assert k == 103
        below, above = size * table.min_log10 - 1.0, size * table.max_log10 + 1.0
        for threshold, expected in ((below, k**size), (above, 0)):
            counter = _Counter(table, floor_at(size, threshold))
            assert counter.top == k
            assert sum(len(keys) for keys, _ in counter.tables) <= 1
            assert count_admissible(table, size, threshold, counter=counter) == expected
            assert count_admissible(table, size, threshold) == expected

    def test_pruned_tables_let_the_bottom_grow(self, clustered_scopes):
        # The 24 README subsets at sizes 5..18, as the count-deep workload
        # counts them. Unpruned, a bottom of 4 of the 10 instructions holds
        # C(18 + 4, 4) = 7,315 entries per subset; pruned, the same budget
        # reaches further.
        kept, bottoms = 0, []
        for scope in clustered_scopes:
            thresholds = {s: t for s, t in scope.thresholds.items() if 5 <= s <= 18}
            kept += sum(len(keys) for keys, _ in _Counter(scope.table, thresholds, bottom=4).tables)
            counter = _Counter(scope.table, thresholds)
            bottoms.append(len(counter.logs) - counter.top)
        assert len(clustered_scopes) == 24
        assert kept <= 0.2 * 24 * math.comb(18 + 4, 4)
        assert min(bottoms) >= 5

    def test_measure_builds_one_counter_per_scope(self, clustered_scopes, monkeypatch):
        # count-deep's 24 README subsets at sizes 5..18: each scope's sizes
        # share one counter, which measure passes to every count.
        built = []

        class Counting(_Counter):
            def __init__(self, table, thresholds, bottom=None):
                built.append(table)
                super().__init__(table, thresholds, bottom)

        monkeypatch.setattr(spacecount, "_Counter", Counting)
        for scope in clustered_scopes:
            assert len(measure(scope, range(5, 19), is_cap=10)) == 14
        assert len(built) == len(clustered_scopes) == 24


def products_at_least(counts: list[int], size: int) -> tuple[list[int], list[int]]:
    """The paper's admissibility in integers: the count products of every
    multiset of ``size`` over ``counts``, ascending, and the suffix sums of
    their multinomial weights, so that ``weights[bisect_left(products, p)]``
    counts the candidates whose probability is at least that of a candidate
    of product ``p`` (probabilities are the products over a common
    denominator)."""
    weighted = Counter()
    for combo in combinations_with_replacement(range(len(counts)), size):
        weight = math.factorial(size)
        for m in Counter(combo).values():
            weight //= math.factorial(m)
        weighted[math.prod(counts[i] for i in combo)] += weight
    products = sorted(weighted)
    return products, list(accumulate(weighted[p] for p in reversed(products)))[::-1] + [0]


class TestIntegerProducts:
    def test_readme_subsets_at_their_own_thresholds(self, clustered_corpus, clustered_scopes):
        checked = 0
        for scope in clustered_scopes:
            table = scope.table
            counter = _Counter(table, {s: t for s, t in scope.thresholds.items() if s <= 6})
            least: dict[int, int] = {}
            for unit in scope.units:
                if unit.size <= 6:
                    product = math.prod(table.counts[i] for i in unit.instructions)
                    least[unit.size] = min(least.get(unit.size, product), product)
            for size, product in least.items():
                products, weights = products_at_least(list(table.counts.values()), size)
                expected = weights[bisect_left(products, product)]
                assert counter.count(size, scope.thresholds[size]) == expected, (table.scope, size)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "counts",
        [[1, 2, 3, 4, 6, 12], [2, 4, 8, 16], [5, 10, 20, 25, 50, 100, 7]],
        ids=["divisors-of-12", "powers-of-two", "mixed"],
    )
    def test_exact_ties_at_every_split(self, counts):
        # Many multisets share one count product, so each candidate's own
        # probability, as a threshold, is an exact tie with others.
        table = table_from_counts("global", {f"x{i}": c for i, c in enumerate(counts)})
        names = list(table.log10_probs)
        ordered = list(table.counts.values())
        k = len(names)
        checked = set()
        for size in range(1, 7):
            products, weights = products_at_least(ordered, size)
            for combo in combinations_with_replacement(range(k), size):
                threshold = solution_probability(table, [names[i] for i in combo])
                product = math.prod(ordered[i] for i in combo)
                # Tied multisets repeat a check; each distinct one runs once.
                if (size, threshold, product) in checked:
                    continue
                checked.add((size, threshold, product))
                expected = weights[bisect_left(products, product)]
                counters = [_Counter(table, floor_at(size, threshold), bottom=b) for b in range(k + 1)]
                got = [counter.count(size, threshold) for counter in counters]
                assert got == [expected] * (k + 1), (size, combo)


class TestCountingProperties:
    def test_sequences_are_multinomial_weighted_multisets(self):
        rng = random.Random(77)
        table = random_table(rng, 4)
        names = list(table.log10_probs)
        size = 5
        threshold = size * table.min_log10 / 2
        expected = 0
        for combo in combinations_with_replacement(names, size):
            if solution_probability(table, combo) >= threshold - 1e-9:
                coeff = math.factorial(size)
                for name in set(combo):
                    coeff //= math.factorial(combo.count(name))
                expected += coeff
        assert count_admissible(table, size, threshold) == expected

    def test_lowering_threshold_is_monotone(self):
        rng = random.Random(13)
        table = random_table(rng, 5)
        size = 6
        thresholds = sorted(rng.uniform(size * table.min_log10, 0.0) for _ in range(10))
        counts = [count_admissible(table, size, t) for t in thresholds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("size", [1, 3, 7, 40])
    def test_extreme_thresholds(self, size):
        table = table_from_counts("global", {"a": 5, "b": 3, "c": 2})
        above = size * table.max_log10 + 0.1
        below = size * table.min_log10 - 0.1
        assert count_admissible(table, size, above) == 0
        assert count_admissible(table, size, below) == 3**size

    def test_threshold_at_exact_minimum_keeps_everything(self):
        table = table_from_counts("global", {"a": 5, "b": 3, "c": 2})
        at_min = 12 * table.min_log10
        assert count_admissible(table, 12, at_min) == 3**12

    def test_corpus_units_are_admissible_at_their_size(self):
        units = tuple(
            ProgramUnit(f"u{i}", tuple(random.Random(i).choices("abc", k=3))) for i in range(20)
        )
        corpus = Corpus(units=units)
        table = table_from_counts("global", {"a": 4, "b": 2, "c": 1})
        thr = derive_thresholds(corpus, table, [u.id for u in corpus.units], max_size=5)
        for size, threshold in thr.thresholds.items():
            assert count_admissible(table, size, threshold) >= 1


class TestBaseline:
    # measure's baseline is is_cap ** size, whatever the scope admits.
    SCOPE = build_scopes(Corpus(units=(ProgramUnit("u1", ("a", "b")),)), None, "global", 2)[0]

    @pytest.mark.parametrize("cap,size,expected", [(10, 3, 1000), (10, 40, 10**40), (1, 7, 1)])
    def test_exact_powers(self, cap, size, expected):
        [m] = measure(dataclasses.replace(self.SCOPE, thresholds={size: 0.0}), [size], is_cap=cap)
        assert m.baseline_count == expected

    def test_invalid(self):
        with pytest.raises(ValueError, match="is_cap must be >= 1"):
            measure(self.SCOPE, [2], is_cap=0)
        with pytest.raises(ValueError, match="size must be >= 1"):
            measure(dataclasses.replace(self.SCOPE, thresholds={0: 0.0}), [0], is_cap=2)


class TestMeasure:
    def test_nothing_pruned(self):
        scope = derive_thresholds(
            Corpus(units=(ProgramUnit("u1", ("a", "b")), ProgramUnit("u2", ("b", "b")))),
            UNIFORM2,
            ["u1", "u2"],
            max_size=5,
        )
        [m] = measure(scope, [2], is_cap=2)
        assert m.admissible_count == 4
        assert m.baseline_count == 4
        assert m.reduction_oom == 0.0

    def test_reduction_in_orders_of_magnitude(self):
        scope = derive_thresholds(Corpus(units=(ProgramUnit("u1", ("a", "a")),)), SKEWED2, ["u1"], max_size=5)
        [m] = measure(scope, [2], is_cap=2)
        assert m.admissible_count == 1
        assert m.baseline_count == 4
        assert m.reduction_oom == pytest.approx(math.log10(4), rel=1e-12)

    def test_missing_threshold_raises(self):
        scope = derive_thresholds(Corpus(units=(ProgramUnit("u1", ("a", "a")),)), SKEWED2, ["u1"], max_size=5)
        with pytest.raises(ValueError, match="no threshold for scope global at size 3"):
            measure(scope, [2, 3], is_cap=2)
        assert [m.size for m in measure(scope, [2], is_cap=2)] == list(scope.thresholds) == [2]

    def test_empty_space_reports_infinite_reduction(self):
        # A fully pruned space cannot come from a scope's own units: give the
        # scope a threshold above every candidate.
        [scope] = build_scopes(Corpus(units=(ProgramUnit("u1", ("a", "b")),)), None, "global", 2)
        [m] = measure(dataclasses.replace(scope, thresholds={2: 0.5}), [2], is_cap=2)
        assert m.admissible_count == 0
        assert m.reduction_oom == math.inf

    def test_csv_renders_counts_exactly_and_inf_distinctly(self, tmp_path):
        # Ten equally likely instructions: every size-40 candidate is as
        # probable as the corpus unit, so all 10**40 are admissible.
        corpus_path, out = tmp_path / "c.jsonl", tmp_path / "m.csv"
        save_corpus(Corpus(units=(ProgramUnit("u1", tuple(f"x{i}" for i in range(10)) * 4),)), corpus_path)
        assert cli.main([
            "measure", "-i", str(corpus_path), "--scope", "global", "--sizes", "40", "--cap", "10", "-o", str(out),
        ]) == 0
        [_, row] = out.read_text().splitlines()
        assert row.split(",")[4:6] == [str(10**40), str(10**40)]
        # A fully pruned space cannot come from corpus thresholds: render one
        # through the writer every artifact uses.
        [scope] = build_scopes(load_corpus(corpus_path), None, "global", 40)
        [m] = measure(dataclasses.replace(scope, thresholds={2: 0.5}), [2], is_cap=10)
        rows = [(m.admissible_count, fmt12(m.reduction_oom))]
        cli._commit([(str(out), functools.partial(cli._write_csv, ["admissible_count", "reduction_oom"], rows))])
        assert out.read_text() == "admissible_count,reduction_oom\n0,inf\n"
