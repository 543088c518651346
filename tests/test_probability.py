"""Probability tables, solution probabilities, thresholds, and ranges."""

from __future__ import annotations

import csv
import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from probsynth import (
    Corpus,
    ProgramUnit,
    build_scopes,
    cli,
    cluster_subsets,
    derive_thresholds,
    global_instruction_probs,
    save_corpus,
    solution_probability,
    subset_instruction_probs,
    table_from_counts,
)
from probsynth.probability import fmt12


def corpus_of(*units):
    return Corpus(units=tuple(ProgramUnit(uid, tuple(instrs)) for uid, instrs in units))


class TestGlobalProbs:
    def test_direct_count(self):
        table = global_instruction_probs(corpus_of(("u1", ["a", "a", "b"])))
        assert 10 ** table.log10_probs["a"] == pytest.approx(2 / 3, rel=1e-12)
        assert 10 ** table.log10_probs["b"] == pytest.approx(1 / 3, rel=1e-12)
        assert sum(table.counts.values()) == 3

    def test_single_symbol(self):
        table = global_instruction_probs(corpus_of(("u1", ["a"]), ("u2", ["a"])))
        assert table.log10_probs["a"] == 0.0

    def test_top_rank_matches_harmonic_prediction(self, zipf_corpus):
        table = global_instruction_probs(zipf_corpus)
        h200 = sum(1 / k for k in range(1, 201))
        top = list(table.log10_probs)[0]
        assert 10 ** table.log10_probs[top] == pytest.approx(1 / h200, rel=0.10)

    def test_normalization(self, zipf_corpus):
        table = global_instruction_probs(zipf_corpus)
        assert abs(sum(10**lp for lp in table.log10_probs.values()) - 1.0) < 1e-9

    def test_rank_order_spans_orders_of_magnitude(self, zipf_corpus):
        table = global_instruction_probs(zipf_corpus)
        ordered = list(table.log10_probs.values())
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert ordered[0] - ordered[-1] > 2.0


class TestSubsetProbs:
    def test_counts_over_covered_units(self):
        corpus = corpus_of(("u1", ["a", "a", "b"]))
        family = cluster_subsets(corpus, cap=2)
        table = subset_instruction_probs(corpus, family.subsets[0])
        assert 10 ** table.log10_probs["a"] == pytest.approx(2 / 3, rel=1e-12)
        assert 10 ** table.log10_probs["b"] == pytest.approx(1 / 3, rel=1e-12)

    def test_symmetric_units(self):
        corpus = corpus_of(("u1", ["a"]), ("u2", ["b"]))
        family = cluster_subsets(corpus, cap=2)
        table = subset_instruction_probs(corpus, family.subsets[0])
        assert 10 ** table.log10_probs["a"] == pytest.approx(0.5, rel=1e-12)
        assert 10 ** table.log10_probs["b"] == pytest.approx(0.5, rel=1e-12)

    def test_all_family_tables_normalized(self, clustered_scopes):
        for table in (s.table for s in clustered_scopes):
            assert abs(sum(10**lp for lp in table.log10_probs.values()) - 1.0) < 1e-9

    def test_tables_in_search_order(self, clustered_corpus, clustered_scopes):
        # The counter and the synthesizer read log10_probs in its own order:
        # non-increasing log10 probability, equal ones by ascending name.
        ties = 0
        for table in [global_instruction_probs(clustered_corpus)] + [s.table for s in clustered_scopes]:
            items = list(table.log10_probs.items())
            assert items == sorted(items, key=lambda kv: (-kv[1], kv[0]))
            ties += len(items) - len(set(table.log10_probs.values()))
        assert ties > 0


def counter_order_probability(table, instructions) -> float:
    """Reference for solution_probability: the multiplicities from a Counter,
    added one float at a time in its (first occurrence) order."""
    total = 0.0
    for instruction, multiplicity in Counter(instructions).items():
        total += multiplicity * table.log10_probs[instruction]
    return total


class TestSolutionProbability:
    def test_bit_equal_to_counter_order_on_readme_corpus(self, clustered_corpus, clustered_family):
        scopes = [(global_instruction_probs(clustered_corpus), [u.id for u in clustered_corpus.units])]
        scopes += [(subset_instruction_probs(clustered_corpus, s), s.covered_units) for s in clustered_family.subsets]
        for table, unit_ids in scopes:
            units = [clustered_corpus.unit_by_id[unit_id].instructions for unit_id in unit_ids]
            expected = [counter_order_probability(table, instructions) for instructions in units]
            assert [solution_probability(table, instructions) for instructions in units] == expected

    def test_product_of_halves(self):
        table = table_from_counts("global", {"a": 1, "b": 1})
        assert solution_probability(table, ["a", "b"]) == pytest.approx(math.log10(0.25), rel=1e-12)

    def test_single_event(self):
        table = table_from_counts("global", {"a": 3, "b": 1})
        assert solution_probability(table, ["a"]) == pytest.approx(math.log10(0.75), rel=1e-12)

    def test_duplicates_multiply(self):
        table = table_from_counts("global", {"a": 9, "b": 1})
        assert solution_probability(table, ["a", "a", "b"]) == pytest.approx(
            math.log10(0.081), rel=1e-12
        )

    def test_missing_instruction(self):
        table = table_from_counts("global", {"a": 1})
        with pytest.raises(KeyError, match="zzz"):
            solution_probability(table, ["zzz"])

    def test_appending_never_increases(self):
        rng = random.Random(99)
        table = table_from_counts("global", {f"x{i}": rng.randint(1, 30) for i in range(6)})
        names = list(table.log10_probs)
        for _ in range(200):
            multiset = rng.choices(names, k=rng.randint(1, 8))
            base = solution_probability(table, multiset)
            extended = solution_probability(table, multiset + [rng.choice(names)])
            assert extended <= base

    def test_log_matches_exact_rational(self):
        rng = random.Random(7)
        for _ in range(1000):
            k = rng.randint(2, 6)
            counts = {f"x{i}": rng.randint(1, 99) for i in range(k)}
            table = table_from_counts("global", counts)
            total = sum(counts.values())
            names = list(counts)
            multiset = rng.choices(names, k=rng.randint(1, 10))
            exact = Fraction(1)
            for name in multiset:
                exact *= Fraction(counts[name], total)
            log_ps = solution_probability(table, multiset)
            assert 10**log_ps == pytest.approx(float(exact), rel=1e-9)


class TestDeriveThresholds:
    def test_min_of_two_products(self):
        corpus = corpus_of(("u1", ["a", "b"]), ("u2", ["a", "a"]))
        table = table_from_counts("global", {"a": 9, "b": 1})
        thr = derive_thresholds(corpus, table, ["u1", "u2"], max_size=10)
        assert thr.thresholds[2] == pytest.approx(math.log10(0.09), rel=1e-12)
        assert thr.support_counts[2] == 2

    def test_singleton_min(self):
        corpus = corpus_of(("u1", ["a", "b", "a"]))
        table = table_from_counts("global", {"a": 2, "b": 1})
        thr = derive_thresholds(corpus, table, ["u1"], max_size=10)
        assert thr.thresholds[3] == solution_probability(table, ["a", "b", "a"])
        assert list(thr.thresholds) == [3]

    def test_unsupported_sizes_absent(self):
        corpus = corpus_of(("u1", ["a", "a"]))
        table = table_from_counts("global", {"a": 1})
        thr = derive_thresholds(corpus, table, ["u1"], max_size=10)
        assert 1 not in thr.thresholds and 3 not in thr.thresholds

    def test_oversize_units_filtered(self):
        corpus = corpus_of(("u1", ["a"] * 5), ("u2", ["a"]))
        table = table_from_counts("global", {"a": 1})
        thr = derive_thresholds(corpus, table, ["u1", "u2"], max_size=3)
        assert list(thr.thresholds) == [1]

    def test_every_unit_clears_its_threshold(self, clustered_corpus):
        table = global_instruction_probs(clustered_corpus)
        ids = [u.id for u in clustered_corpus.units]
        thr = derive_thresholds(clustered_corpus, table, ids, max_size=30)
        for unit in clustered_corpus.units:
            log_prob = solution_probability(table, unit.instructions)
            assert log_prob >= thr.thresholds[unit.size]

    def test_empty_scope_rejected(self):
        corpus = corpus_of(("u1", ["a"]))
        table = table_from_counts("global", {"a": 1})
        with pytest.raises(ValueError):
            derive_thresholds(corpus, table, [], max_size=5)


class TestBuildScopes:
    @pytest.mark.parametrize("which", ["global", "subsets", "both"])
    def test_matches_tables_and_derive_thresholds(self, clustered_corpus, clustered_family, which):
        corpus = clustered_corpus
        expected = []
        if which in ("global", "both"):
            expected.append((None, global_instruction_probs(corpus), [u.id for u in corpus.units]))
        if which in ("subsets", "both"):
            expected.extend(
                (s.id, subset_instruction_probs(corpus, s), list(s.covered_units)) for s in clustered_family.subsets
            )
        # max size 20 of the corpus's 30, so oversize units are filtered
        scopes = build_scopes(corpus, clustered_family, which, 20)
        assert [s.subset_id for s in scopes] == [subset_id for subset_id, _, _ in expected]
        for scope, (_, table, unit_ids) in zip(scopes, expected):
            assert scope.table == table
            derived = derive_thresholds(corpus, table, unit_ids, 20)
            assert derived.subset_id is None
            assert scope == dataclasses.replace(derived, subset_id=scope.subset_id)
            kept = [corpus.unit_by_id[uid] for uid in unit_ids if corpus.unit_by_id[uid].size <= 20]
            # The corpus's own unit objects, not copies.
            assert len(scope.units) == len(kept) and all(a is b for a, b in zip(scope.units, kept))
            assert list(scope.unit_log10_probs) == [solution_probability(table, unit.instructions) for unit in kept]

    def test_without_thresholds(self, clustered_corpus):
        [scope] = build_scopes(clustered_corpus, None, "global", 30)
        bare = scope.without_thresholds()
        assert bare.thresholds == {} and bare.support_counts == {}
        assert bare.table == scope.table and bare.units == scope.units

    def test_unknown_selection_rejected(self, clustered_corpus):
        with pytest.raises(ValueError, match="scope selection"):
            build_scopes(clustered_corpus, None, "auto", 30)


class TestProbabilityRange:
    """The ``thresholds --ranges`` rows of the global scope."""

    @staticmethod
    def _ranges(tmp_path, *units, max_size):
        """Run ``thresholds --scope global --ranges`` on a corpus of the given
        units; return the global table and the ranges rows by size."""
        corpus = corpus_of(*units)
        corpus_path, ranges = tmp_path / "c.jsonl", tmp_path / "ranges.csv"
        save_corpus(corpus, corpus_path)
        assert cli.main([
            "thresholds", "-i", str(corpus_path), "--scope", "global", "--max-size", str(max_size),
            "--ranges", str(ranges), "-o", str(tmp_path / "thr.csv"),
        ]) == 0
        rows = {int(row["size"]): row for row in csv.DictReader(ranges.read_text().splitlines())}
        assert sorted(rows) == list(range(1, max_size + 1))
        return global_instruction_probs(corpus), rows

    def test_two_instruction_table(self, tmp_path):
        table, rows = self._ranges(tmp_path, ("u1", ["a"] * 9 + ["b"]), max_size=10)
        assert table.counts == {"a": 9, "b": 1}
        assert float(rows[2]["min_possible_log10"]) == pytest.approx(math.log10(0.01), rel=1e-12)
        assert float(rows[2]["max_possible_log10"]) == pytest.approx(math.log10(0.81), rel=1e-12)

    def test_size_one_equals_entries(self, tmp_path):
        table, rows = self._ranges(tmp_path, ("u1", ["a", "a", "a", "b"]), max_size=4)
        assert rows[1]["min_possible_log10"] == fmt12(table.min_log10)
        assert rows[1]["max_possible_log10"] == fmt12(table.max_log10)

    def test_observed_summary_within_possible(self, tmp_path):
        units = [("u1", ["a", "a", "a"]), ("u2", ["a", "a", "b"]), ("u3", ["a", "b", "c"]), ("u4", ["a"])]
        table, rows = self._ranges(tmp_path, *units, max_size=4)
        low, mid, high = (solution_probability(table, instrs) for _, instrs in units[2::-1])
        row = rows[3]
        assert [row["observed_min_log10"], row["observed_median_log10"], row["observed_max_log10"]] == [
            fmt12(low), fmt12(mid), fmt12(high)
        ]
        assert row["n_observed"] == "3"
        assert float(row["min_possible_log10"]) <= low <= mid <= high <= float(row["max_possible_log10"])
        for size in (2, 4):
            assert [rows[size][key] for key in list(row)[4:]] == ["", "", "", "0"]

    def test_ranges_agree_with_thresholds_on_readme_corpus(self, tmp_path, clustered_corpus):
        # The observed minimum and count of each (scope, size) are its
        # threshold and support; both are empty and 0 where it has none.
        corpus_path, family_path = tmp_path / "c.jsonl", tmp_path / "f.jsonl"
        thresholds, ranges = tmp_path / "thr.csv", tmp_path / "ranges.csv"
        save_corpus(clustered_corpus, corpus_path)
        assert cli.main(["cluster", "-i", str(corpus_path), "--cap", "10", "-o", str(family_path)]) == 0
        assert cli.main([
            "thresholds", "-i", str(corpus_path), "--family", str(family_path), "--max-size", "30",
            "--ranges", str(ranges), "-o", str(thresholds),
        ]) == 0
        expected = {
            (row["scope"], row["size"]): (row["log10_probability"], row["count"])
            for row in csv.DictReader(thresholds.read_text().splitlines())
        }
        rows = list(csv.DictReader(ranges.read_text().splitlines()))
        assert len({row["scope"] for row in rows}) == 25 and len(rows) == 25 * 30
        observed = {(row["scope"], row["size"]): (row["observed_min_log10"], row["n_observed"]) for row in rows}
        assert expected.keys() < observed.keys()
        for key, value in observed.items():
            assert value == expected.get(key, ("", "0")), key
