"""Threshold cross-validation: splits, coverage, and the fraction sweep."""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probsynth import (
    LOG10_SLACK,
    Corpus,
    ProgramUnit,
    ValidationResult,
    cli,
    derive_thresholds,
    generate_zipf_corpus,
    global_instruction_probs,
    save_corpus,
    solution_probability,
    validate,
)
from probsynth.probability import fmt12
from probsynth.xval import _split_indices

HEADER = "fraction,size,coverage_pct,n_test_pus\n"


@pytest.fixture(scope="module")
def corpus100():
    return generate_zipf_corpus(100, 20, 1.0, "1..8", seed=6)


def _split(corpus, fraction, seed):
    """The (train, test) units of one split, each in corpus order."""
    train = _split_indices(len(corpus.units), fraction, seed)
    return (
        [u for i, u in enumerate(corpus.units) if i in train],
        [u for i, u in enumerate(corpus.units) if i not in train],
    )


def _mean_coverage(result):
    return statistics.fmean(result.per_size_coverage.values())


def _reference_validate(corpus, fractions, max_size, seed):
    """The per-split protocol spelled out: split the corpus, derive the
    training part's thresholds, and score every test unit, all under the
    full corpus's table."""
    table = global_instruction_probs(corpus)
    results = []
    for fraction in fractions:
        train, test = _split(corpus, fraction, seed)
        thresholds = derive_thresholds(corpus, table, [u.id for u in train], max_size).thresholds
        hits = dict.fromkeys(thresholds, 0)
        totals = dict.fromkeys(thresholds, 0)
        for unit in test:
            if unit.size > max_size or unit.size not in thresholds:
                continue
            totals[unit.size] += 1
            if solution_probability(table, unit.instructions) >= thresholds[unit.size] - LOG10_SLACK:
                hits[unit.size] += 1
        sizes = sorted(thresholds)
        results.append(
            ValidationResult(
                training_fraction=fraction,
                per_size_coverage={s: 100.0 * hits[s] / totals[s] if totals[s] else 100.0 for s in sizes},
                per_size_test_counts={s: totals[s] for s in sizes},
            )
        )
    return results


def _csv(corpus, fractions, max_size, seed):
    """The text ``validate`` writes for the corpus, or None when it exits 1."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, out = Path(tmp, "c.jsonl"), Path(tmp, "v.csv")
        save_corpus(corpus, corpus_path)
        argv = [
            "validate", "-i", str(corpus_path), "--fractions", ",".join(map(repr, fractions)),
            "--max-size", str(max_size), "--seed", str(seed), "-o", str(out),
        ]
        return out.read_text(encoding="utf-8") if cli.main(argv) == 0 else None


def _assert_matches_reference(corpus, fractions, max_size, seed):
    got = validate(corpus, fractions, max_size, seed)
    want = _reference_validate(corpus, fractions, max_size, seed)
    assert got == want
    # Equal dicts may still differ in order, which the CSV rows follow.
    rows = [
        f"{fmt12(r.training_fraction)},{size},{fmt12(coverage)},{r.per_size_test_counts[size]}\n"
        for r in want
        for size, coverage in r.per_size_coverage.items()
    ]
    assert _csv(corpus, fractions, max_size, seed) == (HEADER + "".join(rows) if rows else None)


class TestSplitCorpus:
    def test_half_split(self):
        train = _split_indices(100, 0.5, seed=3)
        assert len(train) == 50
        assert train <= set(range(100))

    def test_tiny_fraction_clamps_to_one(self):
        assert len(_split_indices(100, 0.005, seed=3)) == 1

    def test_huge_fraction_keeps_test_non_empty(self):
        assert len(_split_indices(100, 0.999, seed=3)) == 99

    def test_deterministic(self):
        assert _split_indices(100, 0.3, seed=9) == _split_indices(100, 0.3, seed=9)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError):
            _split_indices(100, fraction, seed=1)

    def test_needs_two_units(self):
        with pytest.raises(ValueError):
            _split_indices(1, 0.5, seed=1)


class TestCoverage:
    def test_self_coverage_is_total(self, corpus100):
        table = global_instruction_probs(corpus100)
        ids = [u.id for u in corpus100.units]
        thr = derive_thresholds(corpus100, table, ids, max_size=8)
        for unit in corpus100.units:
            log_prob = solution_probability(table, unit.instructions)
            assert log_prob >= thr.thresholds[unit.size]

    def test_single_held_out_unit(self, corpus100):
        seed = 12
        train, [held_out] = _split(corpus100, 0.99, seed)
        table = global_instruction_probs(corpus100)
        thr = derive_thresholds(corpus100, table, [u.id for u in train], max_size=8)
        [result] = validate(corpus100, [0.99], max_size=8, seed=seed)
        size = held_out.size
        if size in thr.thresholds:
            log_prob = solution_probability(table, held_out.instructions)
            expected = 100.0 if log_prob >= thr.thresholds[size] - 1e-9 else 0.0
            assert result.per_size_coverage[size] == expected
        else:
            assert size not in result.per_size_coverage

    def test_raising_threshold_never_raises_coverage(self, corpus100):
        table = global_instruction_probs(corpus100)
        train, test = _split(corpus100, 0.3, seed=4)
        thr = derive_thresholds(corpus100, table, [u.id for u in train], max_size=8)
        test_probs = [
            (u.size, solution_probability(table, u.instructions)) for u in test
        ]
        for size, threshold in thr.thresholds.items():
            of_size = [p for s, p in test_probs if s == size]
            if not of_size:
                continue
            base = sum(1 for p in of_size if p >= threshold - 1e-9)
            raised = sum(1 for p in of_size if p >= threshold + 0.5 - 1e-9)
            assert raised <= base


class TestValidate:
    def test_deterministic(self, corpus100):
        a = validate(corpus100, [0.2, 0.5], max_size=8, seed=2)
        b = validate(corpus100, [0.2, 0.5], max_size=8, seed=2)
        assert a == b

    def test_sizes_partition(self, corpus100):
        [result] = validate(corpus100, [0.1], max_size=12, seed=5)
        train, _ = _split(corpus100, 0.1, seed=5)
        # Sizes 1..12 split into those the training part has, which carry a
        # coverage, and the rest, which carry none.
        assert set(result.per_size_coverage) == {u.size for u in train if u.size <= 12}

    def test_mean_coverage_rises_with_fraction(self, zipf_corpus):
        results = validate(zipf_corpus, [0.001, 0.01, 0.05, 0.25], max_size=40, seed=401)
        means = [_mean_coverage(r) for r in results]
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_five_percent_training_covers_most(self, zipf_corpus):
        # desk-scale analog of near-total coverage from a small training
        # slice; the 90% bound was frozen after a pilot run of this fixture
        # (pilot mean: 92.8%)
        [result] = validate(zipf_corpus, [0.05], max_size=40, seed=401)
        assert _mean_coverage(result) >= 90.0

    @pytest.mark.parametrize(
        "corpus_name, max_size",
        [("corpus100", 6), ("zipf_corpus", 30)],
        ids=["corpus100", "zipf_corpus"],
    )
    def test_matches_per_split_reference(self, request, corpus_name, max_size):
        # max_size is below each corpus's largest unit (8 and 40).
        corpus = request.getfixturevalue(corpus_name)
        for seed in (7, 8):
            _assert_matches_reference(corpus, [0.01, 0.25], max_size, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        units=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "rare"]), min_size=1, max_size=6),
            min_size=2,
            max_size=12,
        ),
        fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
        max_size=st.integers(1, 7),
        seed=st.integers(0, 1000),
    )
    def test_matches_reference_on_small_corpora(self, units, fractions, max_size, seed):
        corpus = Corpus(units=tuple(ProgramUnit(f"u{i}", tuple(instrs)) for i, instrs in enumerate(units)))
        _assert_matches_reference(corpus, fractions, max_size, seed)

    def test_csv_export(self, corpus100):
        [result] = validate(corpus100, [0.25], max_size=8, seed=3)
        text = _csv(corpus100, [0.25], 8, 3)
        assert text.startswith(HEADER)
        assert len(text.splitlines()) == 1 + len(result.per_size_coverage)
