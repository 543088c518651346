"""Acceptance suite: one test per exit criterion.

Each criterion prints a single pass/fail line; run with

    pytest tests/test_acceptance.py -s

to see them. Several criteria compare exact small-instance oracles;
the trend criteria run on frozen synthetic corpora (fixed seeds), so
every number here is reproducible.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import product

import pytest

from probsynth import (
    DSL_ALPHABET,
    baseline_size,
    brute_force_count,
    build_scopes,
    cases_from_program,
    cli,
    cluster_subsets,
    count_admissible,
    derive_thresholds,
    evaluate,
    global_instruction_probs,
    measure,
    random_program_corpus,
    satisfies,
    solution_probability,
    synthesize,
    table_from_counts,
    validate,
)
from fractions import Fraction

from test_synth import uncut_synthesize


def report(number, name, ok, detail=""):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


class TestCriterion1OracleEquivalence:
    def test_count_matches_brute_force(self):
        rng = random.Random(1001)
        started = time.monotonic()
        checked = 0
        for _ in range(200):
            k = rng.randint(2, 5)
            table = table_from_counts("global", {f"x{i}": rng.randint(1, 50) for i in range(k)})
            size = rng.randint(1, 6)
            threshold = rng.uniform(size * table.min_log10 - 1.0, size * table.max_log10 + 1.0)
            fast = count_admissible(table, size, threshold)
            slow = brute_force_count(table, size, threshold)
            assert fast == slow, (table.counts, size, threshold, fast, slow)
            checked += 1
        elapsed = time.monotonic() - started
        report(
            1,
            "oracle equivalence",
            elapsed < 60.0,
            f"{checked} counts identical to brute force in {elapsed:.1f}s",
        )


class TestCriterion2Normalization:
    def test_all_tables_sum_to_one(self, clustered_corpus, clustered_scopes):
        tables = [global_instruction_probs(clustered_corpus)] + [s.table for s in clustered_scopes]
        worst = max(abs(sum(10**lp for lp in t.log10_probs.values()) - 1.0) for t in tables)
        report(
            2,
            "normalization",
            worst < 1e-9,
            f"{len(tables)} tables (global + per-subset), max |sum-1| = {worst:.2e}",
        )


class TestCriterion3ByConstructionCoverage:
    def test_every_scope_unit_clears_threshold(self, clustered_corpus, clustered_family, clustered_scopes):
        exceptions = 0
        checked = 0
        table = global_instruction_probs(clustered_corpus)
        thr = derive_thresholds(
            clustered_corpus, table, [u.id for u in clustered_corpus.units], 30
        )
        for unit in clustered_corpus.units:
            checked += 1
            if solution_probability(table, unit.instructions) < thr.thresholds[unit.size]:
                exceptions += 1
        for subset in clustered_family.subsets:
            sub_table = clustered_scopes[subset.id].table
            sub_thr = clustered_scopes[subset.id].thresholds
            for uid in subset.covered_units:
                unit = clustered_corpus.unit_by_id[uid]
                checked += 1
                log_prob = solution_probability(sub_table, unit.instructions)
                if log_prob < sub_thr.thresholds[unit.size]:
                    exceptions += 1
        report(
            3,
            "by-construction coverage",
            exceptions == 0,
            f"{checked} unit/threshold checks, {exceptions} exceptions (exact comparison)",
        )


class TestCriterion4ThresholdExtremes:
    def test_above_max_empty_below_min_full(self, clustered_scopes):
        rng = random.Random(44)
        cases = []
        for _ in range(10):
            k = rng.randint(2, 6)
            cases.append(table_from_counts("global", {f"x{i}": rng.randint(1, 30) for i in range(k)}))
        cases.extend(s.table for s in clustered_scopes[:5])
        checked = 0
        for table in cases:
            for size in (1, 3, 11, 40):
                above = size * table.max_log10 + 1e-6
                below = size * table.min_log10 - 1e-6
                at_min = size * table.min_log10
                assert count_admissible(table, size, above) == 0
                full = baseline_size(len(table.log10_probs), size)
                assert count_admissible(table, size, below) == full
                assert count_admissible(table, size, at_min) == full
                checked += 1
        report(4, "threshold extremes", True, f"{checked} (table, size) pairs at both extremes")


class TestCriterion5ReductionTrend:
    def test_median_reduction_positive_and_rising(self, clustered_family, clustered_scopes):
        started = time.monotonic()
        sizes = list(range(5, 21))
        reductions = {s: [] for s in sizes}
        for subset in clustered_family.subsets:
            scope = clustered_scopes[subset.id]
            for m in measure(scope.table, scope.thresholds, sizes, is_cap=10):  # clustered_family's cap
                reductions[m.size].append(m.reduction_oom)
        elapsed = time.monotonic() - started
        medians = {s: statistics.median(v) for s, v in reductions.items() if v}
        assert set(medians) == set(sizes), "every size 5..20 must be measured"
        all_positive = all(m > 0 for m in medians.values())
        fit = statistics.linear_regression(list(medians), list(medians.values()))
        ok = all_positive and fit.slope >= 0 and elapsed < 600
        report(
            5,
            "reduction trend",
            ok,
            f"median reduction {min(medians.values()):.2f}..{max(medians.values()):.2f} OOM, "
            f"slope {fit.slope:+.3f}/size, {elapsed:.0f}s",
        )


class TestCriterion6CrossValidationShape:
    def test_monotone_means_and_total_self_coverage(self, zipf_corpus):
        fractions = [0.001, 0.01, 0.05, 0.25]
        results = validate(zipf_corpus, fractions, max_size=40, seed=401)
        means = [r.mean_coverage() for r in results]
        monotone = all(a <= b for a, b in zip(means, means[1:]))

        table = global_instruction_probs(zipf_corpus)
        ids = [u.id for u in zipf_corpus.units]
        thr = derive_thresholds(zipf_corpus, table, ids, 40)
        self_total = all(
            solution_probability(table, u.instructions) >= thr.thresholds[u.size]
            for u in zipf_corpus.units
        )
        report(
            6,
            "cross-validation shape",
            monotone and self_total,
            f"means {['%.1f' % m for m in means]} non-decreasing; self-coverage 100%",
        )


PROBES = ((0,), (2,), (3,), (5,), (7,))


@pytest.fixture(scope="module")
def synth_fixture():
    corpus = random_program_corpus(1000, "1..6", seed=29, input_arity=1, probe_inputs=PROBES)
    family = cluster_subsets(corpus, cap=10)
    return corpus, family, build_scopes(corpus, family, "subsets", 6)


class TestCriterion7SynthesizerPruneBenefit:
    def _planted_specs(self, family, scopes):
        """Planted programs drawn from the corpus distribution: sizes 3..6,
        input-dependent, not computable by any program of at most two
        instructions, covered by a family subset, and admissible at their
        own size's threshold (so the space the thresholds define can
        recreate them)."""
        easy = set()
        for size in (1, 2):
            for prog in product(DSL_ALPHABET, repeat=size):
                easy.add(tuple(str(evaluate(prog, p)) for p in PROBES))
        pool = random_program_corpus(20_000, "3..6", seed=101, input_arity=1, probe_inputs=PROBES)
        by_size = {3: [], 4: [], 5: [], 6: []}
        for unit in pool.units:
            vec = tuple(str(evaluate(unit.instructions, p)) for p in PROBES)
            if len(set(vec)) <= 1 or vec in easy:
                continue
            covers = [s for s in family.subsets if unit.unique_instructions <= s.members]
            if not covers:
                continue
            cover = covers[0]
            log_prob = solution_probability(scopes[cover.id].table, unit.instructions)
            base = scopes[cover.id].thresholds.thresholds.get(unit.size)
            if base is None or log_prob < base - 1e-9:
                continue
            by_size[unit.size].append((unit, cover.id, log_prob, base))
        return [entry for size in (3, 4, 5, 6) for entry in by_size[size][:6]]

    def test_soundness_strict_prune_benefit_and_safety(self, synth_fixture):
        corpus, family, scopes = synth_fixture
        planted = self._planted_specs(family, scopes)
        assert len(planted) >= 20, f"need at least 20 planted specs, got {len(planted)}"
        n_strict = n_sound = n_safe = 0
        for unit, cover_id, log_prob, base in planted:
            spec = cases_from_program(unit.instructions, PROBES)
            pruned = synthesize(spec, scopes, max_size=unit.size)
            baseline = uncut_synthesize(spec, scopes, unit.size)
            if pruned.solution is not None and satisfies(pruned.solution, spec):
                n_sound += 1
            if pruned.nodes_expanded < baseline.nodes_expanded:
                n_strict += 1
            if log_prob >= base - 1e-9:
                n_safe += 1
        ok = n_sound == len(planted) and n_strict == len(planted) and n_safe == len(planted)
        report(
            7,
            "synthesizer prune benefit",
            ok,
            f"{len(planted)} planted specs (sizes 3-6): sound {n_sound}, "
            f"strictly fewer nodes {n_strict}, prune-safe {n_safe}",
        )


class TestCriterion8PipelineDeterminism:
    def _run_pipeline(self, root, threads):
        corpus = root / "c.jsonl"
        family = root / "f.jsonl"
        outputs = {
            "probs": root / "probs.csv",
            "thresholds": root / "thr.csv",
            "measure": root / "meas.csv",
            "validate": root / "val.csv",
        }
        steps = [
            ["gen", "--units", "2000", "--alphabet", "60", "--sizes", "1..16",
             "--seed", "5", "--clusters", "12", "-o", str(corpus)],
            ["cluster", "--cap", "10", "-i", str(corpus), "-o", str(family)],
            ["probs", "-i", str(corpus), "--family", str(family), "-o", str(outputs["probs"])],
            ["thresholds", "-i", str(corpus), "--family", str(family), "--max-size", "16",
             "-o", str(outputs["thresholds"])],
            ["measure", "-i", str(corpus), "--family", str(family), "--scope", "subsets",
             "--sizes", "4..10", "--cap", "10", "--threads", threads,
             "-o", str(outputs["measure"])],
            ["validate", "-i", str(corpus), "--fractions", "0.01,0.05,0.25",
             "--max-size", "16", "--seed", "3", "-o", str(outputs["validate"])],
        ]
        for step in steps:
            assert cli.main(step) == 0, f"step failed: {step[0]}"
        return {name: path.read_bytes() for name, path in outputs.items()} | {
            "corpus": corpus.read_bytes(),
            "family": family.read_bytes(),
        }

    def test_identical_bytes_across_runs_and_threads(self, tmp_path):
        first = self._run_pipeline(tmp_path / "run1", "1")
        second = self._run_pipeline(tmp_path / "run2", "1")
        threaded = self._run_pipeline(tmp_path / "run3", "8")
        same_reruns = first == second
        same_threads = first == threaded
        report(
            8,
            "pipeline determinism",
            same_reruns and same_threads,
            f"{len(first)} artifacts byte-identical across reruns and measure --threads 1 vs 8",
        )

    @pytest.fixture(autouse=True)
    def _mkdirs(self, tmp_path):
        for name in ("run1", "run2", "run3"):
            (tmp_path / name).mkdir()


class TestCriterion9LogExactAgreement:
    def test_log_domain_matches_rationals(self):
        rng = random.Random(909)
        worst = 0.0
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
            rel = abs(10 ** solution_probability(table, multiset) - float(exact)) / float(exact)
            worst = max(worst, rel)
        report(
            9,
            "log/exact agreement",
            worst < 1e-9,
            f"1000 multisets, worst relative error {worst:.2e}",
        )
