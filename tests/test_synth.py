"""Stack DSL evaluation and the threshold-pruned synthesizer."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import random
from array import array
from http import HTTPStatus
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probsynth import (
    DSL_ALPHABET,
    Fault,
    Scope,
    SearchReport,
    TestCase,
    TestCaseSpec,
    build_scopes,
    cluster_subsets,
    evaluate,
    random_program_corpus,
    solution_probability,
    synthesize,
    table_from_counts,
)
from probsynth.probability import LOG10_SLACK
from probsynth.synth import (
    MAX_PROGRAM_SIZE,
    WIDENING_STEP_LOG10,
    _OPS,
    _solve_mask,
    _SubsetSearch,
    _values_equal,
    load_test_spec,
)

from conftest import cases_from_program, satisfies, write_spec


class TestEvaluate:
    @pytest.mark.parametrize(
        "program,inputs,expected",
        [
            (["push1", "push2", "add"], (), 3),
            (["dup", "add"], (5,), 10),
            (["sum"], ([1, 2, 3],), 6),
            (["push2", "push3", "mul"], (), 6),
            (["push3", "push1", "sub"], (), 2),
            (["push2", "neg"], (), -2),
            (["push2", "inc", "inc"], (), 4),
            (["push2", "dec"], (), 1),
            (["push1", "push2", "swap", "sub"], (), 1),
            (["push1", "push2", "drop"], (), 1),
            (["length"], ([4, 5],), 2),
            (["head"], ([7, 8],), 7),
            (["tail"], ([7, 8, 9],), [8, 9]),
            (["reverse"], ([1, 2, 3],), [3, 2, 1]),
            (["sort"], ([3, 1, 2],), [1, 2, 3]),
            (["concat"], ([1], [2, 3]), [1, 2, 3]),
            (["maximum"], ([4, 9, 2],), 9),
            (["minimum"], ([4, 9, 2],), 2),
            (["map_inc"], ([1, 2],), [2, 3]),
            (["filter_pos"], ([-2, 3, 0, 1],), [3, 1]),
        ],
    )
    def test_op_results(self, program, inputs, expected):
        assert evaluate(program, inputs) == expected

    @pytest.mark.parametrize(
        "program,inputs,reason",
        [
            (["add"], (), "stack-underflow"),
            (["sum"], (5,), "type-mismatch"),
            (["add"], (1, [2]), "type-mismatch"),
            (["head"], ([],), "empty-list"),
            (["drop"], (1,), "empty-stack"),
            (["sub"], ([1], 2), "type-mismatch"),
            (["mul"], ([], []), "type-mismatch"),
            (["inc"], ([1],), "type-mismatch"),
            (["dec"], ([],), "type-mismatch"),
            (["neg"], ([3],), "type-mismatch"),
            (["length"], (4,), "type-mismatch"),
            (["head"], (0,), "type-mismatch"),
            (["tail"], (0,), "type-mismatch"),
            (["reverse"], (2,), "type-mismatch"),
            (["sort"], (2,), "type-mismatch"),
            (["concat"], ([1], 2), "type-mismatch"),
            (["concat"], ([0] * 1025, 2), "type-mismatch"),
            (["maximum"], (3,), "type-mismatch"),
            (["minimum"], (3,), "type-mismatch"),
            (["map_inc"], (2**63 - 1,), "type-mismatch"),
            (["filter_pos"], (1,), "type-mismatch"),
            (["tail"], ([],), "empty-list"),
            (["maximum"], ([],), "empty-list"),
            (["minimum"], ([],), "empty-list"),
            (["add"], (2**63 - 1, 1), "overflow"),
            (["sub"], (-(2**63 - 1), 1), "overflow"),
            (["mul"], (2**62, 2), "overflow"),
            (["inc"], (2**63 - 1,), "overflow"),
            (["dec"], (-(2**63 - 1),), "overflow"),
            (["neg"], (-(2**63),), "overflow"),
            (["sum"], ([2**63 - 1, 1],), "overflow"),
            (["concat"], ([0] * 1000, [0] * 25), "overflow"),
            (["map_inc"], ([5, 2**63 - 1],), "overflow"),
        ],
    )
    def test_faults_are_values(self, program, inputs, reason):
        result = evaluate(program, inputs)
        assert result == Fault(reason)

    def test_overflow_faults(self):
        program = ["push3", "dup"] + ["mul", "dup"] * 40
        result = evaluate(program[:-1], ())
        assert isinstance(result, Fault)
        assert result.reason == "overflow"

    def test_agrees_with_bench_oracle(self):
        # The benchmark checks planted solutions with its own interpreter,
        # written from the documented semantics; drift between the two
        # would otherwise show only when the benchmark runs.
        path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
        module_spec = importlib.util.spec_from_file_location("bench_oracle", path)
        oracle = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(oracle)
        big = 2**63 - 1
        long_list = [big] + list(range(-299, 300))
        stacks = [
            (), (big,), (-big,), ([],), (long_list,), ([], []), (7, 3), (big, -big),
            (5, [3, -1, 2]), ([3, -1, 2], 5), ([-big, 4], big), (long_list, long_list),
        ]
        programs = [p for n in range(1, 4) for p in product(DSL_ALPHABET, repeat=n)]
        for program, stack in product(programs, stacks):
            ours = evaluate(program, stack)
            theirs = oracle.run_program(list(program), list(stack))
            if isinstance(ours, Fault):
                assert theirs is None, (program, stack, ours)
            else:
                assert type(ours) is type(theirs) and ours == theirs, (program, stack)

    def test_unknown_instruction_is_an_error(self):
        with pytest.raises(ValueError, match="frobnicate"):
            evaluate(["frobnicate"], ())

    def test_deterministic(self):
        program = ["push1", "push2", "add", "dup", "mul"]
        assert evaluate(program, ()) == evaluate(program, ())


class TestWellFormed:
    def test_well_formed_programs_never_underflow(self):
        corpus = random_program_corpus(150, "1..6", seed=23)
        for unit in corpus.units:
            result = evaluate(unit.instructions, ())
            assert result != Fault("stack-underflow")
            assert result != Fault("empty-stack")

    def test_needs_a_probe_input(self):
        with pytest.raises(ValueError, match="probe input"):
            random_program_corpus(10, "1..3", seed=23, probe_inputs=())

    def test_program_corpus_deterministic(self):
        a = random_program_corpus(80, "1..5", seed=23, input_arity=1, probe_inputs=((4,),))
        b = random_program_corpus(80, "1..5", seed=23, input_arity=1, probe_inputs=((4,),))
        assert a == b


class TestTestCaseSpec:
    def test_requires_cases(self):
        with pytest.raises(ValueError):
            TestCaseSpec(cases=())

    def test_requires_consistent_arity(self):
        with pytest.raises(ValueError, match="inputs"):
            TestCaseSpec(cases=(TestCase((1,), 1), TestCase((1, 2), 3)))

    def test_rejects_non_dsl_inputs(self):
        with pytest.raises(ValueError):
            TestCaseSpec(cases=(TestCase(("text",), 1),))
        # values are DSL values by exact type, as the instructions see them
        with pytest.raises(ValueError, match="integers or integer lists"):
            TestCaseSpec(cases=(TestCase((HTTPStatus.OK,), 1),))

    def test_round_trip(self, tmp_path):
        spec = TestCaseSpec(cases=(TestCase((5, [1, 2]), [2, 3]), TestCase((6, [0, 0]), [1, 1])))
        path = tmp_path / "spec.json"
        write_spec(spec, path)
        loaded = load_test_spec(path)
        assert loaded.cases[0].inputs == (5, [1, 2])
        assert loaded.cases[0].expected == [2, 3]

    def test_cases_from_program(self):
        spec = cases_from_program(["dup", "add"], [(2,), (5,)])
        assert spec.cases == (TestCase((2,), 4), TestCase((5,), 10))
        with pytest.raises(ValueError, match="faults"):
            cases_from_program(["head"], [([],)])


class TestSynthesize:
    def test_finds_constant_program(self, dsl_scopes):
        spec = TestCaseSpec(cases=(TestCase((), 3),))
        report = _check_against_oracle(spec, dsl_scopes, 3)
        assert report.solution is not None
        assert len(report.solution) <= 3
        assert satisfies(report.solution, spec)
        assert report.nodes_expanded >= 1

    def test_pruned_run_never_expands_more(self, dsl_corpus, dsl_scopes):
        # Both runs return the oracle's solution, and the thresholds cost
        # no extra pops here; criterion 7 checks the same over its planted
        # specs, where they save some.
        planted = next(u for u in dsl_corpus.units if u.size == 4)
        spec = cases_from_program(planted.instructions, [()])
        pruned = _check_against_oracle(spec, dsl_scopes, 4)
        baseline = _check_against_oracle(spec, _scopes(dsl_scopes, False), 4)
        assert pruned.solution is not None
        assert satisfies(pruned.solution, spec)
        assert baseline.nodes_pruned_by_threshold == 0
        assert pruned.nodes_expanded <= baseline.nodes_expanded

    def test_threshold_free_schedule_never_prunes(self, dsl_scopes):
        spec = TestCaseSpec(cases=(TestCase((), 7),))
        report = synthesize(spec, [s.without_thresholds() for s in dsl_scopes], max_size=4)
        assert report.nodes_pruned_by_threshold == 0
        assert report.rounds == 1

    def test_planted_program_recovered(self, dsl_corpus, dsl_family, dsl_scopes):
        planted = next(u for u in dsl_corpus.units if u.size == 6)
        spec = cases_from_program(planted.instructions, [()])
        report = synthesize(spec, dsl_scopes, max_size=6)
        assert report.solution is not None
        assert satisfies(report.solution, spec)
        # prune-safety: the planted unit clears its own size's threshold in
        # the subset that covers it
        cover = next(s for s in dsl_family.subsets if planted.id in s.covered_units)
        log_prob = solution_probability(dsl_scopes[cover.id].table, planted.instructions)
        assert log_prob >= dsl_scopes[cover.id].thresholds[planted.size] - 1e-9

    def test_found_solution_clears_active_threshold(self, dsl_scopes):
        spec = TestCaseSpec(cases=(TestCase((), 5),))
        report = synthesize(spec, dsl_scopes, max_size=4)
        assert report.solution is not None and report.rounds == 1
        table = dsl_scopes[report.solved_subset_id].table
        thr = dsl_scopes[report.solved_subset_id].thresholds
        size = len(report.solution)
        base = thr.get(size, size * table.min_log10)
        assert solution_probability(table, report.solution) >= base - 1e-9

    def test_unsatisfiable_spec_exhausts_schedule(self, dsl_scopes):
        spec = TestCaseSpec(cases=(TestCase((5,), [5]),))
        report = synthesize(spec, dsl_scopes, max_size=3)
        assert report.solution is None
        assert report.rounds == len(report.threshold_schedule_used)
        assert report.rounds >= 1
        # final round ran with every threshold at its floor
        assert report.threshold_schedule_used[-1] == min(report.threshold_schedule_used)

    def test_list_pipeline_synthesis(self):
        alphabet = ("sort", "reverse", "tail", "map_inc", "sum", "head", "dup", "filter_pos")
        corpus = random_program_corpus(
            120, "1..3", seed=41, alphabet=alphabet, input_arity=1, probe_inputs=(([3, 1, 2],),)
        )
        scopes = build_scopes(corpus, cluster_subsets(corpus, cap=8), "subsets", 3)
        spec = TestCaseSpec(
            cases=(TestCase(([3, 1, 2],), [1, 2, 3]), TestCase(([9, 4],), [4, 9]))
        )
        report = synthesize(spec, scopes, max_size=3)
        assert report.solution is not None
        assert satisfies(report.solution, spec)

    @pytest.mark.parametrize("max_size", [0, MAX_PROGRAM_SIZE + 1])
    def test_max_size_out_of_bounds_rejected(self, dsl_scopes, max_size):
        with pytest.raises(ValueError, match=rf"max_size must be in 1\.\.{MAX_PROGRAM_SIZE}, got {max_size}"):
            synthesize(TestCaseSpec(cases=(TestCase((), 3),)), dsl_scopes, max_size)

    def test_report_json_round_trip(self, dsl_scopes):
        spec = TestCaseSpec(cases=(TestCase((), 2),))
        report = synthesize(spec, dsl_scopes, max_size=2)
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert list(payload) == [field.name for field in dataclasses.fields(SearchReport)]
        assert payload["solution"] == list(report.solution)
        assert payload["nodes_expanded"] == report.nodes_expanded
        assert payload["nodes_deduped"] == report.nodes_deduped
        assert type(payload["nodes_deduped"]) is int


class TestWideningSchedule:
    """synthesize's rounds: round r lowers every threshold by 2r orders of magnitude."""

    def test_step_sets_the_schedule(self, dsl_scopes):
        spec = TestCaseSpec(cases=(TestCase((5,), [5]),))
        report = synthesize(spec, dsl_scopes, 3)
        assert report.rounds > 1
        assert report.threshold_schedule_used == [r * -2.0 for r in range(report.rounds)]
        # The first offset is a plain 0.0, written as such in a report.
        assert math.copysign(1.0, report.threshold_schedule_used[0]) == 1.0

    def test_rounds_widen_monotonically(self, dsl_scopes):
        search = _SubsetSearch(dsl_scopes[0], 6)
        previous = None
        for round_index in range(6):
            active, tail_min, _ = search.round_thresholds(round_index * -2.0, 6)
            if previous is not None:
                assert all(a <= p for a, p in zip(active[1:], previous[1:]))
            assert all(tail_min[s] <= active[s] for s in range(1, 7))
            previous = active

    def test_thresholds_never_pass_their_floors(self, dsl_scopes):
        search = _SubsetSearch(dsl_scopes[0], 6)
        active, _, at_floor = search.round_thresholds(-1000.0, 6)
        assert at_floor
        assert active[1:] == search.floors[1:]


def least_key_search(spec, scopes, max_size):
    """Brute-force oracle for ``synthesize``'s order. Every candidate of
    every scope up to ``max_size`` is keyed by (round, -log10 p, scope
    index, path): its round is the first whose ``round_thresholds`` admits
    it at its size, less ``LOG10_SLACK``; log10 p is summed step by step in
    program order; the path is its step indices in the scope's table. The
    candidate is run with ``evaluate``. Returns the least passing key's
    program, its subset id and the rounds of its report: its round + 1, or
    the whole schedule's length when none passes."""
    searches = [_SubsetSearch(scope, max_size) for scope in scopes]
    schedule = []  # per round, each scope's active thresholds
    while True:
        offset = len(schedule) * WIDENING_STEP_LOG10
        rows = [search.round_thresholds(offset, max_size) for search in searches]
        schedule.append([active for active, _, _ in rows])
        if all(at_floor for _, _, at_floor in rows):
            break
    best = None
    for index, search in enumerate(searches):
        names = [name for name, _, _, _ in search.steps]
        logps = [logp for _, logp, _, _ in search.steps]
        for size in range(1, max_size + 1):
            bounds = [active[index][size] - LOG10_SLACK for active in schedule]
            for path in product(range(len(names)), repeat=size):
                logp = 0.0
                for i in path:
                    logp += logps[i]
                round_ = next((r for r, bound in enumerate(bounds) if logp >= bound), None)
                if round_ is None:
                    continue
                key = (round_, -logp, index, path)
                if best is not None and key >= best[0]:
                    continue
                program = tuple(names[i] for i in path)
                if satisfies(program, spec):
                    best = (key, program, search.subset_id)
    if best is None:
        return None, None, len(schedule)
    (round_, _, _, _), program, subset_id = best
    return program, subset_id, round_ + 1


def _check_against_oracle(spec, scopes, max_size):
    """Run synthesize and assert the oracle's program, subset and rounds,
    and the schedule of those rounds, starting at a plain 0.0."""
    report = synthesize(spec, scopes, max_size)
    solution, subset_id, rounds = least_key_search(spec, scopes, max_size)
    assert (report.solution, report.solved_subset_id, report.rounds) == (solution, subset_id, rounds)
    assert report.threshold_schedule_used == [r * WIDENING_STEP_LOG10 for r in range(rounds)]
    assert math.copysign(1.0, report.threshold_schedule_used[0]) == 1.0
    return report


def _scopes(scopes, thresholds):
    """The scopes as given, or without thresholds (``synth --no-prune``)."""
    return scopes if thresholds else [s.without_thresholds() for s in scopes]


PROBES = ((0,), (2,), (3,), (5,), (7,))  # criterion 7's probe inputs
PAIRS = ((4, 9), (-3, 5), (7, 2), (6, -8))  # two-input probes


@pytest.fixture(scope="module")
def planted_fixture():
    """Criterion 7's DSL corpus and its planted programs of sizes 3..5: six
    per size, input-dependent, not computable by one or two instructions,
    covered by a subset and admissible at their size's threshold."""
    corpus = random_program_corpus(1000, "1..6", seed=29, input_arity=1, probe_inputs=PROBES)
    family = cluster_subsets(corpus, cap=10)
    scopes = build_scopes(corpus, family, "subsets", 6)
    easy = {
        tuple(str(evaluate(prog, p)) for p in PROBES)
        for size in (1, 2)
        for prog in product(DSL_ALPHABET, repeat=size)
    }
    pool = random_program_corpus(20_000, "3..6", seed=101, input_arity=1, probe_inputs=PROBES)
    planted = {3: [], 4: [], 5: []}
    for unit in pool.units:
        if unit.size not in planted or len(planted[unit.size]) >= 6:
            continue
        vec = tuple(str(evaluate(unit.instructions, p)) for p in PROBES)
        if len(set(vec)) <= 1 or vec in easy:
            continue
        cover = next((s for s in family.subsets if unit.unique_instructions <= s.members), None)
        if cover is None:
            continue
        base = scopes[cover.id].thresholds.get(unit.size)
        if base is None or solution_probability(scopes[cover.id].table, unit.instructions) < base - 1e-9:
            continue
        planted[unit.size].append(unit.instructions)
    return scopes, [prog for size in (3, 4, 5) for prog in planted[size]]


def _unsatisfiable_spec(seed):
    """Integer inputs and a list output: no instruction builds a list from
    integers, so the whole widening schedule runs: several rounds with
    thresholds, one at the floors without."""
    rng = random.Random(seed)
    return TestCaseSpec(
        cases=tuple(
            TestCase((x,), [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))])
            for x in rng.sample(range(-50, 51), 4)
        )
    )


class TestDominanceOracle:
    """synthesize, with its dominance rule, against the brute-force
    least-key oracle, which has none: the same program, subset and rounds
    on drawn, planted, later-round, list and unsatisfiable specs, with and
    without thresholds."""

    @pytest.mark.parametrize("thresholds", [True, False])
    def test_planted_specs_match_plain_search(self, planted_fixture, thresholds):
        scopes, planted = planted_fixture
        scopes = _scopes(scopes, thresholds)
        assert len(planted) == 18
        deduped = 0
        for program in planted:
            spec = cases_from_program(program, PROBES)
            report = _check_against_oracle(spec, scopes, len(program))
            assert report.solution is not None and satisfies(report.solution, spec)
            deduped += report.nodes_deduped
        assert deduped > 0

    @pytest.mark.parametrize("thresholds", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_unsatisfiable_specs_match_plain_search(self, planted_fixture, thresholds, seed):
        scopes = _scopes(planted_fixture[0], thresholds)
        report = _check_against_oracle(_unsatisfiable_spec(seed), scopes, 4)
        assert report.solution is None and (report.rounds > 1) == thresholds
        assert report.nodes_deduped > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_widening_tests_each_candidate_once(self, planted_fixture, seed, monkeypatch):
        # Each prefix is popped at most once over the whole schedule, and a
        # stack's solve mask serves every round, so the four rounds compare
        # as many outputs as one round at the floors.
        calls = 0

        def counting(result, expected):
            nonlocal calls
            calls += 1
            return _values_equal(result, expected)

        monkeypatch.setattr("probsynth.synth._values_equal", counting)
        spec = _unsatisfiable_spec(seed)
        counts = []
        for thresholds, rounds in ((True, 4), (False, 1)):
            calls = 0
            report = synthesize(spec, _scopes(planted_fixture[0], thresholds), 4)
            assert report.solution is None and report.rounds == rounds
            counts.append(calls)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_widening_visits_about_one_sweep(self, planted_fixture, seed):
        # The rounds share one heap, so the four rounds pop the same
        # prefixes as one round at the floors. Walking every earlier
        # round's tree again cost 3.5 times one sweep.
        spec = _unsatisfiable_spec(seed)
        widened = synthesize(spec, planted_fixture[0], 4)
        swept = synthesize(spec, _scopes(planted_fixture[0], False), 4)
        assert (widened.rounds, swept.rounds) == (4, 1)
        assert widened.nodes_expanded <= 1.15 * swept.nodes_expanded

    # Programs below their size's threshold in the subset that solves them,
    # so only a later widening round admits them: at an interior length and
    # at max_size, with and without dominance hits.
    @pytest.mark.parametrize(
        "program,inputs,max_size,deduped",
        [
            (("mul", "neg"), PAIRS, 3, False),
            (("dup", "mul", "mul"), PAIRS, 4, True),
            (("dup", "mul", "inc"), PROBES, 3, False),
            (("dup", "push3", "mul", "mul"), PROBES, 4, True),
        ],
        ids=["interior", "interior-deduped", "leaf", "leaf-deduped"],
    )
    def test_later_round_solutions_match_reference(self, planted_fixture, program, inputs, max_size, deduped):
        spec = cases_from_program(program, inputs)
        report = _check_against_oracle(spec, planted_fixture[0], max_size)
        assert report.rounds >= 2
        assert report.solution is not None and satisfies(report.solution, spec)
        assert len(report.solution) == len(program)
        assert (report.nodes_deduped > 0) == deduped

    @pytest.mark.parametrize("thresholds", [True, False])
    def test_list_input_spec_matches_plain_search(self, thresholds):
        alphabet = ("sort", "reverse", "tail", "map_inc", "sum", "head", "dup", "filter_pos")
        corpus = random_program_corpus(
            120, "1..3", seed=41, alphabet=alphabet, input_arity=1, probe_inputs=(([3, 1, 2],),)
        )
        scopes = _scopes(build_scopes(corpus, cluster_subsets(corpus, cap=8), "subsets", 4), thresholds)
        spec = cases_from_program(["reverse", "tail", "map_inc"], [([3, -1, 2],), ([9, 4, -7, 0],), ([5, 1, 8],)])
        report = _check_against_oracle(spec, scopes, 4)
        assert report.solution is not None and satisfies(report.solution, spec)
        assert report.nodes_deduped > 0

    @pytest.mark.parametrize("thresholds", [True, False])
    @pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("expected", [[3, 1, 2], [9, 9]], ids=["drop-solves", "unsatisfiable"])
    def test_list_output_specs_match_reference(self, dsl_scopes, expected, max_size, thresholds):
        # A list under an integer on the stack: at the last level, drop
        # exposes the value below the result, and swap and dup leave two.
        spec = TestCaseSpec(cases=(TestCase(([3, 1, 2], 4), expected), TestCase(([3, 1, 2], -1), expected)))
        report = _check_against_oracle(spec, _scopes(dsl_scopes, thresholds), max_size)
        assert (report.solution is not None) == (expected == [3, 1, 2])

    def test_rounding_tie_goes_to_the_least_path(self):
        # push0 add push0 and push0 push0 add leave the same stacks. With
        # these counts the first is one ulp more probable, so it pops first
        # though its path is larger; adding add rounds the two sums to one
        # float, and the tie goes to the smaller path. Dropping every later
        # prefix with the same stacks would return push0 add push0 add.
        table = table_from_counts("is:0", {"push0": 4, "add": 2, "sub": 1, "sort": 4})
        push0, add = table.log10_probs["push0"], table.log10_probs["add"]
        first, later = push0 + add + push0, push0 + push0 + add
        assert first > later and first + add == later + add
        # Size 2 waits for round 1, so push0 add itself is not the answer.
        scope = Scope(0, table, (), array("d"), {2: push0 + add + 0.5}, {2: 1})
        spec = TestCaseSpec(cases=(TestCase((5,), 5), TestCase((7,), 7)))
        report = _check_against_oracle(spec, [scope], 5)
        assert report.solution == ("push0", "push0", "add", "add")
        assert report.nodes_deduped > 0


class TestSolveMasks:
    """A child's test reads its parent's solve masks: one per test case and
    pair of top stack values, computed once per synthesize call."""

    @pytest.mark.parametrize("thresholds", [True, False])
    @pytest.mark.parametrize(
        "cases",
        [
            (((3,), 4), ((3,), 5)),
            # drop push1 leaves [1] in every case
            (((4,), 2), ((9,), 0)),
        ],
        ids=["same-inputs", "drop-push1"],
    )
    def test_equal_stacks_expecting_different_outputs(self, dsl_scopes, cases, thresholds):
        # The cases reach equal stacks but expect different outputs, so a
        # mask read from another case's memo would admit a program that
        # fails this one. No program of up to three instructions solves both.
        spec = TestCaseSpec(cases=tuple(TestCase(inputs, expected) for inputs, expected in cases))
        assert not any(satisfies(p, spec) for size in (1, 2, 3) for p in product(DSL_ALPHABET, repeat=size))
        # Some scope can build drop push1, so the search meets [1] in both cases.
        assert any({"drop", "push1"} <= set(scope.table.log10_probs) for scope in dsl_scopes)
        report = synthesize(spec, _scopes(dsl_scopes, thresholds), 3)
        assert report.solution is None

    @pytest.mark.parametrize("seed", [0, 1])
    def test_floor_sweep_compares_each_stack_once(self, planted_fixture, seed, monkeypatch):
        # A mask is computed once per case and pair of top values, and a
        # prefix's later cases are read only while the AND of its masks is
        # nonzero: one round at the floors makes 2,922 and 6,571
        # comparisons at seeds 0 and 1, where testing each candidate on its
        # own made 24,721.
        calls = 0

        def counting(result, expected):
            nonlocal calls
            calls += 1
            return _values_equal(result, expected)

        monkeypatch.setattr("probsynth.synth._values_equal", counting)
        report = synthesize(_unsatisfiable_spec(seed), _scopes(planted_fixture[0], False), 4)
        assert report.solution is None and report.rounds == 1
        assert 0 < calls <= 0.6 * 24_721

    @pytest.mark.parametrize("seed, whole_stack_calls", [(0, 1_037), (1, 1_463)])
    def test_floor_sweep_computes_masks_per_top_pair(self, planted_fixture, seed, whole_stack_calls, monkeypatch):
        # Stacks that differ only below their top two values share one
        # mask: one round at the floors computes 316 and 708 masks at seeds
        # 0 and 1, where a memo keyed by the whole stack computed 1,037
        # and 1,463.
        calls = 0

        def counting(steps, state, expected):
            nonlocal calls
            calls += 1
            return _solve_mask(steps, state, expected)

        monkeypatch.setattr("probsynth.synth._solve_mask", counting)
        report = synthesize(_unsatisfiable_spec(seed), _scopes(planted_fixture[0], False), 4)
        assert report.solution is None and report.rounds == 1
        assert 0 < calls <= whole_stack_calls / 2


_SMALL_VALUES = st.one_of(st.integers(-3, 3), st.lists(st.integers(-3, 3), max_size=3))


@st.composite
def small_specs(draw):
    """A spec of one to three cases over zero to two inputs: the outputs of
    a random program of one to four instructions, or random values when
    that program faults."""
    arity = draw(st.integers(0, 2))
    inputs = draw(st.lists(st.tuples(*[_SMALL_VALUES] * arity), min_size=1, max_size=3))
    program = draw(st.lists(st.sampled_from(DSL_ALPHABET), min_size=1, max_size=4))
    outputs = [evaluate(program, i) for i in inputs]
    if any(isinstance(out, Fault) for out in outputs):
        outputs = [draw(_SMALL_VALUES) for _ in inputs]
    return TestCaseSpec(cases=tuple(TestCase(i, out) for i, out in zip(inputs, outputs)))


class TestDominanceProperty:
    # Derandomized: unseeded draws made this test's time swing from about
    # 4 to 37 s between runs.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_specs(), st.integers(1, 4), st.booleans())
    def test_random_specs_match_plain_search(self, dsl_scopes, spec, max_size, thresholds):
        _check_against_oracle(spec, _scopes(dsl_scopes, thresholds), max_size)


_EDGE_INTS = (0, 1, -1, 2**63 - 1, -(2**63 - 1))
_STACK_VALUES = st.one_of(
    st.sampled_from(_EDGE_INTS),
    st.integers(-9, 9),
    st.lists(st.one_of(st.integers(-9, 9), st.sampled_from(_EDGE_INTS)), max_size=4),
)


@st.composite
def stacks_and_expected(draw):
    """A stack of zero to five DSL values and an expected output, drawn from
    the stack's own values or from small integers and lists."""
    stack = draw(st.lists(_STACK_VALUES, max_size=5))
    choices = [_SMALL_VALUES] + ([st.sampled_from(stack)] if stack else [])
    return stack, draw(st.one_of(*choices))


class TestSolveMaskReadsTopTwo:
    """The search keys each case's solve masks by the ``repr`` of a stack's
    top two values. That is exact because a mask reads no deeper: every op
    takes at most two arguments, and the one step that pushes nothing,
    ``drop``, exposes the value second from the top."""

    def test_no_op_takes_more_than_two_arguments(self):
        # An op that reads deeper would make the memo's key too short.
        assert max(arity for arity, _ in _OPS.values()) <= 2

    # Derandomized, like TestDominanceProperty, so a run's draws repeat.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data(), stacks_and_expected())
    def test_mask_of_the_top_two_values_is_the_stacks(self, dsl_scopes, data, drawn):
        tables = [_SubsetSearch(scope, 1).steps for scope in dsl_scopes]
        tables.append([(name, 0.0, *_OPS[name]) for name in DSL_ALPHABET])
        steps = data.draw(st.sampled_from(tables))
        stack, expected = drawn
        assert _solve_mask(steps, stack, expected) == _solve_mask(steps, stack[-2:], expected)
