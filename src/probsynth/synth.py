"""Generate-and-test synthesizer over a small stack DSL, pruned by solution probability.

Programs are flat sequences of instructions from a fixed 24-instruction
stack language over integers and integer lists. Evaluation faults (stack
underflow, type mismatch, overflow, empty-list access) are ordinary values
rather than exceptions, so candidate programs can be executed blindly.

The synthesizer walks each subset scope (``probability.build_scopes``) in
turn, extending partial programs depth-first in descending
instruction-probability order and testing each generated candidate that
clears the threshold for its size.
A partial of length L is cut when its solution probability falls below
every threshold it could still reach (the per-size thresholds for sizes L
and up); since adding instructions only lowers the probability, this cut
never removes a candidate the thresholds admit. If a full sweep at one
threshold level fails, all thresholds are widened by a fixed log10 step
(``WIDENING_STEP_LOG10``, two orders of magnitude) and the sweep repeats,
down to the minimum possible probability per size (its floor). A size
with no threshold sits at its floor from the start, so scopes without
thresholds search the whole subset space in one round. A round tests only
the candidates its thresholds newly admit: those the round before admitted
are known to fail, as it found no solution.

Children are generated in descending log-probability, and adding a fixed
log-probability to each keeps that order (float addition is monotone), so
the first child below the cut ends its level: the rest are counted as cut
without being looked at. A child of ``max_size`` instructions is never
extended, so no stack state is kept for it: it is stepped only when it
clears its size's threshold, one test case at a time, up to the first
case it fails.

Within one subset and round, a prefix whose stack states on every test
case equal those of an earlier prefix of the same length, at no higher
log-probability, is still tested but its subtree is skipped: the earlier
prefix's subtree holds a twin of every completion, with the same outputs
and at least the same probability at every length, and was searched
first. This is the observational-equivalence pruning of TRANSIT and
Escher, restricted to same-length prefixes because the thresholds are per
size, so the search returns the solution the plain depth-first search
would.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, ProgramUnit, SizeSpec, parse_size_spec
from .probability import LOG10_SLACK, Scope

INT_LIMIT = 2**63
LIST_LIMIT = 1024

# How far each widening round lowers every threshold, in log10.
WIDENING_STEP_LOG10 = -2.0


@dataclass(frozen=True)
class Fault:
    """Evaluation fault carried as a value."""

    reason: str


# Fault is frozen, so one shared instance per reason serves every step.
_TYPE_MISMATCH = Fault("type-mismatch")
_OVERFLOW = Fault("overflow")
_EMPTY_LIST = Fault("empty-list")
_UNDERFLOW = Fault("stack-underflow")


def _bounded(n: int):
    return (n,) if -INT_LIMIT < n < INT_LIMIT else _OVERFLOW


# name -> (input arity, output arity, implementation). Each implementation
# checks its argument types (exact int or list) first, then returns the
# values it pushes or a shared Fault.
_OPS = {
    "push0": (0, 1, lambda: (0,)),
    "push1": (0, 1, lambda: (1,)),
    "push2": (0, 1, lambda: (2,)),
    "push3": (0, 1, lambda: (3,)),
    "add": (2, 1, lambda x, y: _bounded(x + y) if type(x) is int and type(y) is int else _TYPE_MISMATCH),
    "dup": (1, 2, lambda x: (x, x)),
    "sub": (2, 1, lambda x, y: _bounded(x - y) if type(x) is int and type(y) is int else _TYPE_MISMATCH),
    "mul": (2, 1, lambda x, y: _bounded(x * y) if type(x) is int and type(y) is int else _TYPE_MISMATCH),
    "swap": (2, 2, lambda x, y: (y, x)),
    "inc": (1, 1, lambda x: _bounded(x + 1) if type(x) is int else _TYPE_MISMATCH),
    "drop": (1, 0, lambda x: ()),
    "dec": (1, 1, lambda x: _bounded(x - 1) if type(x) is int else _TYPE_MISMATCH),
    "neg": (1, 1, lambda x: _bounded(-x) if type(x) is int else _TYPE_MISMATCH),
    "length": (1, 1, lambda v: (len(v),) if type(v) is list else _TYPE_MISMATCH),
    "sum": (1, 1, lambda v: _bounded(sum(v)) if type(v) is list else _TYPE_MISMATCH),
    "head": (1, 1, lambda v: _TYPE_MISMATCH if type(v) is not list else (v[0],) if v else _EMPTY_LIST),
    "tail": (1, 1, lambda v: _TYPE_MISMATCH if type(v) is not list else (v[1:],) if v else _EMPTY_LIST),
    "reverse": (1, 1, lambda v: (v[::-1],) if type(v) is list else _TYPE_MISMATCH),
    "sort": (1, 1, lambda v: (sorted(v),) if type(v) is list else _TYPE_MISMATCH),
    "concat": (2, 1, lambda x, y: (
        _TYPE_MISMATCH if type(x) is not list or type(y) is not list
        else (x + y,) if len(x) + len(y) <= LIST_LIMIT else _OVERFLOW
    )),
    "maximum": (1, 1, lambda v: _TYPE_MISMATCH if type(v) is not list else (max(v),) if v else _EMPTY_LIST),
    "minimum": (1, 1, lambda v: _TYPE_MISMATCH if type(v) is not list else (min(v),) if v else _EMPTY_LIST),
    "map_inc": (1, 1, lambda v: (
        _TYPE_MISMATCH if type(v) is not list
        else _OVERFLOW if any(abs(e) + 1 >= INT_LIMIT for e in v) else ([e + 1 for e in v],)
    )),
    "filter_pos": (1, 1, lambda v: ([e for e in v if e > 0],) if type(v) is list else _TYPE_MISMATCH),
}

# Canonical alphabet order doubles as the rank order for synthetic corpora.
DSL_ALPHABET = tuple(_OPS)


def _step(stack: list, instruction: str):
    """Apply one instruction to the stack in place; return a Fault or None."""
    try:
        in_arity, _, fn = _OPS[instruction]
    except KeyError:
        raise ValueError(f"unknown DSL instruction {instruction!r}") from None
    if len(stack) < in_arity:
        return _UNDERFLOW
    if in_arity:
        args = stack[-in_arity:]
        del stack[-in_arity:]
        result = fn(*args)
    else:
        result = fn()
    if type(result) is Fault:
        return result
    stack.extend(result)
    return None


def evaluate(program: Sequence[str], inputs: Sequence = ()):
    """Run a program on the given input stack; the result is the top value.

    Deterministic; all runtime failures come back as Fault values.
    """
    stack = list(inputs)
    for instruction in program:
        fault = _step(stack, instruction)
        if fault is not None:
            return fault
    if not stack:
        return Fault("empty-stack")
    return stack[-1]


def stack_effect(program: Sequence[str], input_arity: int = 0) -> int | None:
    """Statically computed final stack depth, or None on underflow."""
    depth = input_arity
    for instruction in program:
        if instruction not in _OPS:
            return None
        in_arity, out_arity, _ = _OPS[instruction]
        if depth < in_arity:
            return None
        depth += out_arity - in_arity
    return depth


def well_formed(program: Sequence[str], input_arity: int = 0) -> bool:
    """True when the program never underflows and leaves a result on the stack."""
    depth = stack_effect(program, input_arity)
    return depth is not None and depth >= 1


def _check_value(value, where: str) -> None:
    if type(value) is int:
        return
    if type(value) is list and all(type(e) is int for e in value):
        return
    raise ValueError(f"{where}: values must be integers or integer lists, got {value!r}")


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest class, despite the domain name

    inputs: tuple
    expected: object


@dataclass(frozen=True)
class TestCaseSpec:
    """Input/output examples the synthesized program must satisfy.

    Inputs must be DSL values; the expected output may be any JSON value
    (a value no DSL program produces makes the spec unsatisfiable).
    """

    __test__ = False

    cases: tuple[TestCase, ...]

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("a test-case spec needs at least one case")
        arity = len(self.cases[0].inputs)
        for i, case in enumerate(self.cases):
            if len(case.inputs) != arity:
                raise ValueError(f"case {i}: expected {arity} inputs, got {len(case.inputs)}")
            for value in case.inputs:
                _check_value(value, f"case {i}")

    @property
    def input_arity(self) -> int:
        return len(self.cases[0].inputs)


def _values_equal(result, expected) -> bool:
    return type(result) is type(expected) and result == expected


def load_test_spec(path: str | Path) -> TestCaseSpec:
    """Read a spec file: {"cases": [{"inputs": [...], "output": ...}, ...]}.

    Raises ValueError naming the file when it is not valid JSON or not a
    valid spec.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
        return TestCaseSpec(
            cases=tuple(
                TestCase(inputs=tuple(entry["inputs"]), expected=entry["output"])
                for entry in payload["cases"]
            )
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed test-case spec {path}: {exc}") from None


@dataclass
class SearchReport:
    """Outcome and node accounting for one synthesis run. The node counters
    count each round's whole tree, candidates an earlier round tested included."""

    solution: tuple[str, ...] | None
    nodes_expanded: int
    nodes_pruned_by_threshold: int
    nodes_deduped: int
    threshold_schedule_used: list[float]
    rounds: int
    solved_subset_id: int | None


class _SubsetSearch:
    """Per-scope search state: the step table in extension order, threshold bases."""

    def __init__(self, scope: Scope, max_size: int):
        self.subset_id = scope.subset_id
        ordered = sorted(scope.table.log10_probs.items(), key=lambda kv: (-kv[1], kv[0]))
        unknown = next((instr for instr, _ in ordered if instr not in _OPS), None)
        if unknown is not None:
            raise ValueError(f"unknown DSL instruction {unknown!r}")
        # (instruction, log-prob, input arity, implementation) in search order
        self.steps = [(instr, logp, _OPS[instr][0], _OPS[instr][2]) for instr, logp in ordered]
        min_log = ordered[-1][1]
        self.floors = [s * min_log for s in range(max_size + 1)]
        self.bases = [0.0] + [
            scope.thresholds.thresholds.get(s, self.floors[s]) for s in range(1, max_size + 1)
        ]
        # The active thresholds of the last round searched here, which failed.
        self.tested = [float("inf")] * (max_size + 1)

    def round_thresholds(self, offset: float, max_size: int) -> tuple[list[float], list[float], bool]:
        """Per-size active thresholds, suffix minima, and an all-at-floor flag."""
        active = [0.0] + [max(self.bases[s] + offset, self.floors[s]) for s in range(1, max_size + 1)]
        at_floor = all(active[s] <= self.floors[s] for s in range(1, max_size + 1))
        tail_min = list(active)
        for s in range(max_size - 1, 0, -1):
            tail_min[s] = min(tail_min[s], tail_min[s + 1])
        return active, tail_min, at_floor


def synthesize(spec: TestCaseSpec, scopes: Sequence[Scope], max_size: int) -> SearchReport:
    """Search for a program of at most ``max_size`` instructions satisfying the spec.

    Scopes are tried in the given order within each widening round; the
    first candidate that is admissible at its size and passes every test
    case wins. Each round lowers every size's threshold by
    ``WIDENING_STEP_LOG10`` more, down to its floor (the minimum possible
    solution probability at that size); a round with every threshold at
    its floor is the last, and an exhausted schedule yields an empty
    report. A round follows one that found no solution, so it tests only the
    candidates its thresholds newly admit, but counts its whole tree.
    Scopes without thresholds (``Scope.without_thresholds``) start
    at their floors, so one round tests every program over each scope's
    instructions: the baseline for measuring what the thresholds save.

    The search skips the subtree of a prefix dominated by an earlier prefix
    of the same length: same stack states on every case, log-probability
    no higher. Any admissible solution through the dominated prefix P' has
    a twin through the earlier prefix P with the same suffix, the same
    outputs and a probability at least as high at every length (float
    addition is monotone), so it clears every threshold and cut P' does.
    P's subtree is searched first, so the first solution found is the one
    the search without this rule returns. The rule applies to prefixes of
    at most ``max_size - 2`` instructions; ``nodes_deduped`` counts the
    subtrees it skips, whose roots are still counted as expanded.

    Raises ValueError, before any search, when ``max_size`` is below 1 or
    a scope holds an instruction outside the DSL.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")

    searches = [_SubsetSearch(scope, max_size) for scope in scopes]

    counters = {"expanded": 0, "pruned": 0, "deduped": 0}
    schedule_used: list[float] = []
    solution: tuple[str, ...] | None = None
    solved_subset: int | None = None
    while solution is None:
        offset = len(schedule_used) * WIDENING_STEP_LOG10
        schedule_used.append(offset)
        all_floored = True
        for search in searches:
            active, tail_min, at_floor = search.round_thresholds(offset, max_size)
            all_floored &= at_floor
            solution = _dfs_subset(search, spec, max_size, active, tail_min, counters)
            if solution is not None:
                solved_subset = search.subset_id
                break
            search.tested = active
        if all_floored:
            break

    return SearchReport(
        solution=solution,
        nodes_expanded=counters["expanded"],
        nodes_pruned_by_threshold=counters["pruned"],
        nodes_deduped=counters["deduped"],
        threshold_schedule_used=schedule_used,
        rounds=len(schedule_used),
        solved_subset_id=solved_subset,
    )


def _dfs_subset(
    search: _SubsetSearch,
    spec: TestCaseSpec,
    max_size: int,
    active: list[float],
    tail_min: list[float],
    counters: dict,
) -> tuple[str, ...] | None:
    steps = search.steps
    width = len(steps)
    expected = [case.expected for case in spec.cases]
    # Per length: the test bound, and the cut bound. At max_size the two
    # agree: tail_min[max_size] is active[max_size].
    admit = [a - LOG10_SLACK for a in active]
    cut = [t - LOG10_SLACK for t in tail_min]
    leaf_bound = admit[max_size]
    # Per length: the test bound of the last round here. The cut and the
    # dominance rule are exact, so every candidate it admitted failed.
    known = [t - LOG10_SLACK for t in search.tested]
    leaf_known = known[max_size]

    # Per length: repr(states) -> best log-probability of a prefix that
    # left them. Kept up to max_size - 2, where a skipped subtree still
    # holds two levels. At max_size - 1 a hit saves one level of children
    # but the largest size-6 search holds 11,769 keys instead of 2,186.
    seen = {length: {} for length in range(1, max_size - 1)}

    def leaf(prefix: list[str], logp: float, states: list) -> tuple[str, ...] | None:
        # Children at max_size are never extended: test each admissible
        # one not tested in an earlier round case by case, stopping at the
        # first case it fails, and keep no states. Steps run in descending
        # log-probability, so the first child below the bound ends the level.
        for i, (instruction, step_logp, arity, fn) in enumerate(steps):
            child_logp = logp + step_logp
            if child_logp < leaf_bound:
                counters["expanded"] += i
                counters["pruned"] += width - i
                return None
            if child_logp >= leaf_known:
                continue
            for state, exp in zip(states, expected):
                if state is None or len(state) < arity:
                    break
                result = fn(*state[-arity:]) if arity else fn()
                if type(result) is Fault:
                    break
                # The top of state[:-arity] + result, without copying the
                # stack: building it costs synth-solve about 8% of wall_s.
                if result:
                    top = result[-1]
                elif len(state) > arity:
                    top = state[-1 - arity]
                else:
                    break
                if not _values_equal(top, exp):
                    break
            else:
                counters["expanded"] += i + 1
                return tuple(prefix + [instruction])
        counters["expanded"] += width
        return None

    def rec(prefix: list[str], logp: float, states: list) -> tuple[str, ...] | None:
        length = len(prefix) + 1
        if length == max_size:
            return leaf(prefix, logp, states)
        level = seen.get(length)
        bound = cut[length]
        for i, (instruction, step_logp, arity, fn) in enumerate(steps):
            child_logp = logp + step_logp
            # Admissible cut: below every threshold this partial could
            # still reach, no completion can be admitted this round. Any
            # candidate admissible at its own size keeps every prefix
            # above the cut, so the cut never hides a testable candidate.
            # Later steps have no higher log-probability, so they fall too.
            if child_logp < bound:
                counters["pruned"] += width - i
                return None
            counters["expanded"] += 1
            child_states = []
            alive = False
            # _OPS functions never mutate their arguments, so a child
            # state may share values with its parent's.
            for state in states:
                if state is not None and len(state) >= arity:
                    result = fn(*state[-arity:]) if arity else fn()
                    if type(result) is not Fault:
                        new = state[:-arity] if arity else state[:]
                        new.extend(result)
                        child_states.append(new)
                        alive = True
                        continue
                child_states.append(None)
            if known[length] > child_logp >= admit[length]:
                solved = all(
                    state is not None and state and _values_equal(state[-1], exp)
                    for state, exp in zip(child_states, expected)
                )
                if solved:
                    return tuple(prefix + [instruction])
            if alive:
                if level is not None:
                    # Dominance: an earlier prefix of this length left the
                    # same states at a log-probability at least as high, so
                    # it already searched a twin of every completion here.
                    key = repr(child_states)
                    best = level.get(key)
                    if best is not None and best >= child_logp:
                        counters["deduped"] += 1
                        continue
                    level[key] = child_logp
                prefix.append(instruction)
                found = rec(prefix, child_logp, child_states)
                prefix.pop()
                if found is not None:
                    return found
        return None

    initial = [list(case.inputs) for case in spec.cases]
    return rec([], 0.0, initial)


def random_program_corpus(
    num_units: int,
    size_distribution: SizeSpec | str,
    seed: int,
    alphabet: Sequence[str] = DSL_ALPHABET,
    zipf_exponent: float = 1.0,
    input_arity: int = 0,
    probe_inputs: Sequence[Sequence] = ((),),
) -> Corpus:
    """Corpus of random well-formed DSL programs for synthesizer experiments.

    Instructions are drawn Zipf-weighted in the order the alphabet lists
    them; candidates are rejected until they are statically well-formed for
    ``input_arity`` and evaluate without fault on every probe input. The
    stored instruction list keeps program order, so corpus units double as
    runnable programs.
    """
    if num_units < 1:
        raise ValueError(f"num_units must be >= 1, got {num_units}")
    for instruction in alphabet:
        if instruction not in _OPS:
            raise ValueError(f"unknown DSL instruction {instruction!r}")
    for probe in probe_inputs:
        if len(probe) != input_arity:
            raise ValueError(f"probe {probe!r} does not match input arity {input_arity}")
    if isinstance(size_distribution, str):
        size_distribution = parse_size_spec(size_distribution)

    rng = random.Random(seed)
    cum = list(accumulate(k ** -zipf_exponent for k in range(1, len(alphabet) + 1)))

    id_width = len(str(num_units))
    units = []
    attempts = 0
    max_attempts = 20_000 * num_units
    while len(units) < num_units:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"rejection sampling stalled after {attempts} attempts; "
                f"alphabet {list(alphabet)!r} may admit no valid programs at arity {input_arity}"
            )
        size = size_distribution.sample(rng)
        program = tuple(rng.choices(alphabet, cum_weights=cum, k=size))
        if not well_formed(program, input_arity):
            continue
        if any(isinstance(evaluate(program, probe), Fault) for probe in probe_inputs):
            continue
        units.append(ProgramUnit(id=f"p{len(units) + 1:0{id_width}d}", instructions=program))
    return Corpus(units=tuple(units))
