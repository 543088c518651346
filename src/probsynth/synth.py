"""Generate-and-test synthesizer over a small stack DSL, pruned by solution probability.

Programs are flat sequences of instructions from a fixed 24-instruction
stack language over integers and integer lists. Evaluation faults (stack
underflow, type mismatch, overflow, empty-list access) are ordinary values
rather than exceptions, so candidate programs can be executed blindly.

The synthesizer enumerates the candidates of every subset scope
(``probability.build_scopes``) best-first, from one heap, and returns the
passing candidate with the least key (round, -log10 p, scope index,
path), its path being its step indices in the scope's table: the most
probable program in the earliest round that admits one. Round r lowers
every size's threshold by r widening steps (``WIDENING_STEP_LOG10``, two
orders of magnitude), down to the minimum possible probability at that
size (its floor), and the first round with every scope at its floors is
the last. A candidate's round is the first that admits it at its own
size. A size with no threshold sits at its floor from the start, so
scopes without thresholds have one round.

Partial programs (prefixes) share the heap. A prefix's round is the first
whose cut it clears: its probability is at or above a threshold it could
still reach (those for its length and up). Adding an instruction lowers
the probability and raises the length, so neither the round nor
-log10 p falls along an extension and the path only grows: no item's key
is below that of the prefix that pushed it, and the first passing
candidate popped has the least key, as in A* with an admissible bound.
Each prefix is popped at most once for the whole schedule. Steps come in
descending log-probability, so a popped prefix pushes its next sibling,
keyed by the parent's log-probability plus the next step's, and, once
opened, its first child: the heap holds about one item per open parent.

A child's verdict depends only on its parent's stack in each case, so
the search tests stacks rather than candidates. A stack's solve mask has
bit i set when step i leaves that case's expected output on top, and it
reads no deeper than the stack's top two values: every step takes at
most two arguments, and the one step that pushes nothing, ``drop``, takes
one and exposes the value below it. So per test case the search keeps a
memo from the ``repr`` of a stack's top two values to the mask computed
from those two alone; stacks that differ only lower down share one
entry, and the key is the whole input of the mask. A mask is computed
once per ``synthesize`` call, however many prefixes and rounds reach its
pair. A child solves the spec when its bit is set in its parent's mask
for every case, so opening a prefix pushes only its first such child,
as a candidate: the candidates pushed all pass. A prefix of
``max_size - 1`` instructions (a leaf parent) keeps no stack state: it
is stepped one case at a time, only as far as the AND of its masks
reaches.

A prefix whose stack states on every test case equal those of a prefix
of the same scope and length popped before it with a smaller path is
dropped with its subtree: the earlier prefix is at least as probable, so
each completion of the dropped one has a twin through it with the same
outputs and a smaller key. An earlier prefix with a larger path drops
nothing: it is more probable, but adding the same suffix to both can
round their log-probabilities to one float, and the tie goes to the
smaller path. This is the observational-equivalence pruning of TRANSIT
and Escher, restricted to same-length prefixes because the thresholds
are per size.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, ProgramUnit, SizeSpec, parse_size_spec
from .probability import LOG10_SLACK, Scope

INT_LIMIT = 2**63
LIST_LIMIT = 1024

# How far each widening round lowers every threshold, in log10.
WIDENING_STEP_LOG10 = -2.0

# The largest max_size synthesize takes, and so the bound on
# ``synth --max-size``: per-length bound tables and heap paths grow with
# it.
MAX_PROGRAM_SIZE = 256


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


# name -> (input arity, implementation). Each implementation
# checks its argument types (exact int or list) first, then returns the
# values it pushes or a shared Fault.
_OPS = {
    "push0": (0, lambda: (0,)),
    "push1": (0, lambda: (1,)),
    "push2": (0, lambda: (2,)),
    "push3": (0, lambda: (3,)),
    "add": (2, lambda x, y: _bounded(x + y) if type(x) is int and type(y) is int else _TYPE_MISMATCH),
    "dup": (1, lambda x: (x, x)),
    "sub": (2, lambda x, y: _bounded(x - y) if type(x) is int and type(y) is int else _TYPE_MISMATCH),
    "mul": (2, lambda x, y: _bounded(x * y) if type(x) is int and type(y) is int else _TYPE_MISMATCH),
    "swap": (2, lambda x, y: (y, x)),
    "inc": (1, lambda x: _bounded(x + 1) if type(x) is int else _TYPE_MISMATCH),
    "drop": (1, lambda x: ()),
    "dec": (1, lambda x: _bounded(x - 1) if type(x) is int else _TYPE_MISMATCH),
    "neg": (1, lambda x: _bounded(-x) if type(x) is int else _TYPE_MISMATCH),
    "length": (1, lambda v: (len(v),) if type(v) is list else _TYPE_MISMATCH),
    "sum": (1, lambda v: _bounded(sum(v)) if type(v) is list else _TYPE_MISMATCH),
    "head": (1, lambda v: _TYPE_MISMATCH if type(v) is not list else (v[0],) if v else _EMPTY_LIST),
    "tail": (1, lambda v: _TYPE_MISMATCH if type(v) is not list else (v[1:],) if v else _EMPTY_LIST),
    "reverse": (1, lambda v: (v[::-1],) if type(v) is list else _TYPE_MISMATCH),
    "sort": (1, lambda v: (sorted(v),) if type(v) is list else _TYPE_MISMATCH),
    "concat": (2, lambda x, y: (
        _TYPE_MISMATCH if type(x) is not list or type(y) is not list
        else (x + y,) if len(x) + len(y) <= LIST_LIMIT else _OVERFLOW
    )),
    "maximum": (1, lambda v: _TYPE_MISMATCH if type(v) is not list else (max(v),) if v else _EMPTY_LIST),
    "minimum": (1, lambda v: _TYPE_MISMATCH if type(v) is not list else (min(v),) if v else _EMPTY_LIST),
    "map_inc": (1, lambda v: (
        _TYPE_MISMATCH if type(v) is not list
        else _OVERFLOW if any(abs(e) + 1 >= INT_LIMIT for e in v) else ([e + 1 for e in v],)
    )),
    "filter_pos": (1, lambda v: ([e for e in v if e > 0],) if type(v) is list else _TYPE_MISMATCH),
}

# Canonical alphabet order doubles as the rank order for synthetic corpora.
DSL_ALPHABET = tuple(_OPS)


def _step(stack: list, instruction: str):
    """Apply one instruction to the stack in place; return a Fault or None."""
    try:
        in_arity, fn = _OPS[instruction]
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

    Inputs and expected outputs must be DSL values: integers or integer
    lists (a DSL value no program of the size reaches makes the spec
    unsatisfiable).
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
            for value in (*case.inputs, case.expected):
                _check_value(value, f"case {i}")


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
    """Outcome and work counters of one synthesis run.

    ``solution`` is the passing candidate with the least key (round,
    -log10 p, scope index, step indices), ``solved_subset_id`` its
    scope's subset, and ``rounds`` its round + 1, or the length of the
    whole schedule when no candidate passes; ``threshold_schedule_used``
    holds those rounds' offsets. ``nodes_expanded`` counts the prefixes
    popped, ``nodes_pruned_by_threshold`` the pushes that the thresholds
    put in a later round than the item being expanded (0 without
    thresholds), and ``nodes_deduped`` the prefixes dropped because a
    prefix of the same scope and length, popped before them with a
    smaller path, left the same stack states."""

    solution: tuple[str, ...] | None
    nodes_expanded: int
    nodes_pruned_by_threshold: int
    nodes_deduped: int
    threshold_schedule_used: list[float]
    rounds: int
    solved_subset_id: int | None


class _SubsetSearch:
    """Per-scope search setup: the step table in extension order and the
    threshold bases and floors the rounds lower them to."""

    def __init__(self, scope: Scope, max_size: int):
        self.subset_id = scope.subset_id
        ordered = list(scope.table.log10_probs.items())  # descending, then by name
        unknown = next((instr for instr, _ in ordered if instr not in _OPS), None)
        if unknown is not None:
            raise ValueError(f"unknown DSL instruction {unknown!r}")
        # (instruction, log-prob, input arity, implementation) in search order
        self.steps = [(instr, logp, *_OPS[instr]) for instr, logp in ordered]
        min_log = ordered[-1][1]
        self.floors = [s * min_log for s in range(max_size + 1)]
        self.bases = [0.0] + [scope.thresholds.get(s, self.floors[s]) for s in range(1, max_size + 1)]

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

    Returns the passing candidate with the least key (round, -log10 p,
    scope index, step indices): the most probable program, over every
    scope, in the earliest round that admits one. Round r lowers every
    size's threshold by r times ``WIDENING_STEP_LOG10``, down to its floor
    (the minimum possible solution probability at that size); the first
    round with every scope at its floors is the last, and a candidate's
    round is the first that admits it at its own size. Log-probabilities
    are summed step by step in program order, and ties go to the earlier
    scope, then to the earlier step indices in each scope's table order
    (descending probability, then name). An exhausted schedule yields a
    report with no solution. Scopes without thresholds
    (``Scope.without_thresholds``) start at their floors, so one round
    ranks every program over each scope's instructions: the baseline for
    measuring what the thresholds save.

    One heap holds prefixes and passing candidates. A prefix is keyed by
    the first round whose cut it clears, and no key falls along an
    extension, so each prefix is popped at most once over all rounds and
    the first candidate popped is the answer. A prefix that faults in
    some case is not opened, nor is one whose stack states equal those of
    a prefix of the same scope and length popped before it with a smaller
    path: each of its completions has a twin there with the same outputs
    and a smaller key. ``SearchReport`` defines the counters.

    Raises ValueError, before any search, when ``max_size`` is below 1 or
    above ``MAX_PROGRAM_SIZE``, or a scope holds an instruction outside the
    DSL.
    """
    if not 1 <= max_size <= MAX_PROGRAM_SIZE:
        raise ValueError(f"max_size must be in 1..{MAX_PROGRAM_SIZE}, got {max_size}")

    searches = [_SubsetSearch(scope, max_size) for scope in scopes]

    # Each round's offset, and per round each scope's thresholds. The
    # first offset is a plain 0.0, so the schedule is written without -0.0.
    schedule: list[float] = []
    per_round: list[list[tuple[list[float], list[float], bool]]] = []
    while not per_round or not all(at_floor for _, _, at_floor in per_round[-1]):
        offset = len(schedule) * WIDENING_STEP_LOG10 if schedule else 0.0
        schedule.append(offset)
        per_round.append([search.round_thresholds(offset, max_size) for search in searches])

    expected = [case.expected for case in spec.cases]
    inputs = [list(case.inputs) for case in spec.cases]
    last = max_size - 1
    heap: list = []
    tables = []
    pruned = 0
    for index, search in enumerate(searches):
        steps = search.steps
        logps = [logp for _, logp, _, _ in steps]
        thresholds = [round_[index] for round_ in per_round]
        # Per length, the negated test and cut bounds over the rounds,
        # ascending: bisect_left(bounds, -logp) is the first round whose
        # bound logp clears. The last round is at the floors, which every
        # candidate and prefix clears, so the lookup stays in the schedule.
        admit = [[LOG10_SLACK - active[length] for active, _, _ in thresholds] for length in range(max_size + 1)]
        cut = [[LOG10_SLACK - tail_min[length] for _, tail_min, _ in thresholds] for length in range(max_size + 1)]
        # Per test case: repr(stack[-2:]) -> the solve mask of those top
        # two values for the case's expected output (``_solve_mask``),
        # which is the whole stack's: no step reads deeper.
        masks: list[dict[str, int]] = [{} for _ in expected]
        # Per length: the repr of an opened prefix's states -> the least
        # path of the prefixes opened with them.
        seen: list[dict[str, tuple[int, ...]]] = [{} for _ in range(max_size)]
        tables.append((steps, logps, admit, cut, masks, seen))
        # The root is opened in round 0: its passing child, as a
        # candidate, and its first child, as a prefix.
        mask = _and_mask(steps, masks, expected, inputs, 0, None)
        if mask:
            i = (mask & -mask).bit_length() - 1
            r = bisect_left(admit[1], -logps[i])
            pruned += r > 0
            heappush(heap, (r, -logps[i], index, (i,), 0, None, None))
        if max_size > 1:
            r = bisect_left(cut[1], -logps[0])
            pruned += r > 0
            heappush(heap, (r, -logps[0], index, (0,), 1, inputs, 0.0))

    # Items are (round, -logp, scope index, path, kind, parent states,
    # parent logp), with kind 0 for a candidate and 1 for a prefix: a
    # candidate pops first on a tie, and no two items tie on the first
    # five, so states are never compared.
    expanded = deduped = 0
    solution: tuple[str, ...] | None = None
    solved_subset: int | None = None
    rounds = len(schedule)
    while heap:
        rnd, neg, index, path, kind, states, base = heappop(heap)
        steps, logps, admit, cut, masks, seen = tables[index]
        if not kind:
            solution = tuple(steps[i][0] for i in path)
            solved_subset = searches[index].subset_id
            rounds = rnd + 1
            break
        expanded += 1
        length = len(path)
        i = path[-1]
        if i + 1 < len(logps):
            sibling = base + logps[i + 1]
            r = bisect_left(cut[length], -sibling)
            pruned += r > rnd
            heappush(heap, (r, -sibling, index, path[:-1] + (i + 1,), 1, states, base))
        _, _, arity, fn = steps[i]
        logp = -neg
        if length == last:
            mask = _and_mask(steps, masks, expected, states, arity, fn)
        else:
            states = [_stepped(state, arity, fn) for state in states]
            if None in states:
                continue
            level = seen[length]
            key = repr(states)
            least = level.get(key)
            if least is not None and least < path:
                deduped += 1
                continue
            level[key] = path
            mask = _and_mask(steps, masks, expected, states, 0, None)
            child = logp + logps[0]
            r = bisect_left(cut[length + 1], -child)
            pruned += r > rnd
            heappush(heap, (r, -child, index, path + (0,), 1, states, logp))
        if mask:
            j = (mask & -mask).bit_length() - 1
            child = logp + logps[j]
            r = bisect_left(admit[length + 1], -child)
            pruned += r > rnd
            heappush(heap, (r, -child, index, path + (j,), 0, None, None))

    return SearchReport(
        solution=solution,
        nodes_expanded=expanded,
        nodes_pruned_by_threshold=pruned,
        nodes_deduped=deduped,
        threshold_schedule_used=schedule[:rounds],
        rounds=rounds,
        solved_subset_id=solved_subset,
    )


def _stepped(state: list, arity: int, fn) -> list | None:
    """The stack after one step-table entry, or None if the step faults.
    _OPS functions never mutate their arguments, so the new stack may
    share values with the old one."""
    if len(state) < arity:
        return None
    result = fn(*state[-arity:]) if arity else fn()
    if type(result) is Fault:
        return None
    new = state[:-arity] if arity else state[:]
    new.extend(result)
    return new


def _solve_mask(steps: list, state: list, expected) -> int:
    """The steps that leave ``expected`` on top of ``state``: bit i is set
    when ``steps[i]`` does. No step reads below the top two values, so
    ``state[-2:]`` gives the same mask."""
    mask = 0
    depth = len(state)
    for i, (_, _, arity, fn) in enumerate(steps):
        if depth < arity:
            continue
        result = fn(*state[-arity:]) if arity else fn()
        if type(result) is Fault:
            continue
        # The top of state[:-arity] + result, without copying the stack.
        if result:
            top = result[-1]
        elif depth > arity:
            top = state[-1 - arity]
        else:
            continue
        if _values_equal(top, expected):
            mask |= 1 << i
    return mask


def _and_mask(steps: list, masks: list[dict[str, int]], expected: list, states: list, arity: int, fn) -> int:
    """The steps that solve every case from a prefix's stacks: the AND of
    the cases' solve masks, read up to the first zero. The stack in case c
    is ``states[c]``, or with a step (``fn`` not None) that stack after
    the step, made only if the AND reaches case c."""
    mask = -1
    for state, memo, output in zip(states, masks, expected):
        if fn is not None:
            state = _stepped(state, arity, fn)
            if state is None:
                return 0
        top = state[-2:]
        key = repr(top)
        case_mask = memo.get(key)
        if case_mask is None:
            case_mask = memo[key] = _solve_mask(steps, top, output)
        mask &= case_mask
        if not mask:
            return 0
    return mask


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
    them; candidates are rejected until they evaluate without fault on every
    probe input, each of ``input_arity`` values. Arities do not depend on the
    data, so a kept program never underflows and leaves a result on any
    input of that arity. The stored instruction list keeps program order, so
    corpus units double as runnable programs.
    """
    if num_units < 1:
        raise ValueError(f"num_units must be >= 1, got {num_units}")
    for instruction in alphabet:
        if instruction not in _OPS:
            raise ValueError(f"unknown DSL instruction {instruction!r}")
    if not probe_inputs:
        raise ValueError("random_program_corpus needs at least one probe input")
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
        if any(isinstance(evaluate(program, probe), Fault) for probe in probe_inputs):
            continue
        units.append(ProgramUnit(id=f"p{len(units) + 1:0{id_width}d}", instructions=program))
    return Corpus(units=tuple(units))
