"""Generate-and-test synthesizer over a small stack DSL, pruned by solution probability.

Programs are flat sequences of instructions from a fixed 24-instruction
stack language over integers and integer lists. Evaluation faults (stack
underflow, type mismatch, overflow, empty-list access) are ordinary values
rather than exceptions, so candidate programs can be executed blindly.

The synthesizer enumerates the candidates of every subset scope
(``probability.build_scopes``) best-first, from one heap, and returns the
passing candidate with the least key (round, -log10 p, scope index,
path), its path being its step indices in the scope's table. There are
two rounds. Round 0 is the space the thresholds admit: the candidates at
or above their size's threshold, less ``LOG10_SLACK`` (a size with no
threshold admits all of its candidates). Round 1 is every other
candidate, with no test at all. So the answer is the most probable
passing program that the thresholds admit, or failing that the most
probable passing program, and a scope without thresholds has only
round 0.

Partial programs (prefixes) share the heap. A prefix is in round 0 when
it clears a threshold it could still reach (those for its length and
up), less the slack, and in round 1 otherwise. Adding an instruction
lowers the probability and raises the length, so neither the round nor
-log10 p falls along an extension and the path only grows: no item's key
is below that of the prefix that pushed it, and the first passing
candidate popped has the least key, as in A* with an admissible bound.
Each prefix is popped at most once. The heap starts with each scope's
root, the empty prefix, which is opened like any other. Steps come in
descending log-probability, so a popped prefix pushes its next sibling
(a root has none), keyed by the parent's log-probability plus the next
step's, and, once opened, its first child: the heap holds about one item
per open parent.

A child's verdict depends only on its parent's stack in each case, so
the search tests stacks rather than candidates. A stack's solve mask has
bit i set when step i leaves that case's expected output on top, and it
reads no deeper than the stack's top two values: every step takes at
most two arguments, and the one step that pushes nothing, ``drop``, takes
one and exposes the value below it. So per test case the search keeps a
memo from the ``repr`` of a stack's top two values to the mask computed
from those two alone; stacks that differ only lower down share one
entry, and the key is the whole input of the mask. A mask is computed
once per ``synthesize`` call, however many prefixes reach its pair. A
child solves the spec when its bit is set in its parent's mask for every
case, so opening a prefix pushes only its first such child, as a
candidate: the candidates pushed all pass. A prefix of
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
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from math import inf
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, ProgramUnit, SizeSpec, parse_size_spec
from .probability import LOG10_SLACK, Scope

INT_LIMIT = 2**63
LIST_LIMIT = 1024

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


def evaluate(program: Sequence[str], inputs: Sequence = ()):
    """Run a program on the given input stack; the result is the top value.

    Deterministic; all runtime failures come back as Fault values.
    """
    stack = list(inputs)
    for instruction in program:
        try:
            arity, fn = _OPS[instruction]
        except KeyError:
            raise ValueError(f"unknown DSL instruction {instruction!r}") from None
        depth = len(stack) - arity
        if depth < 0:
            return _UNDERFLOW
        result = fn(*stack[depth:])
        if type(result) is Fault:
            return result
        del stack[depth:]
        stack.extend(result)
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
    scope's subset, and ``rounds`` the rounds the search entered: the
    solution's round + 1, or, when no candidate passes, 1 + the round of
    the last item popped (2 exactly when the thresholds put some item in
    round 1). ``nodes_expanded`` counts the non-empty prefixes popped
    (each scope's root starts the heap and is not counted),
    ``nodes_pruned_by_threshold`` the pushes that the thresholds put in
    round 1 from an item in round 0 (0 without thresholds), and
    ``nodes_deduped`` the prefixes dropped because a prefix of the same
    scope and length, popped before them with a smaller path, left the
    same stack states."""

    solution: tuple[str, ...] | None
    nodes_expanded: int
    nodes_pruned_by_threshold: int
    nodes_deduped: int
    rounds: int
    solved_subset_id: int | None


def synthesize(spec: TestCaseSpec, scopes: Sequence[Scope], max_size: int) -> SearchReport:
    """Search for a program of at most ``max_size`` instructions satisfying the spec.

    Returns the passing candidate with the least key (round, -log10 p,
    scope index, step indices): the most probable program, over every
    scope, that the thresholds admit (round 0), or failing that the most
    probable program of all (round 1). Round 0 holds the candidates at or
    above their size's threshold, less ``LOG10_SLACK``, and every
    candidate of a size with no threshold; round 1 holds the rest, with no
    test. Log-probabilities are summed step by step in program order, and
    ties go to the earlier scope, then to the earlier step indices in each
    scope's table order (descending probability, then name). When no
    candidate passes, the report has no solution. Scopes without
    thresholds (``Scope.without_thresholds``) put every program in round
    0, which ranks every program over each scope's instructions by
    probability alone: the baseline for measuring what the thresholds
    save.

    One heap holds prefixes and passing candidates. A prefix is in round 0
    when it clears the least threshold it could still reach, and no key
    falls along an extension, so each prefix is popped at most once and
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
    unknown = next((instr for scope in scopes for instr in scope.table.log10_probs if instr not in _OPS), None)
    if unknown is not None:
        raise ValueError(f"unknown DSL instruction {unknown!r}")

    expected = [case.expected for case in spec.cases]
    inputs = [list(case.inputs) for case in spec.cases]
    last = max_size - 1
    heap: list = []
    tables = []
    pruned = 0
    for index, scope in enumerate(scopes):
        # (instruction, log-prob, input arity, implementation), in the
        # table's order: descending log-prob, then name.
        steps = [(instr, logp, *_OPS[instr]) for instr, logp in scope.table.log10_probs.items()]
        logps = [logp for _, logp, _, _ in steps]
        # Per length, the negated round-0 bound: an item is in round
        # int(-logp > bound). A candidate's is its size's threshold, less
        # the slack; a prefix's the least threshold of its length and up
        # (the suffix maximum of the negated ones). A size with no
        # threshold admits everything.
        admit = [LOG10_SLACK - scope.thresholds.get(length, -inf) for length in range(max_size + 1)]
        cut = list(accumulate(reversed(admit), max))[::-1]
        # Per test case: repr(stack[-2:]) -> the solve mask of those top
        # two values for the case's expected output (``_solve_mask``),
        # which is the whole stack's: no step reads deeper.
        masks: list[dict[str, int]] = [{} for _ in expected]
        # Per length: the repr of an opened prefix's states -> the least
        # path of the prefixes opened with them.
        seen: list[dict[str, tuple[int, ...]]] = [{} for _ in range(max_size)]
        tables.append((steps, logps, admit, cut, masks, seen))
        # The root, the empty prefix, is in round 0: no size has threshold
        # 0, so cut[0] is inf.
        heappush(heap, (0, 0.0, index, (), 1, inputs, None))

    # Items are (round, -logp, scope index, path, kind, parent states,
    # parent logp), with kind 0 for a candidate and 1 for a prefix: a
    # candidate pops first on a tie, and no two items tie on the first
    # five, so states are never compared.
    expanded = deduped = 0
    solution: tuple[str, ...] | None = None
    solved_subset: int | None = None
    rnd = 0
    while heap:
        rnd, neg, index, path, kind, states, base = heappop(heap)
        steps, logps, admit, cut, masks, seen = tables[index]
        if not kind:
            solution = tuple(steps[i][0] for i in path)
            solved_subset = scopes[index].subset_id
            break
        length = len(path)
        logp = -neg
        arity, fn = 0, None
        if path:  # a root has no sibling and takes no step
            expanded += 1
            i = path[-1]
            if i + 1 < len(logps):
                sibling = base + logps[i + 1]
                r = int(-sibling > cut[length])
                pruned += r > rnd
                heappush(heap, (r, -sibling, index, path[:-1] + (i + 1,), 1, states, base))
            _, _, arity, fn = steps[i]
        if length == last:
            mask = _and_mask(steps, masks, expected, states, arity, fn)
        else:
            if path:
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
            r = int(-child > cut[length + 1])
            pruned += r > rnd
            heappush(heap, (r, -child, index, path + (0,), 1, states, logp))
        if mask:
            j = (mask & -mask).bit_length() - 1
            child = logp + logps[j]
            r = int(-child > admit[length + 1])
            pruned += r > rnd
            heappush(heap, (r, -child, index, path + (j,), 0, None, None))

    return SearchReport(
        solution=solution,
        nodes_expanded=expanded,
        nodes_pruned_by_threshold=pruned,
        nodes_deduped=deduped,
        rounds=rnd + 1,
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
    zipf_exponent: float = 1.0,
    input_arity: int = 0,
    probe_inputs: Sequence[Sequence] = ((),),
) -> Corpus:
    """Corpus of random well-formed DSL programs for synthesizer experiments.

    Instructions are drawn Zipf-weighted in ``DSL_ALPHABET`` order;
    candidates are rejected until they evaluate without fault on every probe
    input, each of ``input_arity`` values. Arities do not depend on the data,
    so a kept program never underflows and leaves a result on any input of
    that arity. The stored instruction list keeps program order, so corpus
    units double as runnable programs.
    """
    if num_units < 1:
        raise ValueError(f"num_units must be >= 1, got {num_units}")
    if not probe_inputs:
        raise ValueError("random_program_corpus needs at least one probe input")
    for probe in probe_inputs:
        if len(probe) != input_arity:
            raise ValueError(f"probe {probe!r} does not match input arity {input_arity}")
    if isinstance(size_distribution, str):
        size_distribution = parse_size_spec(size_distribution)

    rng = random.Random(seed)
    cum = list(accumulate(k ** -zipf_exponent for k in range(1, len(DSL_ALPHABET) + 1)))

    id_width = len(str(num_units))
    units = []
    attempts = 0
    max_attempts = 20_000 * num_units
    while len(units) < num_units:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"rejection sampling stalled after {attempts} attempts; "
                "few DSL programs of these sizes run without fault on the probe inputs"
            )
        size = size_distribution.sample(rng)
        program = tuple(rng.choices(DSL_ALPHABET, cum_weights=cum, k=size))
        if any(isinstance(evaluate(program, probe), Fault) for probe in probe_inputs):
            continue
        units.append(ProgramUnit(id=f"p{len(units) + 1:0{id_width}d}", instructions=program))
    return Corpus(units=tuple(units))
