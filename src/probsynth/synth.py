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
are known to fail, as it found no solution. It resumes from the frontier
the round before left (its cuts, its prefixes below their test bound, and
those among them whose subtrees it skipped), so it visits only the nodes
that lead to something new, as fringe search does for iterative deepening.

Children are generated in descending log-probability, and adding a fixed
log-probability to each keeps that order (float addition is monotone), so
the first child below the cut ends its level: the rest are counted as cut
without being looked at.

A child's verdict depends only on its parent's stack in each case, so
the search tests stacks rather than candidates. Per test case it keeps a
memo from a stack's ``repr`` to its solve mask, whose bit i is set when
step i leaves that case's expected output on top. A mask is computed
once per ``synthesize`` call, however many prefixes and rounds reach its
stack, and a candidate solves the spec when its bit is set in its
parent's mask for every case. A child of ``max_size`` instructions is
never extended, so no stack state is kept for it: its level is tested as
one AND of its parent's masks over the children above the cut, stopped
at the first case that zeroes it, and the parent is stepped one case at
a time, only as far as that AND reaches. The memo grows with the
distinct stacks met: on the benchmark's size-6 spec, its largest search,
one scope holds at most 4,477 case-0 entries at seed 0 and 6,935 over
seeds 0-9.

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
from bisect import bisect_left
from collections import defaultdict
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

# The largest max_size synthesize takes. The search recurses once per
# instruction of a prefix, so this stays well under Python's default
# recursion limit of 1000, with room for the callers' frames.
MAX_PROGRAM_SIZE = 256

# Frontier tags: the first child a round did not generate (an interior or
# leaf cut); a prefix whose own candidate was below its test bound; such a
# prefix whose subtree the dominance rule skipped.
_CUT, _UNTESTED, _SKIPPED = 0, 1, 2


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
    """Outcome and node accounting for one synthesis run. The node counters
    sum, over rounds, the nodes each round visits: a later round visits only
    the nodes that lead to candidates its thresholds newly admit."""

    solution: tuple[str, ...] | None
    nodes_expanded: int
    nodes_pruned_by_threshold: int
    nodes_deduped: int
    threshold_schedule_used: list[float]
    rounds: int
    solved_subset_id: int | None


class _SubsetSearch:
    """Per-scope search state: the step table in extension order, threshold
    bases, the frontier the last round searched here left, and the solve
    masks of the stacks met so far."""

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
        # A prefix's key reads its step indices + 1 as mixed-radix digits
        # (radix width + 1), padded with zeros to max_size digits: sorted
        # keys are depth-first order and a subtree is one key range.
        # units[L] is the key distance between siblings of length L.
        radix = len(self.steps) + 1
        self.units = [radix ** (max_size - length) for length in range(max_size + 1)]
        # The frontier of the last round searched here, as sorted keys and
        # their tags (_CUT, _UNTESTED, _SKIPPED). Before round 1 it is the
        # cut at the root's first child: every node is new.
        self.frontier = ([self.units[1]], [_CUT])
        # Per test case: repr(stack) -> the solve mask of that stack for
        # the case's expected output (``_solve_mask``). A mask outlives
        # its round, so no later round computes it again.
        self.masks: dict[int, dict[str, int]] = defaultdict(dict)

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
    candidates its thresholds newly admit, and visits and counts only the
    nodes on the way to them, resuming from the last round's frontier.
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
    above ``MAX_PROGRAM_SIZE``, or a scope holds an instruction outside the
    DSL.
    """
    if not 1 <= max_size <= MAX_PROGRAM_SIZE:
        raise ValueError(f"max_size must be in 1..{MAX_PROGRAM_SIZE}, got {max_size}")

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


def _stepped(state: list | None, arity: int, fn) -> list | None:
    """The stack after one step-table entry, or None if the stack is dead or
    the step faults. _OPS functions never mutate their arguments, so the
    new stack may share values with the old one."""
    if state is None or len(state) < arity:
        return None
    result = fn(*state[-arity:]) if arity else fn()
    if type(result) is Fault:
        return None
    new = state[:-arity] if arity else state[:]
    new.extend(result)
    return new


def _solve_mask(steps: list, state: list, expected) -> int:
    """The steps that leave ``expected`` on top of ``state``: bit i is set
    when ``steps[i]`` does."""
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
    logps = [logp for _, logp, _, _ in steps]
    units = search.units
    expected = [case.expected for case in spec.cases]
    masks = [search.masks[c] for c in range(len(expected))]
    # Per length: the test bound, and the cut bound. At max_size the two
    # agree: tail_min[max_size] is active[max_size].
    admit = [a - LOG10_SLACK for a in active]
    cut = [t - LOG10_SLACK for t in tail_min]
    leaf_bound = admit[max_size]
    last = max_size - 1

    # The last round's frontier, read in order, and this round's, written
    # in order. A prefix that neither holds nor leads to a frontier entry
    # has nothing new below it: its candidates were all tested or skipped.
    # The cut and the dominance rule are exact, so every candidate an
    # earlier round tested failed.
    old_keys, old_tags = search.frontier
    old_count = len(old_keys)
    pos = 0
    keys, tags = [], []
    add_key, add_tag = keys.append, tags.append

    # Per length: repr(states) -> best log-probability of a prefix that
    # left them. Kept up to max_size - 2, where a skipped subtree still
    # holds two levels. At max_size - 1 a hit saves one level of children
    # but the largest size-6 search holds 11,769 keys instead of 2,186.
    seen = {length: {} for length in range(1, max_size - 1)}

    def solve_mask(head, states: list, arity: int, fn) -> int:
        # The steps that solve every case from a prefix's stacks: the AND
        # of the cases' masks, read up to the first zero. Its stack in
        # case 0 is head (None if dead); in case c it is step (arity, fn)
        # applied to states[c], or states[c] itself with no step, and is
        # made only if the AND reaches case c.
        mask = -1
        state = head
        for c, memo in enumerate(masks):
            if c:
                state = _stepped(states[c], arity, fn) if fn else states[c]
            if state is None:
                return 0
            state_key = repr(state)
            case_mask = memo.get(state_key)
            if case_mask is None:
                case_mask = memo[state_key] = _solve_mask(steps, state, expected[c])
            mask &= case_mask
            if not mask:
                return 0
        return mask

    def leaf(prefix: list[str], key: int, logp: float, fresh: bool, head, states: list, arity: int, fn) -> tuple[str, ...] | None:
        # The children of a leaf parent, at max_size, are never extended
        # and keep no states. Steps run in descending log-probability, so
        # the children from the first one below the bound on are cut; the
        # first admissible child in the AND of the leaf parent's masks is
        # the solution. The leaf parent's stacks are those solve_mask
        # reads from (head, states, arity, fn).
        nonlocal pos
        if fresh:
            start = 0
        elif pos == old_count or old_keys[pos] >= key + units[last]:
            # The only entry left below a leaf parent is its leaf cut.
            return None
        else:
            start = old_keys[pos] - key - 1
            pos += 1
        stop = start
        while stop < width and logp + logps[stop] >= leaf_bound:
            stop += 1
        found = 0
        if stop > start:
            found = solve_mask(head, states, arity, fn) >> start & (1 << (stop - start)) - 1
        if found:
            i = start + (found & -found).bit_length() - 1
            counters["expanded"] += i + 1 - start
            return tuple(prefix + [steps[i][0]])
        counters["expanded"] += stop - start
        if stop < width:
            counters["pruned"] += width - stop
            add_key(key + stop + 1)
            add_tag(_CUT)
        return None

    def rec(prefix: list[str], key: int, logp: float, fresh: bool, states: list) -> tuple[str, ...] | None:
        # A fresh prefix lies at or below a cut of the last round, so its
        # whole subtree is new. Otherwise only the children that hold or
        # lead to a frontier entry are visited, and the children from the
        # frontier's cut here on, if any, are fresh.
        nonlocal pos
        length = len(prefix) + 1
        unit = units[length]
        end = key + units[length - 1]
        level = seen.get(length)
        bound = cut[length]
        child_key = key
        # The steps that solve every case from this prefix's states,
        # computed when a child is first tested.
        mask = None
        # The child's frontier tag: _CUT for a fresh child, None for one
        # whose own candidate an earlier round tested.
        tag = _CUT if fresh else None
        for i, (instruction, step_logp, arity, fn) in enumerate(steps):
            child_key += unit
            if not fresh:
                if pos == old_count or old_keys[pos] >= end:
                    return None
                if old_keys[pos] >= child_key + unit:
                    continue
                tag = None
                if old_keys[pos] == child_key:
                    tag = old_tags[pos]
                    fresh = tag == _CUT
                    pos += 1
            child_logp = logp + step_logp
            # Admissible cut: below every threshold this partial could
            # still reach, no completion can be admitted this round. Any
            # candidate admissible at its own size keeps every prefix
            # above the cut, so the cut never hides a testable candidate.
            # Later steps have no higher log-probability, so they fall too.
            if child_logp < bound:
                counters["pruned"] += width - i
                add_key(child_key)
                add_tag(_CUT)
                return None
            counters["expanded"] += 1
            below = child_logp < admit[length]
            if tag is not None and not below:
                if mask is None:
                    mask = solve_mask(states[0], states, 0, None)
                if mask >> i & 1:
                    return tuple(prefix + [instruction])
            if length == last:
                # A leaf parent: dominance does not reach it and its own
                # test read this prefix's mask, so it is stepped only up
                # to its first live case, which is all `alive` needs;
                # solve_mask steps the rest as far as the AND reaches.
                head = _stepped(states[0], arity, fn)
                if head is None and all(_stepped(state, arity, fn) is None for state in states[1:]):
                    continue
                descend, stacks = leaf, (head, states, arity, fn)
            else:
                child_states = [_stepped(state, arity, fn) for state in states]
                if child_states.count(None) == len(child_states):  # dead in every case
                    continue
                skipped = tag == _SKIPPED
                if level is not None and not skipped:
                    # Dominance: an earlier prefix of this length left the
                    # same states at a log-probability at least as high, so
                    # it already searched a twin of every completion here.
                    state_key = repr(child_states)
                    best = level.get(state_key)
                    skipped = best is not None and best >= child_logp
                    if not skipped:
                        level[state_key] = child_logp
                if skipped:
                    # A skipped subtree stays skipped: a later round's earlier
                    # prefixes include this round's, in the same order, so the
                    # best log-probability it is compared with can only grow.
                    counters["deduped"] += 1
                    if below:
                        add_key(child_key)
                        add_tag(_SKIPPED)
                    if not fresh:
                        pos = bisect_left(old_keys, child_key + unit, pos)
                    continue
                descend, stacks = rec, (child_states,)
            if below:
                add_key(child_key)
                add_tag(_UNTESTED)
            prefix.append(instruction)
            found = descend(prefix, child_key, child_logp, fresh, *stacks)
            prefix.pop()
            if found is not None:
                return found
        return None

    initial = [list(case.inputs) for case in spec.cases]
    if max_size == 1:
        solution = leaf([], 0, 0.0, False, initial[0], initial, 0, None)
    else:
        solution = rec([], 0, 0.0, False, initial)
    if solution is None:
        search.frontier = (keys, tags)
    return solution


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
