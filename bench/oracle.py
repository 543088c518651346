"""Output checks that do not use the code under test.

Everything here is written from the documented formats and rules: corpus
and family files are parsed with ``json``, probabilities are recounted
from the units, and admissible counts come from plain enumeration of
every multiset (no pruning, no closed forms). The stack-DSL interpreter
re-implements the 24 instructions from their documented semantics.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

SLACK = 1e-9  # the package's documented rule: admissible when log10 >= threshold - 1e-9


def read_corpus(path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8") as f:
        records = (json.loads(line) for line in f if line.strip())
        return {r["id"]: r["instructions"] for r in records}


def read_family(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def log_probs(units: list[list[str]]) -> dict[str, float]:
    """Instruction -> log10(count / total) over the given units."""
    counts = Counter(i for unit in units for i in unit)
    log_total = math.log10(sum(counts.values()))
    return {i: math.log10(c) - log_total for i, c in counts.items()}


def thresholds(units: list[list[str]], logs: dict[str, float], max_size: int) -> dict[int, float]:
    """Per size, the minimum log10 solution probability over the units."""
    out: dict[int, float] = {}
    for unit in units:
        if len(unit) <= max_size:
            lp = sum(logs[i] for i in unit)
            out[len(unit)] = min(lp, out.get(len(unit), lp))
    return out


def scopes(corpus: dict[str, list[str]], family: list[dict] | None, which: str):
    """(scope label, units) pairs in the order the CSV files list them."""
    if which in ("global", "both"):
        yield "global", list(corpus.values())
    if which in ("subsets", "both"):
        for subset in family:
            yield f"is:{subset['id']}", [corpus[u] for u in subset["covered_units"]]


def enumerate_count(logs: list[float], size: int, threshold: float) -> int:
    """Admissible ordered candidates of exactly ``size``: every multiset,
    as a vector of multiplicities, is visited and contributes its
    multinomial coefficient when it passes."""
    limit = threshold - SLACK
    last = len(logs) - 1
    total = 0

    def visit(i: int, remaining: int, lp: float, weight: int) -> None:
        nonlocal total
        if i == last:
            if lp + remaining * logs[i] >= limit:
                total += weight // math.factorial(remaining)
            return
        for m in range(remaining + 1):
            visit(i + 1, remaining - m, lp + m * logs[i], weight // math.factorial(m))

    visit(0, size, 0.0, math.factorial(size))
    return total


def check_measurements(path, corpus, family, which: str, sizes: range, cap: int, oracle_sizes: dict) -> list[str]:
    """Check a measurement CSV (sequences mode, non-cumulative).

    Rows must cover exactly the (scope, size) pairs that have a threshold.
    Counts at sizes up to ``oracle_sizes[kind]`` (kind "global" or
    "subsets") must equal plain enumeration; every count must lie in
    1..k**size and every baseline must be cap**size.
    """
    rows = read_csv(path)
    if not rows:
        return [f"{path.name}: no measurement rows"]
    errors = []
    got = {(r["scope"], int(r["size"])): r for r in rows}
    expected = set()
    for scope, units in scopes(corpus, family, which):
        logs = log_probs(units)
        thr = thresholds(units, logs, sizes[-1])
        kind = "global" if scope == "global" else "subsets"
        for size in sizes:
            if size not in thr:
                continue
            expected.add((scope, size))
            row = got.get((scope, size))
            if row is None:
                errors.append(f"{path.name}: missing row {scope} size {size}")
                continue
            count = int(row["admissible_count"])
            if not 1 <= count <= len(logs) ** size or int(row["baseline_count"]) != cap**size:
                errors.append(f"{path.name}: {scope} size {size}: count {count} out of range")
            elif size <= oracle_sizes[kind]:
                want = enumerate_count(sorted(logs.values(), reverse=True), size, thr[size])
                if count != want:
                    errors.append(f"{path.name}: {scope} size {size}: count {count}, enumeration {want}")
    extra = set(got) - expected
    if extra:
        errors.append(f"{path.name}: unexpected rows {sorted(extra)[:3]}")
    return errors


def check_family(path, corpus, cap: int) -> list[str]:
    """Every unit with at most ``cap`` distinct instructions is covered by
    exactly one subset whose members contain it; no subset exceeds the cap."""
    family = read_family(path)
    seen = Counter()
    errors = []
    for subset in family:
        members = set(subset["members"])
        if len(members) > cap:
            errors.append(f"{path.name}: subset {subset['id']} has {len(members)} members")
        for uid in subset["covered_units"]:
            seen[uid] += 1
            if not set(corpus[uid]) <= members:
                errors.append(f"{path.name}: unit {uid} not inside subset {subset['id']}")
    for uid, unit in corpus.items():
        want = 1 if len(set(unit)) <= cap else 0
        if seen[uid] != want:
            errors.append(f"{path.name}: unit {uid} covered {seen[uid]} times, expected {want}")
    return errors[:5]


def check_tables(path, corpus, family) -> list[str]:
    """Probability CSV: counts equal a recount, log10 values match it."""
    rows = read_csv(path)
    errors = []
    want = {}
    for scope, units in scopes(corpus, family, "both"):
        counts = Counter(i for unit in units for i in unit)
        logs = log_probs(units)
        want[scope] = {i: (counts[i], logs[i]) for i in counts}
    got: dict[str, dict] = {}
    for r in rows:
        got.setdefault(r["scope"], {})[r["instruction"]] = (int(r["count"]), float(r["log10_probability"]))
    if set(got) != set(want):
        return [f"{path.name}: scopes differ from the recount"]
    for scope, table in want.items():
        if set(got[scope]) != set(table):
            errors.append(f"{path.name}: {scope}: instructions differ")
            continue
        for instr, (count, lp) in table.items():
            gc, glp = got[scope][instr]
            if gc != count or abs(glp - lp) > 1e-9:
                errors.append(f"{path.name}: {scope} {instr}: ({gc}, {glp}) vs recount ({count}, {lp})")
    return errors[:5]


def check_thresholds(path, corpus, family, max_size: int) -> list[str]:
    """Threshold CSV: every per-size threshold equals the recomputed minimum."""
    got = {(r["scope"], int(r["size"])): float(r["log10_probability"]) for r in read_csv(path)}
    errors = []
    expected = set()
    for scope, units in scopes(corpus, family, "both"):
        for size, thr in thresholds(units, log_probs(units), max_size).items():
            expected.add((scope, size))
            value = got.get((scope, size))
            if value is None or abs(value - thr) > 1e-8:
                errors.append(f"{path.name}: {scope} size {size}: {value} vs recomputed {thr}")
    if set(got) != expected:
        errors.append(f"{path.name}: row set differs from the recomputation")
    return errors[:5]


def check_validation(path, fractions: list[float], max_size: int) -> list[str]:
    rows = read_csv(path)
    errors = []
    if {float(r["fraction"]) for r in rows} != set(fractions):
        errors.append(f"{path.name}: fractions differ from those requested")
    for r in rows:
        if not 0.0 <= float(r["coverage_pct"]) <= 100.0 or not 1 <= int(r["size"]) <= max_size:
            errors.append(f"{path.name}: row out of range {r}")
    return errors[:5]


# --- the stack DSL, from its documented semantics -------------------------

_LIMIT = 2**63
_FAULT = object()


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _bounded(n):
    return _FAULT if abs(n) >= _LIMIT else n


def _apply(op: str, stack: list):
    """Run one instruction on the stack in place; False on a fault."""
    if op.startswith("push") and op[4:] in ("0", "1", "2", "3"):
        stack.append(int(op[4:]))
        return True
    binary = op in ("add", "sub", "mul", "swap", "concat")
    need = 2 if binary else 1
    if len(stack) < need:
        return False
    if binary:
        y = stack.pop()
        x = stack.pop()
        if op == "swap":
            stack += [y, x]
            return True
        if op == "concat":
            if not (isinstance(x, list) and isinstance(y, list)) or len(x) + len(y) > 1024:
                return False
            stack.append(x + y)
            return True
        if not (_int(x) and _int(y)):
            return False
        result = {"add": x + y, "sub": x - y, "mul": x * y}[op]
        result = _bounded(result)
    else:
        x = stack.pop()
        if op == "drop":
            return True
        if op == "dup":
            stack += [x, x]
            return True
        if op in ("inc", "dec", "neg"):
            if not _int(x):
                return False
            result = _bounded({"inc": x + 1, "dec": x - 1, "neg": -x}[op])
        else:
            if not isinstance(x, list):
                return False
            if op in ("head", "tail", "maximum", "minimum") and not x:
                return False
            if op == "map_inc" and any(abs(e) + 1 >= _LIMIT for e in x):
                return False
            table = {
                "length": len,
                "sum": lambda v: _bounded(sum(v)),
                "head": lambda v: v[0],
                "tail": lambda v: v[1:],
                "reverse": lambda v: v[::-1],
                "sort": sorted,
                "maximum": max,
                "minimum": min,
                "map_inc": lambda v: [e + 1 for e in v],
                "filter_pos": lambda v: [e for e in v if e > 0],
            }
            if op not in table:
                raise ValueError(f"not a DSL instruction: {op!r}")
            result = table[op](x)
    if result is _FAULT:
        return False
    stack.append(result)
    return True


def run_program(program: list[str], inputs: list):
    """Top of the stack after the program, or None on any fault."""
    stack = list(inputs)
    for op in program:
        if not _apply(op, stack):
            return None
    return stack[-1] if stack else None


def solves(program: list[str], cases: list[dict]) -> bool:
    for case in cases:
        result = run_program(program, case["inputs"])
        expected = case["output"]
        if result is None or type(result) is not type(expected) or result != expected:
            return False
    return True
