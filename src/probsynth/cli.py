"""Command-line pipeline for the corpus heuristics toolkit.

Subcommands: gen, cluster, probs, thresholds, measure, validate, synth.
Every command validates its inputs up front and returns its outputs, which
``main`` writes all or none of, with deterministic bytes for fixed seeds.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import math
import os
import statistics
import sys
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable

from .corpus import (
    CLUSTER_SIZE,
    Corpus,
    SizeSpec,
    generate_zipf_corpus,
    load_corpus,
    parse_size_spec,
    save_corpus,
)
from .probability import Scope, build_scopes, fmt12, scope_sources
from .spacecount import measure
from .subsets import SubsetFamily, cluster_subsets, load_family, save_family
from .synth import MAX_PROGRAM_SIZE, load_test_spec, random_program_corpus, synthesize
from .xval import validate


_Outputs = list[tuple[str, Callable[[IO[str]], None]]]


def _write_csv(header: list[str], rows: Iterable[Iterable], f: IO[str]) -> None:
    """Write one CSV artifact: the header, then the rows, with ``\n`` line
    ends. Rows carry floats already rendered by ``fmt12``; ints are written
    exactly and None as an empty cell."""
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _commit(outputs: _Outputs) -> None:
    """Write all of a command's (path, write) outputs or none: each ``write``
    streams into a new temp file next to its path (created 0666, so the
    kernel applies the umask as for a plain ``open``), and only once every
    write has succeeded are they renamed into place. On failure no temp file
    is left, and an ``OSError`` names its path. A path that is a directory
    fails before any rename, as its own rename would fail after earlier ones."""
    staged: list[str] = []
    try:
        for path, write in outputs:
            if Path(path).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp_name = f"{path}.{os.urandom(8).hex()}.tmp"
            # O_EXCL refuses an existing path or symlink, so nothing planted there is written through.
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append(tmp_name)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
                write(f)
        for tmp_name, (path, _) in zip(staged, outputs):
            os.replace(tmp_name, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for tmp_name in staged:
            try:
                os.unlink(tmp_name)  # gone already once renamed
            except OSError:
                pass


def _ranged(convert: Callable, ok: Callable, bound: str) -> Callable[[str], float]:
    """argparse type: a value that ``convert`` parses and ``ok`` accepts, so a
    bad value is a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


_positive_int = _ranged(int, lambda v: v >= 1, ">= 1")
_non_negative_int = _ranged(int, lambda v: v >= 0, ">= 0")
_positive_float = _ranged(float, lambda v: 0 < v < math.inf, "finite and > 0")
_fraction = _ranged(float, lambda v: 0 < v < 1, "in (0, 1)")
_program_size = _ranged(int, lambda v: 1 <= v <= MAX_PROGRAM_SIZE, f"in 1..{MAX_PROGRAM_SIZE}")


def _size_spec(text: str) -> SizeSpec:
    """argparse type: a size range "A..B" (or "K") with 1 <= A <= B."""
    try:
        return parse_size_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fractions(text: str) -> list[float]:
    """argparse type: comma-separated training fractions, each in (0, 1)."""
    return [_fraction(part) for part in text.split(",")]


def _warn(message: str) -> None:
    print(f"probsynth: WARNING: {message}", file=sys.stderr)


def _cluster(corpus: Corpus, cap: int) -> SubsetFamily:
    """``cluster_subsets``, warning of the units it excludes."""
    family = cluster_subsets(corpus, cap=cap)
    if family.excluded_units:
        _warn(f"excluding {len(family.excluded_units)} units with more than {cap} unique instructions")
    return family


def _load_family_arg(args, corpus: Corpus) -> SubsetFamily | None:
    """The ``--family`` file, if given, after checking that every unit it
    covers is in the ``--input`` corpus and that each subset's members are
    the instructions of its covered units."""
    if not args.family:
        return None
    family = load_family(args.family)
    for subset in family.subsets:
        for unit_id in subset.covered_units:
            if unit_id not in corpus.unit_by_id:
                raise ValueError(f"family {args.family} covers unit {unit_id!r}, which corpus {args.input} lacks")
        used = frozenset().union(*(corpus.unit_by_id[u].instructions for u in subset.covered_units))
        if used != subset.members:
            raise ValueError(f"family {args.family}: subset {subset.id}'s members are not its units' instructions")
    return family


def cmd_gen(args) -> _Outputs:
    if args.dsl_programs:
        corpus = random_program_corpus(
            num_units=args.units,
            size_distribution=args.sizes,
            seed=args.seed,
            zipf_exponent=args.exponent,
        )
    else:
        corpus = generate_zipf_corpus(
            num_units=args.units,
            alphabet_size=100 if args.alphabet is None else args.alphabet,
            zipf_exponent=args.exponent,
            size_distribution=args.sizes,
            seed=args.seed,
            clusters=args.clusters or 0,
        )
    return [(args.output, partial(save_corpus, corpus))]


def cmd_cluster(args) -> _Outputs:
    family = _cluster(load_corpus(args.input), args.cap)
    return [(args.output, partial(save_family, family))]


def cmd_probs(args) -> _Outputs:
    corpus = load_corpus(args.input)
    sources = scope_sources(corpus, _load_family_arg(args, corpus), args.scope)
    rows = (
        (table.scope, instruction, table.counts[instruction], fmt12(log_prob))
        for _, table, _ in sources
        for instruction, log_prob in table.log10_probs.items()
    )
    return [(args.output, partial(_write_csv, ["scope", "instruction", "count", "log10_probability"], rows))]


def _range_rows(scope: Scope, max_size: int) -> Iterable[tuple]:
    """The scope's ``--ranges`` rows, one per size 1..max_size: the lowest and
    highest log10 solution probability its table allows (its least and most
    probable instruction times the size), its threshold, the median and max
    over its units of that size (empty cells when it has none), their number."""
    observed: dict[int, list[float]] = {}
    for unit, log_prob in zip(scope.units, scope.unit_log10_probs):
        observed.setdefault(unit.size, []).append(log_prob)
    for size in range(1, max_size + 1):
        logs = observed.get(size)
        summary = [fmt12(scope.thresholds[size]), fmt12(statistics.median(logs)), fmt12(max(logs))] if logs else [None] * 3
        possible = (fmt12(size * scope.table.min_log10), fmt12(size * scope.table.max_log10))
        yield (scope.table.scope, size, *possible, *summary, scope.support_counts.get(size, 0))


def cmd_thresholds(args) -> _Outputs:
    corpus = load_corpus(args.input)
    scopes = build_scopes(corpus, _load_family_arg(args, corpus), args.scope, args.max_size)
    if not any(scope.units for scope in scopes):
        raise ValueError(f"no unit in scope {args.scope} has at most {args.max_size} instructions")
    rows = (
        (scope.table.scope, size, scope.support_counts[size], fmt12(threshold))
        for scope in scopes
        for size, threshold in scope.thresholds.items()
    )
    outputs = [(args.output, partial(_write_csv, ["scope", "size", "count", "log10_probability"], rows))]
    if args.ranges:
        header = ["scope", "size", "min_possible_log10", "max_possible_log10"]
        header += ["observed_min_log10", "observed_median_log10", "observed_max_log10", "n_observed"]
        rows = (row for scope in scopes for row in _range_rows(scope, args.max_size))
        outputs.append((args.ranges, partial(_write_csv, header, rows)))
    if args.pu_probs:
        rows = (
            (scope.table.scope, unit.id, unit.size, fmt12(log_prob))
            for scope in scopes
            for unit, log_prob in zip(scope.units, scope.unit_log10_probs)
        )
        outputs.append((args.pu_probs, partial(_write_csv, ["scope", "pu_id", "size", "log10_probability"], rows)))
    return outputs


def cmd_measure(args) -> _Outputs:
    corpus = load_corpus(args.input)
    sizes = range(args.sizes.lo, args.sizes.hi + 1)
    scopes = build_scopes(corpus, _load_family_arg(args, corpus), args.scope, args.sizes.hi)
    if not any(size in scope.thresholds for scope in scopes for size in sizes):
        raise ValueError(f"no unit in scope {args.scope} has a size in {args.sizes.lo}..{args.sizes.hi}")
    measured = []
    for scope in scopes:
        for size in sizes:
            if size not in scope.thresholds:
                _warn(f"no threshold for scope {scope.table.scope} at size {size}; skipping")
        measured += measure(scope, [size for size in sizes if size in scope.thresholds], args.cap)
    # The mode column always reads "sequences" (counts are of sequences
    # only); the artifact digests in bench/digests.json include it.
    header = ["scope", "size", "mode", "threshold_log10", "admissible_count", "baseline_count", "reduction_oom"]
    rows = (
        (m.scope, m.size, "sequences", fmt12(m.threshold), m.admissible_count, m.baseline_count, fmt12(m.reduction_oom))
        for m in measured
    )
    return [(args.output, partial(_write_csv, header, rows))]


def cmd_validate(args) -> _Outputs:
    corpus = load_corpus(args.input)
    results = validate(corpus, args.fractions, args.max_size, args.seed)
    if not any(result.per_size_coverage for result in results):
        raise ValueError(f"no training part has a unit of at most {args.max_size} instructions")
    rows = (
        (fmt12(result.training_fraction), size, fmt12(coverage), result.per_size_test_counts[size])
        for result in results
        for size, coverage in result.per_size_coverage.items()
    )
    return [(args.output, partial(_write_csv, ["fraction", "size", "coverage_pct", "n_test_pus"], rows))]


def cmd_synth(args) -> _Outputs:
    corpus = load_corpus(args.input)
    spec = load_test_spec(args.spec)
    scopes = build_scopes(corpus, _cluster(corpus, args.cap), "subsets", args.max_size)
    if args.no_prune:
        scopes = [scope.without_thresholds() for scope in scopes]
    report = synthesize(spec, scopes, args.max_size)
    return [(args.output, lambda f: f.write(json.dumps(dataclasses.asdict(report), indent=2) + "\n"))]


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", required=True, help="output file path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probsynth",
        description="Corpus-driven probability heuristics for pruning program synthesis search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--units", type=_positive_int, required=True, help="number of program units")
    p.add_argument("--alphabet", type=_positive_int, help="alphabet size (ranked, default 100)")
    p.add_argument("--exponent", type=_positive_float, default=1.0, help="Zipf exponent (> 0)")
    p.add_argument("--sizes", type=_size_spec, default="1..40", help="unit size range A..B (default 1..40)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--clusters", type=_non_negative_int, help="overlapping instruction pools (default 0 = none)")
    p.add_argument(
        "--dsl-programs",
        action="store_true",
        help="generate well-formed stack-DSL programs instead of abstract units",
    )
    _add_common_output(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cluster", help="cluster units into capped instruction subsets")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--cap", type=_positive_int, default=10, help="max instructions per subset (default 10)")
    _add_common_output(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("probs", help="instruction probability tables as CSV")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--family", help="subset family JSONL (for per-subset scopes)")
    p.add_argument("--scope", choices=["global", "subsets", "both"])
    _add_common_output(p)
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("thresholds", help="per-size solution probability thresholds as CSV")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--family", help="subset family JSONL (for per-subset scopes)")
    p.add_argument("--scope", choices=["global", "subsets", "both"])
    p.add_argument("--max-size", type=_positive_int, default=40, help="largest unit size to use (default 40)")
    p.add_argument("--ranges", help="also write possible/observed probability ranges CSV here")
    p.add_argument("--pu-probs", help="also write per-unit solution probabilities CSV here")
    _add_common_output(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("measure", help="exact admissible-space sizes and reductions as CSV")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--family", help="subset family JSONL (for per-subset scopes)")
    p.add_argument("--scope", choices=["global", "subsets", "both"])
    p.add_argument("--sizes", type=_size_spec, required=True, help="solution size range A..B")
    p.add_argument("--cap", type=_positive_int, default=10, help="baseline subset cap (default 10)")
    # The work runs in one thread whatever this says. The option stays only
    # because the benchmark's traced pass appends --threads <nproc> for its
    # cli.threads_speedup metric; both go in the same change.
    p.add_argument("--threads", type=_positive_int, default=1, help="accepted and ignored")
    _add_common_output(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("validate", help="cross-validate thresholds on held-out units")
    p.add_argument("-i", "--input", required=True, help="corpus JSONL")
    p.add_argument("--fractions", type=_fractions, required=True, help="comma-separated training fractions in (0,1)")
    p.add_argument("--max-size", type=_positive_int, default=40)
    p.add_argument("--seed", type=int, required=True)
    _add_common_output(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="synthesize a DSL program from a test-case spec")
    p.add_argument("--spec", required=True, help="test-case spec JSON")
    p.add_argument("-i", "--input", required=True, help="DSL program corpus JSONL")
    p.add_argument("--cap", type=_positive_int, default=10)
    p.add_argument("--max-size", type=_program_size, default=5, help=f"largest program size to try (1..{MAX_PROGRAM_SIZE})")
    p.add_argument("--no-prune", action="store_true", help="no thresholds: every size at its floor (IS space only)")
    _add_common_output(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        # The DSL generator has its own 24 instructions and no pools.
        for name in ("alphabet", "clusters"):
            if args.dsl_programs and getattr(args, name) is not None:
                parser.error(f"argument --{name}: not allowed with argument --dsl-programs")
        if args.clusters and args.alphabet is not None and args.alphabet < CLUSTER_SIZE:
            parser.error(f"argument --alphabet: must be >= {CLUSTER_SIZE} when --clusters is above 0, got {args.alphabet}")
    scope = getattr(args, "scope", "global")
    if scope is None:
        args.scope = "both" if args.family else "global"
    elif scope in ("subsets", "both") and not args.family:
        parser.error(f"argument --scope: {scope} requires --family")
    outputs = [path for path in (args.output, getattr(args, "ranges", None), getattr(args, "pu_probs", None)) if path]
    paths = [os.path.realpath(path) for path in outputs]
    if len(set(paths)) < len(paths):
        parser.error("arguments -o/--ranges/--pu-probs: two outputs name the same file")
    try:
        for path in outputs:
            # A stat of "parent/" fails as creating the output there would, unless parent is a directory.
            try:
                os.stat(os.path.join(os.path.dirname(path) or ".", ""))
            except OSError as exc:
                raise OSError(f"cannot write {path}: {exc.strerror}") from None
        _commit(args.func(args))
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
