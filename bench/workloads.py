"""The benchmark's workloads: how each makes its inputs, the CLI calls it
times, and how each call's output is checked.

Every workload draws its inputs from the run seed but keeps its load
steady across seeds: the costly structure is fixed (the README corpus's
units and clusters, criterion 7's DSL corpus and planted programs) and the
seed picks what varies (the names of the README corpus's instructions,
the probe inputs the specs are written on, the inputs and outputs of the
unsatisfiable specs).

Calls a span should see go through ``probsynth.<name>`` attributes, which
tracing replaces; helper work of the benchmark itself (planting specs,
checks) uses the originals bound at import and is never traced.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

import oracle
import probsynth
import probsynth.cli
from probsynth import (
    DSL_ALPHABET,
    Corpus,
    ProgramUnit,
    cluster_subsets,
    derive_thresholds,
    evaluate,
    random_program_corpus,
    solution_probability,
    subset_instruction_probs,
)

PROBES = ((0,), (2,), (3,), (5,), (7,))  # criterion 7's probe inputs
CAP = 10


@dataclass
class Op:
    """One timed CLI call, its output files and the check of those outputs."""

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[], list[str]] = field(default=lambda: [])
    # Stable outputs must repeat byte for byte from pass to pass and match
    # the digest recorded for the seed. A synth report is not stable: it
    # holds node and round counts, and possibly a different valid program,
    # that a change to the search may legitimately alter; its check is the
    # oracle's alone.
    stable: bool = True


def cli(argv: list[str]) -> int:
    return probsynth.cli.main(argv)


def _run_cli(argv: list[str]) -> None:
    rc = cli(argv)
    if rc != 0:
        raise RuntimeError(f"set-up call {argv[0]} exited {rc}")


def dsl_corpus(work: Path, units: int) -> Corpus:
    """Write criterion 7's DSL corpus: programs over one integer input that
    run without fault on every probe."""
    corpus = probsynth.random_program_corpus(units, "1..6", seed=29, input_arity=1, probe_inputs=PROBES)
    probsynth.save_corpus(corpus, work / "dsl.jsonl")
    return corpus


def _size_range(text: str) -> range:
    lo, hi = (int(x) for x in text.split(".."))
    return range(lo, hi + 1)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def readme_corpus(seed: int, units: int, path: Path) -> None:
    """Write the README corpus (10k units, alphabet 120, 24 clusters, seed
    11) at seed 0, and at other seeds the same corpus with its instruction
    names permuted by the seed.

    A permutation keeps the corpus's structure: the same units in the same
    order, the same family of clusters, and the same probabilities under
    other names. The corpus, the family and the probability tables differ
    from seed to seed; the counts, thresholds and validation figures, and
    the work, do not. A random 10k of a
    larger population moved the per-size minimum units, and with them the
    counter's cost, by about 10% from seed to seed.
    """
    corpus = probsynth.generate_zipf_corpus(units, 120, 1.0, "1..30", seed=11, clusters=24, cluster_size=10)
    if seed != 0:
        names = sorted({i for unit in corpus.units for i in unit.instructions})
        rename = dict(zip(names, random.Random(seed).sample(names, len(names))))
        corpus = Corpus(units=tuple(
            ProgramUnit(unit.id, tuple(rename[i] for i in unit.instructions)) for unit in corpus.units))
    probsynth.save_corpus(corpus, path)


class Workload:
    name: str

    def prepare(self) -> None:
        """Work that depends on no seed, done once per process and outside the timed set-up."""


class CountDeep(Workload):
    name = "count-deep"

    def __init__(self, tiny: bool) -> None:
        # Sizes 5..18 rather than the README's 5..20: the call takes about
        # five seconds instead of ten, so a run repeats it four or five
        # times; with two repeats the run-to-run spread reached the bound.
        self.units, self.sizes = (1_000, "5..10") if tiny else (10_000, "5..18")

    def setup(self, seed: int, work: Path) -> None:
        readme_corpus(seed, self.units, work / "corpus.jsonl")
        _run_cli(["cluster", "-i", str(work / "corpus.jsonl"), "--cap", str(CAP), "-o", str(work / "family.jsonl")])

    def inputs(self, work: Path) -> list[Path]:
        return [work / "corpus.jsonl", work / "family.jsonl"]

    def ops(self, work: Path) -> list[Op]:
        out = work / "measurements.csv"

        def check() -> list[str]:
            corpus = oracle.read_corpus(work / "corpus.jsonl")
            family = oracle.read_family(work / "family.jsonl")
            return oracle.check_measurements(
                out, corpus, family, "subsets", _size_range(self.sizes), CAP, {"subsets": 8}
            )

        argv = ["measure", "-i", str(work / "corpus.jsonl"), "--family", str(work / "family.jsonl"),
                "--scope", "subsets", "--sizes", self.sizes, "--cap", str(CAP), "-o", str(out)]
        return [Op("measure", argv, [out], check)]


def _easy_outputs() -> set:
    """Probe-output vectors of every program of one or two instructions."""
    easy = set()
    for size in (1, 2):
        for prog in product(DSL_ALPHABET, repeat=size):
            easy.add(tuple(str(evaluate(prog, p)) for p in PROBES))
    return easy


class SynthSolve(Workload):
    name = "synth-solve"

    def __init__(self, tiny: bool) -> None:
        # Criterion 7 takes six per size. One of size 6, which alone takes
        # about three seconds, and a seventh of size 5 keep twenty specs in
        # a pass short enough to repeat three times in a run.
        self.quota = {3: 1, 4: 1} if tiny else {3: 6, 4: 6, 5: 7, 6: 1}
        self.corpus_units = 300 if tiny else 1000
        self.planted: list[tuple] = []

    def prepare(self) -> None:
        # The DSL corpus dsl_corpus writes, built here by the untraced original.
        corpus = random_program_corpus(self.corpus_units, "1..6", seed=29, input_arity=1, probe_inputs=PROBES)
        self.planted = self._plant(corpus)

    def _plant(self, corpus: Corpus) -> list[tuple]:
        """Criterion 7's planted programs: from its pool (seed 101), the
        first of each size that are input-dependent, that no program of one
        or two instructions computes, that a subset covers and that clear
        their size's threshold."""
        family = cluster_subsets(corpus, cap=CAP)
        tables = {s.id: subset_instruction_probs(corpus, s) for s in family.subsets}
        thresholds = {s.id: derive_thresholds(corpus, tables[s.id], list(s.covered_units), 6) for s in family.subsets}
        easy = _easy_outputs()
        picked: dict[int, list] = {size: [] for size in self.quota}
        pool = random_program_corpus(20_000, "3..6", seed=101, input_arity=1, probe_inputs=PROBES)
        for unit in pool.units:
            if len(picked.get(unit.size, ())) >= self.quota.get(unit.size, 0):
                continue
            vec = tuple(str(evaluate(unit.instructions, p)) for p in PROBES)
            if len(set(vec)) <= 1 or vec in easy:
                continue
            cover = next((s for s in family.subsets if unit.unique_instructions <= s.members), None)
            if cover is None:
                continue
            base = thresholds[cover.id].thresholds.get(unit.size)
            if base is None or solution_probability(tables[cover.id], unit.instructions) < base - 1e-9:
                continue
            picked[unit.size].append(unit.instructions)
        return [(prog, size) for size in self.quota for prog in picked[size]]

    def setup(self, seed: int, work: Path) -> None:
        # The programs are criterion 7's at every seed, so the search does
        # comparable work; the seed picks the five probe inputs the specs
        # are written on (criterion 7's own at seed 0). A program over one
        # integer input never builds a list, so it runs without fault on
        # any small integer.
        # The file name carries the planted size, the --max-size of the call.
        dsl_corpus(work, self.corpus_units)
        probes = PROBES if seed == 0 else [(x,) for x in sorted(random.Random(seed).sample(range(10), 5))]
        for i, (prog, size) in enumerate(self.planted):
            cases = [{"inputs": list(p), "output": evaluate(prog, p)} for p in probes]
            _write_json(work / f"spec{i:02d}-s{size}.json", {"cases": cases})

    def inputs(self, work: Path) -> list[Path]:
        return [work / "dsl.jsonl"] + sorted(work.glob("spec*.json"))

    def ops(self, work: Path) -> list[Op]:
        ops = []
        for spec in sorted(work.glob("spec*.json")):
            size = int(spec.stem.split("-s")[1])
            out = spec.with_name(spec.name.replace("spec", "report"))

            def check(spec=spec, out=out, size=size) -> list[str]:
                solution = json.loads(out.read_text())["solution"]
                cases = json.loads(spec.read_text())["cases"]
                if solution is None:
                    return [f"{out.name}: no solution for a planted spec"]
                if len(solution) > size or not oracle.solves(solution, cases):
                    return [f"{out.name}: solution {solution} fails the spec or exceeds size {size}"]
                return []

            argv = ["synth", "--spec", str(spec), "-i", str(work / "dsl.jsonl"), "--cap", str(CAP),
                    "--max-size", str(size), "-o", str(out)]
            ops.append(Op(spec.stem, argv, [out], check, stable=False))
        return ops


class SynthExhaust(Workload):
    name = "synth-exhaust"

    def __init__(self, tiny: bool) -> None:
        # Size 4 runs the same four-round schedule as size 5 (112k nodes
        # against 32k for one unpruned sweep, the 3.5 restart ratio of size
        # 5) in a tenth of the time, so a pass of eight specs repeats four
        # times in a run; one size-5 spec took longer than the rest of the
        # pass together and spread its time over a quarter from run to run.
        self.max_sizes = [3, 3] if tiny else [4] * 8
        self.corpus_units = 300 if tiny else 1000

    def setup(self, seed: int, work: Path) -> None:
        # Integer inputs and a list output: no DSL instruction builds a list
        # from integers, so every spec is unsatisfiable by construction.
        dsl_corpus(work, self.corpus_units)
        for i in range(len(self.max_sizes)):
            rng = random.Random(f"exhaust:{seed}:{i}")
            inputs = rng.sample(range(-50, 51), 4)
            cases = [{"inputs": [x], "output": [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]} for x in inputs]
            _write_json(work / f"spec{i:02d}.json", {"cases": cases})

    def inputs(self, work: Path) -> list[Path]:
        return [work / "dsl.jsonl"] + [work / f"spec{i:02d}.json" for i in range(len(self.max_sizes))]

    def ops(self, work: Path, extra: tuple[str, ...] = ()) -> list[Op]:
        ops = []
        for i, size in enumerate(self.max_sizes):
            out = work / f"report{i:02d}.json"

            def check(out=out) -> list[str]:
                if json.loads(out.read_text())["solution"] is not None:
                    return [f"{out.name}: a solution for an unsatisfiable spec"]
                return []

            argv = ["synth", "--spec", str(work / f"spec{i:02d}.json"), "-i", str(work / "dsl.jsonl"),
                    "--cap", str(CAP), "--max-size", str(size), "-o", str(out), *extra]
            ops.append(Op(f"spec{i:02d}-s{size}", argv, [out], check, stable=False))
        return ops


class Pipeline(Workload):
    name = "pipeline"

    FRACTIONS = [0.001, 0.01, 0.05, 0.25]

    def __init__(self, tiny: bool) -> None:
        # The README pipeline on count-deep's corpus (10k units, 1.6 MB)
        # rather than on 50k units: a pass of about three seconds, repeated
        # five or more times in a run. With one to three passes of a larger
        # corpus, drawn afresh per seed, the run-to-run spread passed the
        # bound.
        self.units, self.sizes = (1_000, "1..3") if tiny else (10_000, "1..4")

    def setup(self, seed: int, work: Path) -> None:
        readme_corpus(seed, self.units, work / "corpus.jsonl")

    def inputs(self, work: Path) -> list[Path]:
        return [work / "corpus.jsonl"]

    def ops(self, work: Path) -> list[Op]:
        c, f = str(work / "corpus.jsonl"), str(work / "family.jsonl")
        p = {name: work / name for name in
             ("family.jsonl", "probs.csv", "thresholds.csv", "ranges.csv", "pu_probs.csv",
              "measurements.csv", "validation.csv")}
        cache: dict = {}

        def loaded():
            if not cache:
                cache["corpus"] = oracle.read_corpus(work / "corpus.jsonl")
                cache["family"] = oracle.read_family(p["family.jsonl"])
            return cache["corpus"], cache["family"]

        return [
            Op("cluster", ["cluster", "-i", c, "--cap", str(CAP), "-o", f], [p["family.jsonl"]],
               lambda: oracle.check_family(p["family.jsonl"], loaded()[0], CAP)),
            Op("probs", ["probs", "-i", c, "--family", f, "-o", str(p["probs.csv"])], [p["probs.csv"]],
               lambda: oracle.check_tables(p["probs.csv"], *loaded())),
            Op("thresholds", ["thresholds", "-i", c, "--family", f, "--max-size", "30",
                              "--ranges", str(p["ranges.csv"]), "--pu-probs", str(p["pu_probs.csv"]),
                              "-o", str(p["thresholds.csv"])],
               [p["thresholds.csv"], p["ranges.csv"], p["pu_probs.csv"]],
               lambda: oracle.check_thresholds(p["thresholds.csv"], *loaded(), 30)),
            Op("measure", ["measure", "-i", c, "--family", f, "--scope", "both", "--sizes", self.sizes,
                           "--cap", str(CAP), "-o", str(p["measurements.csv"])], [p["measurements.csv"]],
               lambda: oracle.check_measurements(p["measurements.csv"], *loaded(), "both", _size_range(self.sizes),
                                                 CAP, {"global": 3, "subsets": 4})),
            Op("validate", ["validate", "-i", c, "--fractions", ",".join(map(str, self.FRACTIONS)),
                            "--max-size", "30", "--seed", "3", "-o", str(p["validation.csv"])],
               [p["validation.csv"]],
               lambda: oracle.check_validation(p["validation.csv"], self.FRACTIONS, 30)),
        ]


WORKLOADS = {w.name: w for w in (CountDeep, SynthSolve, SynthExhaust, Pipeline)}
