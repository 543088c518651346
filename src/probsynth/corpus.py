"""Corpora of program units: loading, validation, and synthetic generation.

A program unit (PU) is an id plus a multiset of instruction identifiers;
duplicates matter, order does not. The on-disk format is JSON Lines with
one object per line: ``{"id": "...", "instructions": ["...", ...]}``.

The synthetic generator draws instruction occurrences from a Zipf-ranked
alphabet, optionally restricted per unit to one of several overlapping
instruction pools so that co-occurrence clustering has structure to find.
"""

from __future__ import annotations

import json
import logging
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import IO

logger = logging.getLogger(__name__)
# Names that passed _check_token, which depends on the name alone: checked once per process.
_VALID_NAMES: set[str] = set()


class CorpusFormatError(ValueError):
    """A corpus file or record violates the expected external format."""


def _check_token(token: object, unit_id: str) -> None:
    if not isinstance(token, str) or not token:
        raise CorpusFormatError(f"unit {unit_id!r}: instruction must be a non-empty string, got {token!r}")
    # Splits on exactly the characters for which str.isspace() is true.
    if token.split() != [token]:
        raise CorpusFormatError(f"unit {unit_id!r}: instruction {token!r} contains whitespace")


@dataclass(frozen=True)
class ProgramUnit:
    """One program unit: unique id plus its instruction occurrences."""

    id: str
    instructions: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusFormatError("program unit id must be non-empty")
        if not self.instructions:
            raise CorpusFormatError(f"program unit {self.id!r} has an empty instruction list")
        for token in self.instructions:
            if type(token) is not str or token not in _VALID_NAMES:  # a list is unhashable
                _check_token(token, self.id)
                _VALID_NAMES.add(token)

    @property
    def size(self) -> int:
        return len(self.instructions)

    @cached_property
    def unique_instructions(self) -> frozenset[str]:
        return frozenset(self.instructions)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of program units with unique ids."""

    units: tuple[ProgramUnit, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise CorpusFormatError("empty corpus")
        seen: set[str] = set()
        for unit in self.units:
            if unit.id in seen:
                raise CorpusFormatError(f"duplicate program unit id {unit.id!r}")
            seen.add(unit.id)

    @cached_property
    def unit_by_id(self) -> dict[str, ProgramUnit]:
        return {unit.id: unit for unit in self.units}


def _parse_record(line: str, lineno: int) -> ProgramUnit:
    """One JSON line as a unit. Only the JSON shape is checked here; the id,
    the instructions and their tokens are checked by ProgramUnit."""
    where = f"line {lineno}"
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"{where}: invalid JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise CorpusFormatError(f"{where}: expected an object, got {type(record).__name__}")
    unit_id = record.get("id")
    if not isinstance(unit_id, str):
        raise CorpusFormatError(f"{where}: 'id' must be a non-empty string")
    instructions = record.get("instructions")
    if not isinstance(instructions, list):
        raise CorpusFormatError(f"{where}: 'instructions' must be an array")
    # One string object per instruction name: the decoder makes a new one
    # per occurrence, and a corpus repeats each name thousands of times.
    try:
        tokens = tuple(map(sys.intern, instructions))
    except TypeError:
        tokens = tuple(instructions)  # ProgramUnit names the non-string token
    try:
        return ProgramUnit(id=unit_id, instructions=tokens)
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from None


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a JSON Lines corpus file.

    Raises CorpusFormatError for a malformed record or an invalid unit
    (naming its line), a duplicate unit id (naming the id), or an empty
    file.
    """
    with open(path, "r", encoding="utf-8") as f:
        units = tuple(_parse_record(line, lineno) for lineno, line in enumerate(f, start=1) if line.strip())
    if not units:
        raise CorpusFormatError(f"empty corpus: {path}")
    return Corpus(units=units)


def save_corpus(corpus: Corpus, out: IO[str] | str | Path) -> None:
    """Write a corpus in the JSON Lines external format (round-trip exact)."""
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8") as f:
            save_corpus(corpus, f)
        return
    for unit in corpus.units:
        record = {"id": unit.id, "instructions": list(unit.instructions)}
        out.write(json.dumps(record) + "\n")


@dataclass(frozen=True)
class SizeSpec:
    """Bounded integer distribution for unit sizes: uniform on [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"invalid size distribution: need 1 <= lo <= hi, got {self.lo}..{self.hi}")

    def sample(self, rng: random.Random) -> int:
        if self.lo == self.hi:
            return self.lo
        return rng.randint(self.lo, self.hi)


def parse_size_spec(spec: str) -> SizeSpec:
    """Parse "A..B" (uniform on A..B inclusive) or "K" (every unit size K)."""
    text = spec.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"invalid size distribution spec {spec!r} (expected 'A..B' or 'K')") from None
    return SizeSpec(lo=lo, hi=hi)


def ranked_instruction_id(rank: int, alphabet_size: int) -> str:
    """Identifier of the rank-k instruction in a generated alphabet (1-based)."""
    width = len(str(alphabet_size))
    return f"i{rank:0{width}d}"


def generate_zipf_corpus(
    num_units: int,
    alphabet_size: int,
    zipf_exponent: float,
    size_distribution: SizeSpec | str,
    seed: int,
    clusters: int = 0,
    cluster_size: int = 10,
) -> Corpus:
    """Generate a synthetic corpus with Zipf-distributed instruction draws.

    Instruction at rank k is drawn with probability proportional to
    k ** -zipf_exponent. With ``clusters`` > 0, that many pools of
    ``cluster_size`` ranks are sampled from the alphabet (each pool mixes
    frequent and rare instructions, and pools overlap by chance) and each
    unit draws all of its instructions from one pool, giving subset
    clustering real co-occurrence structure. Deterministic for a fixed
    argument tuple.
    """
    if num_units < 1:
        raise ValueError(f"num_units must be >= 1, got {num_units}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if zipf_exponent <= 0:
        raise ValueError(f"zipf_exponent must be positive, got {zipf_exponent}")
    if isinstance(size_distribution, str):
        size_distribution = parse_size_spec(size_distribution)
    if clusters < 0:
        raise ValueError(f"clusters must be >= 0, got {clusters}")
    if clusters > 0 and not 1 <= cluster_size <= alphabet_size:
        raise ValueError(f"cluster_size must be in 1..{alphabet_size}, got {cluster_size}")

    rng = random.Random(seed)
    names = [ranked_instruction_id(k, alphabet_size) for k in range(1, alphabet_size + 1)]
    weights = [k ** -zipf_exponent for k in range(1, alphabet_size + 1)]

    if clusters > 0:
        pools = []
        for _ in range(clusters):
            ranks = sorted(rng.sample(range(alphabet_size), cluster_size))
            pool_names = [names[r] for r in ranks]
            cum = list(accumulate(weights[r] for r in ranks))
            pools.append((pool_names, cum))
    else:
        pools = [(names, list(accumulate(weights)))]

    id_width = len(str(num_units))
    units = []
    for n in range(1, num_units + 1):
        pool_names, cum = pools[rng.randrange(len(pools))] if clusters > 0 else pools[0]
        size = size_distribution.sample(rng)
        instructions = tuple(rng.choices(pool_names, cum_weights=cum, k=size))
        units.append(ProgramUnit(id=f"u{n:0{id_width}d}", instructions=instructions))
    return Corpus(units=tuple(units))
