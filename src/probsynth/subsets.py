"""Clustering of program units into capped, overlapping instruction subsets.

Each subset's member set is exactly the union of the unique-instruction
sets of the units it covers, so by construction a subset can regenerate
every unit assigned to it. Clustering is greedy first-fit-decreasing:
units are processed in descending unique-instruction count (corpus order
breaks ties) and assigned to the first existing subset whose member union
stays within the cap, else a new subset is opened.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .corpus import Corpus, CorpusFormatError


@dataclass(frozen=True)
class InstructionSubset:
    """A capped instruction set covering one or more program units."""

    id: int
    members: frozenset[str]
    covered_units: tuple[str, ...]


@dataclass(frozen=True)
class SubsetFamily:
    subsets: tuple[InstructionSubset, ...]
    excluded_units: tuple[str, ...] = ()


def cluster_subsets(corpus: Corpus, cap: int) -> SubsetFamily:
    """Cluster corpus units into a family of instruction subsets of size <= cap.

    Units with more than ``cap`` unique instructions cannot fit any subset;
    they are excluded from the family and reported via ``excluded_units``.
    Raises ValueError when no unit fits, rather than return an empty family.
    Deterministic: ties in unit ordering keep corpus order, and candidate
    subsets are scanned in creation order.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    kept = [u for u in corpus.units if len(u.unique_instructions) <= cap]
    if not kept:
        raise ValueError(f"no unit has at most {cap} unique instructions")
    excluded = [u.id for u in corpus.units if len(u.unique_instructions) > cap]

    ordered = sorted(kept, key=lambda u: -len(u.unique_instructions))
    members: list[set[str]] = []
    covered: list[list[str]] = []
    for unit in ordered:
        uniq = unit.unique_instructions
        for i, existing in enumerate(members):
            if len(existing | uniq) <= cap:
                existing.update(uniq)
                covered[i].append(unit.id)
                break
        else:
            members.append(set(uniq))
            covered.append([unit.id])

    subsets = tuple(
        InstructionSubset(id=i, members=frozenset(m), covered_units=tuple(c))
        for i, (m, c) in enumerate(zip(members, covered))
    )
    return SubsetFamily(subsets=subsets, excluded_units=tuple(excluded))


def save_family(family: SubsetFamily, out: IO[str]) -> None:
    """Write a subset family as JSON Lines: one subset per line with its
    id, sorted members array, and covered unit ids."""
    for subset in family.subsets:
        record = {
            "id": subset.id,
            "members": sorted(subset.members),
            "covered_units": list(subset.covered_units),
        }
        out.write(json.dumps(record) + "\n")


def load_family(path: str | Path) -> SubsetFamily:
    """Load a subset family written by save_family (which does not record
    the clustering cap or the excluded units).

    Raises CorpusFormatError, naming the file, for an empty file, a line
    that is not an object with an integer ``id`` and string arrays
    ``members`` and ``covered_units``, an empty ``covered_units``, or an id
    that repeats.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    if not lines:
        raise CorpusFormatError(f"empty subset family file: {path}")
    subsets: dict[int, InstructionSubset] = {}
    try:
        for line in lines:
            record = json.loads(line)
            subset_id, members, covered = record["id"], record["members"], record["covered_units"]
            if type(subset_id) is not int:
                raise ValueError(f"subset id must be an integer, got {subset_id!r}")
            for name, value in (("members", members), ("covered_units", covered)):
                if type(value) is not list or not all(type(v) is str for v in value):
                    raise ValueError(f"subset {subset_id}: {name} must be an array of strings")
            if not covered:
                raise ValueError(f"subset {subset_id}: covered_units must be non-empty")
            if subset_id in subsets:
                raise ValueError(f"duplicate subset id {subset_id}")
            subsets[subset_id] = InstructionSubset(subset_id, frozenset(members), tuple(covered))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"malformed subset family file {path}: {exc}") from None
    return SubsetFamily(subsets=tuple(subsets.values()))
