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
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Collection

from .corpus import Corpus, CorpusFormatError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class InstructionSubset:
    """A capped instruction set covering one or more program units."""

    id: int
    members: frozenset[str]
    covered_units: tuple[str, ...]


@dataclass(frozen=True)
class SubsetFamily:
    cap: int
    subsets: tuple[InstructionSubset, ...]
    excluded_units: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.subsets)


def cluster_subsets(corpus: Corpus, cap: int) -> SubsetFamily:
    """Cluster corpus units into a family of instruction subsets of size <= cap.

    Units with more than ``cap`` unique instructions cannot fit any subset;
    they are excluded from the family and reported via ``excluded_units``.
    Deterministic: ties in unit ordering keep corpus order, and candidate
    subsets are scanned in creation order.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    excluded = [u.id for u in corpus.units if len(u.unique_instructions) > cap]
    if excluded:
        logger.warning("excluding %d units with more than %d unique instructions", len(excluded), cap)
    kept = [u for u in corpus.units if len(u.unique_instructions) <= cap]

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
    return SubsetFamily(cap=cap, subsets=subsets, excluded_units=tuple(excluded))


def covering_subsets(unique_instructions: Collection[str], family: SubsetFamily) -> list[InstructionSubset]:
    """Subsets whose members contain every given instruction (all, if empty)."""
    wanted = frozenset(unique_instructions)
    return [s for s in family.subsets if wanted <= s.members]


def save_family(family: SubsetFamily, out: IO[str] | str | Path) -> None:
    """Write a subset family as JSON Lines: one subset per line with its
    id, sorted members array, and covered unit ids."""
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8") as f:
            save_family(family, f)
        return
    for subset in family.subsets:
        record = {
            "id": subset.id,
            "members": sorted(subset.members),
            "covered_units": list(subset.covered_units),
        }
        out.write(json.dumps(record) + "\n")


def load_family(path: str | Path, cap: int | None = None) -> SubsetFamily:
    """Load a subset family written by save_family.

    The file format does not carry the clustering cap; pass it explicitly
    or it is inferred as the largest member count present.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    if not lines:
        raise CorpusFormatError(f"empty subset family file: {path}")
    subsets = []
    try:
        for line in lines:
            record = json.loads(line)
            subsets.append(
                InstructionSubset(
                    id=int(record["id"]),
                    members=frozenset(record["members"]),
                    covered_units=tuple(record["covered_units"]),
                )
            )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"malformed subset family file {path}: {exc}") from None
    if cap is None:
        cap = max(len(s.members) for s in subsets)
    return SubsetFamily(cap=cap, subsets=tuple(subsets))
