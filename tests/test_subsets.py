"""Greedy subset clustering and the subset family file."""

from __future__ import annotations

import re

import pytest

from probsynth import (
    Corpus,
    CorpusFormatError,
    ProgramUnit,
    cluster_subsets,
    load_family,
    save_family,
)


def corpus_of(*units):
    return Corpus(units=tuple(ProgramUnit(uid, tuple(instrs)) for uid, instrs in units))


class TestClusterSubsets:
    def test_union_fits_single_subset(self):
        corpus = corpus_of(("u1", "ab"), ("u2", "bc"), ("u3", "abc"))
        family = cluster_subsets(corpus, cap=3)
        assert len(family.subsets) == 1
        assert family.subsets[0].members == {"a", "b", "c"}
        assert set(family.subsets[0].covered_units) == {"u1", "u2", "u3"}

    def test_disjoint_units_two_subsets(self):
        corpus = corpus_of(("u1", "ab"), ("u2", "cd"))
        family = cluster_subsets(corpus, cap=2)
        assert sorted(sorted(s.members) for s in family.subsets) == [["a", "b"], ["c", "d"]]

    def test_oversize_units_reported_not_fatal(self):
        corpus = corpus_of(("u1", "abcde"), ("u2", "ab"))
        family = cluster_subsets(corpus, cap=3)
        assert family.excluded_units == ("u1",)
        assert len(family.subsets) == 1

    def test_deterministic(self, clustered_corpus):
        a = cluster_subsets(clustered_corpus, cap=10)
        b = cluster_subsets(clustered_corpus, cap=10)
        assert a == b

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            cluster_subsets(corpus_of(("u1", "a")), cap=0)


@pytest.fixture(scope="module")
def family_and_corpus():
    from probsynth import generate_zipf_corpus

    corpus = generate_zipf_corpus(1000, 50, 1.0, "1..12", seed=5, clusters=10, cluster_size=8)
    return corpus, cluster_subsets(corpus, cap=10)


class TestFamilyInvariants:

    def test_family_smaller_than_corpus(self, family_and_corpus):
        corpus, family = family_and_corpus
        assert 0 < len(family.subsets) < len(corpus.units)

    def test_every_kept_unit_covered(self, family_and_corpus):
        corpus, family = family_and_corpus
        covered = {uid for s in family.subsets for uid in s.covered_units}
        kept = {u.id for u in corpus.units if len(u.unique_instructions) <= 10}
        assert covered == kept
        for unit in corpus.units:
            if unit.id in kept:
                assert any(unit.unique_instructions <= s.members for s in family.subsets)

    def test_cap_respected(self, family_and_corpus):
        _, family = family_and_corpus
        assert all(len(s.members) <= 10 for s in family.subsets)

    def test_members_reconstruct_from_covered_units(self, family_and_corpus):
        corpus, family = family_and_corpus
        for subset in family.subsets:
            union = set()
            for uid in subset.covered_units:
                union |= corpus.unit_by_id[uid].unique_instructions
            assert subset.members == union

    def test_no_empty_subsets(self, family_and_corpus):
        _, family = family_and_corpus
        assert all(s.members and s.covered_units for s in family.subsets)


class TestFamilyRoundTrip:
    def test_save_load(self, tmp_path):
        corpus = corpus_of(("u1", "ab"), ("u2", "bc"), ("u3", "de"))
        family = cluster_subsets(corpus, cap=3)
        path = tmp_path / "family.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            save_family(family, f)
        assert load_family(path).subsets == family.subsets

    @pytest.mark.parametrize(
        "lines, reason",
        [
            (['{"id": 0, "members": ["a"], "covered_units": ["u1"]}'] * 2, "duplicate subset id 0"),
            (['{"id": true, "members": ["a"], "covered_units": ["u1"]}'], "subset id must be an integer"),
            (['{"id": 2.7, "members": ["a"], "covered_units": ["u1"]}'], "subset id must be an integer"),
            (['{"id": "0", "members": ["a"], "covered_units": ["u1"]}'], "subset id must be an integer"),
            (['{"id": 0, "members": "ab", "covered_units": ["u1"]}'], "members must be an array of strings"),
            (['{"id": 0, "members": ["a", 1], "covered_units": ["u1"]}'], "members must be an array of strings"),
            (['{"id": 0, "members": ["a"], "covered_units": "u1"}'], "covered_units must be an array of strings"),
            (['{"id": 0, "members": ["a"], "covered_units": []}'], "subset 0: covered_units must be non-empty"),
            (['{"id": 0, "members": ["a"]}'], "'covered_units'"),
            (["[0]"], ""),
            (["{"], ""),
        ],
        ids=[
            "duplicate-id", "bool-id", "float-id", "string-id", "string-members", "non-string-member",
            "string-covered-units", "empty-covered-units", "missing-key", "not-an-object", "invalid-json",
        ],
    )
    def test_malformed_record_names_file(self, tmp_path, lines, reason):
        path = tmp_path / "family.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        prefix = re.escape(f"malformed subset family file {path}: ")
        with pytest.raises(CorpusFormatError, match=f"^{prefix}.*{re.escape(reason)}"):
            load_family(path)
