"""Greedy subset clustering and coverage queries."""

from __future__ import annotations

import pytest

from probsynth import (
    Corpus,
    ProgramUnit,
    cluster_subsets,
    covering_subsets,
    load_family,
    save_family,
)


def corpus_of(*units):
    return Corpus(units=tuple(ProgramUnit(uid, tuple(instrs)) for uid, instrs in units))


class TestClusterSubsets:
    def test_union_fits_single_subset(self):
        corpus = corpus_of(("u1", "ab"), ("u2", "bc"), ("u3", "abc"))
        family = cluster_subsets(corpus, cap=3)
        assert len(family) == 1
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
        assert len(family) == 1

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
        assert 0 < len(family) < len(corpus)

    def test_every_kept_unit_covered(self, family_and_corpus):
        corpus, family = family_and_corpus
        covered = {uid for s in family.subsets for uid in s.covered_units}
        kept = {u.id for u in corpus.units if len(u.unique_instructions) <= 10}
        assert covered == kept
        for unit in corpus.units:
            if unit.id in kept:
                assert covering_subsets(unit.unique_instructions, family)

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


class TestCoveringSubsets:
    @pytest.fixture()
    def family(self):
        corpus = corpus_of(("u1", "ab"), ("u2", "cd"))
        return cluster_subsets(corpus, cap=2)

    def test_superset_match(self, family):
        found = covering_subsets({"a"}, family)
        assert [sorted(s.members) for s in found] == [["a", "b"]]

    def test_no_superset(self, family):
        assert covering_subsets({"a", "c"}, family) == []

    def test_empty_query_matches_all(self, family):
        assert len(covering_subsets(set(), family)) == len(family)


class TestFamilyRoundTrip:
    def test_save_load(self, tmp_path):
        corpus = corpus_of(("u1", "ab"), ("u2", "bc"), ("u3", "de"))
        family = cluster_subsets(corpus, cap=3)
        path = tmp_path / "family.jsonl"
        save_family(family, path)
        assert load_family(path).subsets == family.subsets
