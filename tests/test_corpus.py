"""Corpus loading, validation, round trips, and the synthetic generator."""

from __future__ import annotations

import math
import statistics
from collections import Counter

import pytest

from probsynth import (
    Corpus,
    CorpusFormatError,
    ProgramUnit,
    generate_zipf_corpus,
    load_corpus,
    parse_size_spec,
    ranked_instruction_id,
    save_corpus,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_single_unit(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"id":"u1","instructions":["add","add","len"]}'])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.units[0].size == 3
        assert corpus.alphabet == {"add", "len"}

    def test_empty_file(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", [])
        with pytest.raises(CorpusFormatError, match="empty corpus"):
            load_corpus(path)

    def test_duplicate_id_names_unit(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            ['{"id":"u1","instructions":["a"]}', '{"id":"u1","instructions":["b"]}'],
        )
        with pytest.raises(CorpusFormatError, match="u1"):
            load_corpus(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            ['{"id":"u1","instructions":["a"]}', "{not json"],
        )
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_empty_instruction_list(self, tmp_path):
        path = write_lines(tmp_path / "c.jsonl", ['{"id":"u1","instructions":[]}'])
        with pytest.raises(CorpusFormatError, match="empty instruction list"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "line",
        [
            '["not","an","object"]',
            '{"instructions":["a"]}',
            '{"id":"u1"}',
            '{"id":"u1","instructions":"a"}',
            '{"id":"u1","instructions":["a b"]}',
            '{"id":"u1","instructions":[""]}',
            '{"id":"","instructions":["a"]}',
        ],
    )
    def test_bad_records(self, tmp_path, line):
        path = write_lines(tmp_path / "c.jsonl", [line])
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_round_trip(self, tmp_path):
        units = (
            ProgramUnit("u1", ("add", "add", "len")),
            ProgramUnit("u2", ("map",)),
            ProgramUnit("u3", ("a", "b", "a", "c", "a")),
        )
        corpus = Corpus(units=units)
        path = tmp_path / "out.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus


class TestProgramUnit:
    @pytest.mark.parametrize(
        "instructions,size",
        [(("add", "add", "len"), 3), (("map",), 1), (("a",) * 5 + ("b",) * 5, 10)],
    )
    def test_pu_size(self, instructions, size):
        assert ProgramUnit("u", instructions).size == size

    def test_rejects_whitespace_token(self):
        with pytest.raises(CorpusFormatError):
            ProgramUnit("u", ("a b",))


class TestSizeSpec:
    def test_parse_range(self):
        spec = parse_size_spec("1..40")
        assert (spec.lo, spec.hi) == (1, 40)

    def test_parse_fixed(self):
        spec = parse_size_spec("3")
        assert (spec.lo, spec.hi) == (3, 3)

    @pytest.mark.parametrize("text", ["", "abc", "0..5", "5..2", "-1"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_size_spec(text)


class TestGenerateZipf:
    def test_single_instruction_alphabet(self):
        corpus = generate_zipf_corpus(1000, 1, 2.0, "3", seed=7)
        only = ranked_instruction_id(1, 1)
        assert all(u.instructions == (only,) * 3 for u in corpus.units)

    def test_deterministic(self):
        a = generate_zipf_corpus(200, 30, 1.0, "1..10", seed=4)
        b = generate_zipf_corpus(200, 30, 1.0, "1..10", seed=4)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_zipf_corpus(200, 30, 1.0, "1..10", seed=4)
        b = generate_zipf_corpus(200, 30, 1.0, "1..10", seed=5)
        assert a != b

    @pytest.mark.parametrize("clusters", [0, 5])
    def test_bounds_and_alphabet(self, clusters):
        corpus = generate_zipf_corpus(
            500, 25, 1.2, "2..9", seed=3, clusters=clusters, cluster_size=8
        )
        allowed = {ranked_instruction_id(k, 25) for k in range(1, 26)}
        assert corpus.alphabet <= allowed
        assert all(2 <= u.size <= 9 for u in corpus.units)

    def test_rank_frequency_follows_power_law(self, zipf_corpus):
        counts = Counter()
        for unit in zipf_corpus.units:
            counts.update(unit.instructions)
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] > 10 * statistics.median(ranked)
        # log-log regression of frequency on rank should sit near the
        # generating exponent of 1.0
        xs = [math.log10(r) for r in range(1, len(ranked) + 1)]
        ys = [math.log10(c) for c in ranked]
        fit = statistics.linear_regression(xs, ys)
        assert -1.4 < fit.slope < -0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_units=0, alphabet_size=5, zipf_exponent=1.0, size_distribution="1..3", seed=1),
            dict(num_units=5, alphabet_size=0, zipf_exponent=1.0, size_distribution="1..3", seed=1),
            dict(num_units=5, alphabet_size=5, zipf_exponent=0.0, size_distribution="1..3", seed=1),
            dict(num_units=5, alphabet_size=5, zipf_exponent=1.0, size_distribution="0..3", seed=1),
            dict(
                num_units=5,
                alphabet_size=5,
                zipf_exponent=1.0,
                size_distribution="1..3",
                seed=1,
                clusters=2,
                cluster_size=9,
            ),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            generate_zipf_corpus(**kwargs)

    def test_generated_round_trip(self, tmp_path):
        corpus = generate_zipf_corpus(50, 12, 1.0, "1..6", seed=2)
        path = tmp_path / "gen.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus
