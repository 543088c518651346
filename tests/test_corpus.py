"""Corpus loading, validation, round trips, and the synthetic generator."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import statistics
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import probsynth.corpus
from probsynth import (
    Corpus,
    CorpusFormatError,
    ProgramUnit,
    cli,
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
        assert len(corpus.units) == 1
        assert corpus.units[0].size == 3
        assert corpus.units[0].unique_instructions == {"add", "len"}

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

    BAD_RECORDS = {
        '["not","an","object"]': "expected an object",
        '{"instructions":["a"]}': "'id' must be a non-empty string",
        '{"id":"u1"}': "'instructions' must be an array",
        '{"id":"u1","instructions":"a"}': "'instructions' must be an array",
        '{"id":"u1","instructions":["a b"]}': "contains whitespace",
        '{"id":"u1","instructions":[""]}': "non-empty string",
        '{"id":"","instructions":["a"]}': "id must be non-empty",
        '{"id":"u1","instructions":[5]}': "non-empty string",
        '{"id":"u1","instructions":[null]}': "non-empty string",
        '{"id":"u1","instructions":[["a"]]}': "non-empty string",
    }

    @pytest.mark.parametrize("line", list(BAD_RECORDS))
    def test_bad_records(self, tmp_path, capsys, line):
        path = write_lines(tmp_path / "c.jsonl", [line])
        diagnostic = f"line 1: .*{re.escape(self.BAD_RECORDS[line])}"
        with pytest.raises(CorpusFormatError, match=f"^{diagnostic}"):
            load_corpus(path)
        out = tmp_path / "f.jsonl"
        assert cli.main(["cluster", "-i", str(path), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.match(f"error: {diagnostic}", err) and err.count("\n") == 1
        assert not out.exists()

    def test_valid_corpus_never_runs_token_check(self, tmp_path, monkeypatch):
        # Names no other test uses, written as JSON so that no unit is built
        # from them before the load.
        names = [f"only_in_this_test_{k}" for k in range(8)]
        records = [{"id": f"u{k}", "instructions": names[k % 8 :] + names[: k % 3 + 1]} for k in range(40)]
        path = write_lines(tmp_path / "c.jsonl", map(json.dumps, records))
        calls = []
        monkeypatch.setattr(probsynth.corpus, "_check_token", lambda *args: calls.append(args))
        corpus = load_corpus(path)
        assert calls == []
        assert [list(unit.instructions) for unit in corpus.units] == [r["instructions"] for r in records]

    def test_bad_token_after_thousands_of_good_ones(self, tmp_path):
        corpus = generate_zipf_corpus(2_000, 30, 1.0, "1..10", seed=4)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"id":"bad","instructions":["i01","i02","a b"]}\n')
        diagnostic = "line 2001: unit 'bad': instruction 'a b' contains whitespace"
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(diagnostic)}$"):
            load_corpus(path)

    def test_bad_name_rejected_on_every_load(self, tmp_path):
        path = write_lines(
            tmp_path / "c.jsonl",
            ['{"id":"u1","instructions":["a"]}', '{"id":"u2","instructions":["a","b c"]}'],
        )
        diagnostic = "line 2: unit 'u2': instruction 'b c' contains whitespace"
        for _ in range(2):
            with pytest.raises(CorpusFormatError, match=f"^{re.escape(diagnostic)}$"):
                load_corpus(path)

    def test_first_repeated_id_is_named(self):
        units = tuple(ProgramUnit(unit_id, ("x",)) for unit_id in "abba")
        with pytest.raises(CorpusFormatError, match=r"^duplicate program unit id 'b'$"):
            Corpus(units=units)

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


def _json_loads_line(line, lineno):
    """Reference for the corpus line decoder: json.loads on the whole line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None


def _units_or_error(path):
    try:
        return load_corpus(path).units
    except CorpusFormatError as exc:
        return str(exc)


class TestLineDecoding:
    """load_corpus gives the units, or the error text, that per-line
    json.loads gives, whatever surrounds each line's JSON."""

    # JSON whitespace, whitespace JSON does not allow, and a byte order mark.
    EDGES = [" ", "\t", "\r", "\x0c", "\x85", "\xa0", "\u3000", "\ufeff"]
    BODIES = [
        '{"id":"u","instructions":["a","b","a"]}',
        '{"id":"u","instructions":["a"]} x',
        '{"id":"u","instructions":["a"]}{"id":"v","instructions":["b"]}',
        '{"id":"u","instructions":["a"]},{"id":"v","instructions":["b"]}',
        '{"id":"u","instructions":["a"]}]',
        '{"id":"u","instructions":["a"]',
        '["a"]',
        '"u"',
        "1",
        "null",
        "",
    ]
    edge = st.lists(st.sampled_from(EDGES)).map("".join)

    @given(st.lists(st.tuples(edge, st.sampled_from(BODIES), edge | st.text(max_size=2)), min_size=1, max_size=4))
    def test_matches_json_loads(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("decode") / "c.jsonl"
        text = "".join(
            before + body.replace('"u"', f'"u{i}"').replace('"v"', f'"v{i}"') + after + "\n"
            for i, (before, body, after) in enumerate(lines)
        )
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(probsynth.corpus, "_decode_line", _json_loads_line):
            expected = _units_or_error(path)
        assert _units_or_error(path) == expected

    def test_record_split_across_lines(self, tmp_path):
        # Joined into one JSON array, these three lines would read as three records.
        path = write_lines(
            tmp_path / "c.jsonl",
            [
                '{"id":"a","instructions":["x"],"k":[{}',
                "{}]}",
                '{"id":"b","instructions":["y"]},{"id":"c","instructions":["z"]}',
            ],
        )
        with pytest.raises(CorpusFormatError, match=r"^line 1: invalid JSON \(Expecting ',' delimiter\)$"):
            load_corpus(path)

    def test_load_streams(self, clustered_corpus, tmp_path):
        # Reading the file whole before decoding holds more than its size again.
        path = tmp_path / "c.jsonl"
        save_corpus(clustered_corpus, path)
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert corpus == clustered_corpus
        assert peak - retained < path.stat().st_size


class TestProgramUnit:
    @pytest.mark.parametrize(
        "instructions,size",
        [(("add", "add", "len"), 3), (("map",), 1), (("a",) * 5 + ("b",) * 5, 10)],
    )
    def test_pu_size(self, instructions, size):
        assert ProgramUnit("u", instructions).size == size

    def test_rejects_non_str_token_equal_to_known_name(self):
        class Twin:
            """Hashes and compares as the name it carries, but is no str."""

            def __init__(self, name):
                self.name = name

            def __hash__(self):
                return hash(self.name)

            def __eq__(self, other):
                return other == self.name

        ProgramUnit("u", ("add",))
        assert Twin("add") in {"add"}
        with pytest.raises(CorpusFormatError, match="instruction must be a non-empty string"):
            ProgramUnit("v", ("add", Twin("add")))

    def test_rejects_whitespace_token(self):
        with pytest.raises(CorpusFormatError):
            ProgramUnit("u", ("a b",))

    SPACES = ["", "\x1c", "\x85", "\xa0", " ", "\u3000"]

    @given(st.lists(st.sampled_from(SPACES) | st.characters() | st.text(max_size=3)).map("".join))
    @example("\x1c")
    @example("a\x85")
    @example("\u3000a")
    @example("a\xa0b")
    def test_whitespace_check_matches_isspace(self, token):
        reference = not token or any(ch.isspace() for ch in token)
        try:
            ProgramUnit("u", (token,))
        except CorpusFormatError:
            rejected = True
        else:
            rejected = False
        assert rejected == reference

    class Name(str):
        """A str subclass: _check_token accepts it as a string."""

    SPACE_CHARS = SPACES[1:] + ["\x1d", "\x1e", "\x1f"]
    TOKENS = (
        st.sampled_from(SPACES + SPACE_CHARS)
        | st.text(alphabet=st.sampled_from(SPACE_CHARS) | st.characters(), max_size=4)
        | st.text(max_size=3).map(Name)
        | st.none()
        | st.integers()
        | st.lists(st.text(max_size=2), max_size=2)
    )

    @given(st.lists(TOKENS, min_size=1, max_size=6).map(tuple))
    @example(("a", ""))
    @example(("a", 5, "b c"))
    @example(("a\x1c", "b"))
    def test_joined_check_agrees_with_token_loop(self, tokens):
        """The joined test accepts a token tuple exactly when every token
        passes _check_token, and a rejected tuple's error names the first
        bad token, as the loop alone would."""
        reference = None
        for token in tokens:
            try:
                probsynth.corpus._check_token(token, "u")
            except CorpusFormatError as exc:
                reference = str(exc)
                break
        check = mock.Mock(side_effect=probsynth.corpus._check_token)
        with mock.patch.object(probsynth.corpus, "_check_token", check):
            try:
                ProgramUnit("u", tokens)
            except CorpusFormatError as exc:
                error = str(exc)
            else:
                error = None
        assert (check.call_count == 0) == (reference is None)
        assert error == reference


class TestCorpusIndex:
    UNITS = (ProgramUnit("u1", ("a",)), ProgramUnit("u2", ("a", "b")))

    def test_replace_rebuilds_index(self):
        corpus = Corpus(units=self.UNITS)
        other = ProgramUnit("u3", ("c",))
        replaced = dataclasses.replace(corpus, units=(other,))
        assert replaced.unit_by_id == {"u3": other}
        assert corpus.unit_by_id.keys() == {"u1", "u2"}
        with pytest.raises(CorpusFormatError, match="duplicate program unit id 'u1'"):
            dataclasses.replace(corpus, units=self.UNITS + self.UNITS[:1])

    def test_equality_hash_and_repr_ignore_index(self):
        corpus = Corpus(units=self.UNITS)
        twin = Corpus(units=self.UNITS)
        assert corpus.unit_by_id is not twin.unit_by_id
        object.__setattr__(twin, "unit_by_id", {})
        assert corpus == twin
        assert hash(corpus) == hash(twin) == hash((self.UNITS,))
        assert repr(corpus) == f"Corpus(units={self.UNITS!r})"


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
        assert {i for u in corpus.units for i in u.instructions} <= allowed
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
