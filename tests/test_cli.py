"""Command-line pipeline: outputs, exit codes, and determinism."""

from __future__ import annotations

import csv
import json
import os
import re
import shlex
import stat
from pathlib import Path

import pytest

from probsynth import build_scopes, cli, cluster_subsets, evaluate, load_corpus, load_family, synthesize
from probsynth.synth import MAX_PROGRAM_SIZE, TestCase, TestCaseSpec, load_test_spec

from conftest import write_spec


def run(args):
    return cli.main(args)


def write_corpus_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestGenCluster:
    def test_gen_then_cluster_covers_every_kept_unit(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        family_path = tmp_path / "f.jsonl"
        assert run([
            "gen", "--units", "1000", "--alphabet", "50", "--exponent", "1.0",
            "--sizes", "1..12", "--seed", "1", "--clusters", "10", "-o", str(corpus_path),
        ]) == 0
        assert run(["cluster", "--cap", "10", "-i", str(corpus_path), "-o", str(family_path)]) == 0
        corpus = load_corpus(corpus_path)
        family = load_family(family_path)
        assert len(family.subsets) > 0
        covered = {uid for s in family.subsets for uid in s.covered_units}
        kept = {u.id for u in corpus.units if len(u.unique_instructions) <= 10}
        assert covered == kept

    def test_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["gen", "--units", "100", "--alphabet", "20", "--sizes", "1..6", "--seed", "9"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    def test_output_mode_follows_umask(self, tmp_path, umask):
        out = tmp_path / "c.jsonl"
        previous = os.umask(umask)
        try:
            assert run(["gen", "--units", "10", "--seed", "1", "-o", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_commands_leave_the_umask_alone(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        corpus, family = tmp_path / "corpus.jsonl", tmp_path / "family.jsonl"
        assert run(["gen", "--units", "200", "--alphabet", "120", "--exponent", "1.0", "--sizes", "1..30",
                    "--seed", "11", "--clusters", "24", "-o", str(corpus)]) == 0
        assert run(["cluster", "-i", str(corpus), "--cap", "10", "-o", str(family)]) == 0
        assert load_family(family).subsets

    def test_gen_dsl_programs(self, tmp_path):
        out = tmp_path / "dsl.jsonl"
        assert run(["gen", "--units", "50", "--sizes", "1..5", "--seed", "3", "--dsl-programs", "-o", str(out)]) == 0
        corpus = load_corpus(out)
        assert len(corpus.units) == 50


class TestMeasureCommand:
    def test_toy_fixture_row(self, tmp_path):
        corpus_path = write_corpus_lines(
            tmp_path / "toy.jsonl",
            ['{"id":"u1","instructions":["a","a"]}', '{"id":"u2","instructions":["a","a","b"]}'],
        )
        out = tmp_path / "m.csv"
        assert run([
            "measure", "-i", corpus_path, "--scope", "global",
            "--sizes", "2..2", "--cap", "2", "-o", str(out),
        ]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["admissible_count"] == "1"
        assert rows[0]["baseline_count"] == "4"
        assert rows[0]["scope"] == "global"


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_input_runtime_error(self, tmp_path, capsys):
        rc = run(["cluster", "-i", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path / "f.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_failed_command_leaves_no_output(self, tmp_path, capsys):
        corpus_path = write_corpus_lines(tmp_path / "c.jsonl", ['{"id":"u1","instructions":["a"]}', "{"])
        out = tmp_path / "p.csv"
        rc = run(["probs", "-i", corpus_path, "-o", str(out)])
        assert rc == 1
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("scope", ["subsets", "both"])
    @pytest.mark.parametrize("args", [["probs"], ["thresholds"], ["measure", "--sizes", "1..2"]], ids=lambda a: a[0])
    def test_subset_scope_without_family_is_usage_error(self, tmp_path, capsys, args, scope):
        # The corpus does not exist: the flags are rejected before any file is read.
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run(args + ["-i", str(tmp_path / "nope.jsonl"), "--scope", scope, "-o", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: argument --scope: {scope} requires --family")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["measure", "--sizes", "1..2", "--threads", "0"],
            ["measure", "--sizes", "1..2", "--threads", "-1"],
            ["measure", "--sizes", "0..3"],
            ["measure", "--sizes", "1..2", "--cap", "0"],
            ["validate", "--fractions", "0.5", "--max-size", "0", "--seed", "1"],
            ["validate", "--fractions", "0,0.5", "--seed", "1"],
            # "auto" is no scope: leaving --scope out picks one.
            ["measure", "--sizes", "1..2", "--scope", "auto"],
        ],
        ids=[
            "threads-0", "threads-negative", "sizes-from-0", "cap-0",
            "validate-max-size-0", "fraction-0", "scope-auto",
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, args):
        corpus_path = write_corpus_lines(
            tmp_path / "c.jsonl",
            ['{"id":"u1","instructions":["a"]}', '{"id":"u2","instructions":["a","b"]}'],
        )
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run(args + ["-i", corpus_path, "-o", str(out)])
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--units", "0"],
            ["--units", "10", "--alphabet", "0"],
            ["--units", "10", "--clusters", "-1"],
            ["--units", "10", "--exponent", "nan"],
            ["--units", "10", "--sizes", "0..3"],
            ["--units", "10", "--sizes", "0..3", "--dsl-programs"],
            ["--units", "10", "--clusters", "2", "--alphabet", "9"],
            # DSL programs draw from the 24 DSL instructions, with no pools.
            ["--units", "10", "--dsl-programs", "--alphabet", "100"],
            ["--units", "10", "--dsl-programs", "--clusters", "0"],
        ],
        ids=[
            "units-0", "alphabet-0", "clusters-negative", "exponent-nan",
            "sizes-from-0", "dsl-sizes-from-0", "alphabet-below-pool",
            "dsl-with-alphabet", "dsl-with-clusters",
        ],
    )
    def test_gen_out_of_range_value_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "c.jsonl"
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--seed", "1", *args, "-o", str(out)])
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()

    def test_synth_max_size_above_bound_is_usage_error(self, tmp_path, capsys):
        # Rejected before any file is read: neither input exists.
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run([
                "synth", "--spec", str(tmp_path / "spec.json"), "-i", str(tmp_path / "dsl.jsonl"),
                "--max-size", str(MAX_PROGRAM_SIZE + 1), "-o", str(out),
            ])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument --max-size: must be in 1..{MAX_PROGRAM_SIZE}, got {MAX_PROGRAM_SIZE + 1}"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [["cluster"], ["synth", "--spec", "spec.json", "--max-size", "3"]],
        ids=["cluster", "synth"],
    )
    def test_no_unit_fits_cap_is_runtime_error(self, tmp_path, capsys, args):
        corpus_path = write_corpus_lines(
            tmp_path / "c.jsonl", [f'{{"id":"u{i}","instructions":["push1","push2","add"]}}' for i in range(5)]
        )
        write_spec(TestCaseSpec(cases=(TestCase((), 3),)), tmp_path / "spec.json")
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
        rc = run(argv + ["-i", corpus_path, "--cap", "2", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no unit has at most 2 unique instructions\n"
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "args",
        [["probs"], ["thresholds", "--max-size", "2"], ["measure", "--sizes", "1..2"]],
        ids=["probs", "thresholds", "measure"],
    )
    def test_family_unit_missing_from_corpus_is_runtime_error(self, tmp_path, capsys, args):
        clustered = write_corpus_lines(
            tmp_path / "a.jsonl",
            ['{"id":"u1","instructions":["a"]}', '{"id":"u2","instructions":["a","b"]}'],
        )
        corpus_path = write_corpus_lines(tmp_path / "b.jsonl", ['{"id":"u1","instructions":["a"]}'])
        family_path = str(tmp_path / "f.jsonl")
        assert run(["cluster", "-i", clustered, "-o", family_path]) == 0
        capsys.readouterr()
        out = tmp_path / "out.csv"
        rc = run(args + ["-i", corpus_path, "--family", family_path, "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: family {family_path} covers unit 'u2', which corpus {corpus_path} lacks\n"
        )
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": 0, "members": ["b"], "covered_units": ["u2"]}',
            '{"id": true, "members": ["b"], "covered_units": ["u2"]}',
            '{"id": 0.7, "members": ["b"], "covered_units": ["u2"]}',
            '{"id": 1, "members": "ab", "covered_units": ["u2"]}',
            '{"id": 1, "members": ["b"], "covered_units": "u2"}',
        ],
        ids=["duplicate-id", "bool-id", "float-id", "string-members", "string-covered-units"],
    )
    def test_malformed_family_is_runtime_error(self, tmp_path, capsys, record):
        corpus_path = write_corpus_lines(
            tmp_path / "c.jsonl",
            ['{"id":"u1","instructions":["a"]}', '{"id":"u2","instructions":["a","b"]}'],
        )
        family_path = tmp_path / "f.jsonl"
        family_path.write_text('{"id": 0, "members": ["a"], "covered_units": ["u1"]}\n' + record + "\n")
        out = tmp_path / "out.csv"
        rc = run(["probs", "-i", corpus_path, "--family", str(family_path), "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed subset family file {family_path}: ") and err.count("\n") == 1
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "args",
        [["probs"], ["thresholds", "--max-size", "2"], ["measure", "--sizes", "1..2"]],
        ids=["probs", "thresholds", "measure"],
    )
    @pytest.mark.parametrize("members", [["zzz"], ["a"], ["a", "b", "c"]], ids=["foreign", "missing", "extra"])
    def test_family_members_not_its_units_instructions_is_runtime_error(self, tmp_path, capsys, args, members):
        corpus_path = write_corpus_lines(
            tmp_path / "c.jsonl",
            ['{"id":"u1","instructions":["a"]}', '{"id":"u2","instructions":["a","b"]}'],
        )
        family_path = tmp_path / "f.jsonl"
        family_path.write_text(
            '{"id": 0, "members": ["a"], "covered_units": ["u1"]}\n'
            + json.dumps({"id": 1, "members": members, "covered_units": ["u2"]}) + "\n"
        )
        out = tmp_path / "out.csv"
        rc = run(args + ["-i", corpus_path, "--family", str(family_path), "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: family {family_path}: subset 1's members are not its units' instructions\n"
        )
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"cases": [}', "Expecting value: line 1 column 12 (char 11)"),
            ('{"cases": [{"inputs": "ab", "output": 1}]}', "case 0: values must be integers or integer lists"),
            ('{"cases": [{"inputs": [], "output": "x"}]}', "case 0: values must be integers or integer lists"),
            ('{"cases": [{"inputs": [], "output": true}]}', "case 0: values must be integers or integer lists"),
            ('{"cases": [{"inputs": [], "output": 1.5}]}', "case 0: values must be integers or integer lists"),
            ('{"cases": [{"inputs": [], "output": [1, "a"]}]}', "case 0: values must be integers or integer lists"),
        ],
        ids=["invalid-json", "string-inputs", "string-output", "bool-output", "float-output", "mixed-list-output"],
    )
    def test_malformed_spec_is_runtime_error(self, tmp_path, capsys, text, reason):
        corpus_path = tmp_path / "dsl.jsonl"
        assert run(["gen", "--units", "20", "--sizes", "1..3", "--seed", "1", "--dsl-programs", "-o", str(corpus_path)]) == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        report_path = tmp_path / "report.json"
        rc = run(["synth", "--spec", str(spec_path), "-i", str(corpus_path), "-o", str(report_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed test-case spec {spec_path}: {reason}") and err.count("\n") == 1
        assert not report_path.exists()

    @pytest.fixture()
    def large_units_corpus(self, tmp_path):
        """An abstract corpus whose units all have 5 to 8 instructions."""
        path = tmp_path / "large.jsonl"
        assert run(["gen", "--units", "50", "--sizes", "5..8", "--seed", "1", "-o", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize(
        "args,outputs",
        [
            (["thresholds", "--scope", "global", "--max-size", "3"], ["out.csv"]),
            (
                ["thresholds", "--scope", "global", "--max-size", "3", "--ranges", "ranges.csv",
                 "--pu-probs", "pu.csv"],
                ["out.csv", "ranges.csv", "pu.csv"],
            ),
            (["measure", "--scope", "global", "--sizes", "1..3"], ["out.csv"]),
            (["validate", "--fractions", "0.5", "--max-size", "3", "--seed", "1"], ["out.csv"]),
        ],
        ids=["thresholds", "thresholds-ranges-pu-probs", "measure", "validate"],
    )
    def test_no_unit_small_enough_is_runtime_error(self, tmp_path, capsys, large_units_corpus, args, outputs):
        capsys.readouterr()
        argv = [(str(tmp_path / a) if a.endswith(".csv") else a) for a in args]
        rc = run(argv + ["-i", large_units_corpus, "-o", str(tmp_path / "out.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        for name in outputs:
            assert not (tmp_path / name).exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_validate_checks_training_parts_not_corpus(self, tmp_path, capsys):
        # One unit of size 1, three of size 6; a fraction of 0.25 trains on
        # one unit: index 3 at seed 0, index 0 at seed 2.
        corpus = write_corpus_lines(
            tmp_path / "c.jsonl",
            ['{"id":"u0","instructions":["a"]}']
            + [f'{{"id":"u{i}","instructions":["a","b","a","b","a","b"]}}' for i in (1, 2, 3)],
        )
        out = tmp_path / "out.csv"
        argv = ["validate", "-i", corpus, "--fractions", "0.25", "--max-size", "3", "-o", str(out)]
        capsys.readouterr()
        assert run(argv + ["--seed", "0"]) == 1
        assert capsys.readouterr().err == "error: no training part has a unit of at most 3 instructions\n"
        assert not out.exists()
        assert run(argv + ["--seed", "2"]) == 0
        assert out.read_text().splitlines()[1:] == ["0.25,1,100,0"]

    def test_synth_on_non_dsl_corpus_is_runtime_error(self, tmp_path, capsys, large_units_corpus):
        spec_path = tmp_path / "spec.json"
        write_spec(TestCaseSpec(cases=(TestCase((), 3),)), spec_path)
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        rc = run(["synth", "--spec", str(spec_path), "-i", large_units_corpus, "-o", str(report_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown DSL instruction") and err.count("\n") == 1
        assert not report_path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ranges", "{out}"],
            ["--pu-probs", "{out}"],
            ["--ranges", "{tmp}/r.csv", "--pu-probs", "{tmp}/sub/../r.csv"],
        ],
        ids=["ranges", "pu-probs", "ranges-pu-probs"],
    )
    def test_outputs_naming_one_file_is_usage_error(self, tmp_path, capsys, flags):
        # The corpus does not exist: the paths are rejected before any file is read.
        out = tmp_path / "out.csv"
        argv = [flag.format(out=out, tmp=tmp_path) for flag in flags]
        with pytest.raises(SystemExit) as exc:
            run(["thresholds", "-i", str(tmp_path / "nope.jsonl"), *argv, "-o", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith("two outputs name the same file")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--units", "5", "--seed", "1", "-o", "{missing}"],
            ["cluster", "-o", "{missing}"],
            ["probs", "-o", "{missing}"],
            ["thresholds", "-o", "{missing}"],
            ["thresholds", "--ranges", "{missing}", "-o", "{out}"],
            ["thresholds", "--ranges", "{out2}", "--pu-probs", "{missing}", "-o", "{out}"],
            ["measure", "--sizes", "3", "-o", "{missing}"],
            ["validate", "--fractions", "0.5", "--seed", "1", "-o", "{missing}"],
            ["synth", "--spec", "{spec}", "--max-size", "3", "-o", "{missing}"],
        ],
        ids=["gen", "cluster", "probs", "thresholds", "thresholds-ranges", "thresholds-pu-probs",
             "measure", "validate", "synth"],
    )
    def test_output_in_missing_directory_writes_nothing(self, tmp_path, capsys, args):
        corpus_path = write_corpus_lines(
            tmp_path / "c.jsonl", [f'{{"id":"u{i}","instructions":["push1","push2","add"]}}' for i in range(5)]
        )
        write_spec(TestCaseSpec(cases=(TestCase((), 3),)), tmp_path / "spec.json")
        missing = tmp_path / "nodir" / "x"
        names = {"missing": missing, "out": tmp_path / "out.csv", "out2": tmp_path / "out2.csv"}
        argv = [a.format(spec=tmp_path / "spec.json", **names) for a in args]
        rc = run(argv if args[0] == "gen" else argv + ["-i", corpus_path])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cannot write {missing}: No such file or directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "spec.json"]

    @pytest.mark.parametrize(
        "args",
        [
            ["measure", "--sizes", "21..30", "-o", "{missing}"],
            ["thresholds", "--pu-probs", "{missing}", "-o", "{out}"],
        ],
        ids=["measure", "thresholds-pu-probs"],
    )
    def test_output_in_missing_directory_fails_before_input_is_read(self, tmp_path, capsys, args):
        # The corpus does not exist either: the diagnostic names the output.
        missing = tmp_path / "nodir" / "x"
        argv = [a.format(missing=missing, out=tmp_path / "out.csv") for a in args]
        assert run(argv + ["-i", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: cannot write {missing}: No such file or directory\n"
        assert not list(tmp_path.iterdir())

    def test_output_that_is_a_directory_writes_nothing(self, tmp_path, capsys):
        corpus_path = write_corpus_lines(tmp_path / "c.jsonl", ['{"id":"u1","instructions":["a"]}'])
        (tmp_path / "adir").mkdir()
        rc = run(["thresholds", "-i", corpus_path, "--ranges", str(tmp_path / "adir"), "-o", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / 'adir'}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "c.jsonl"]
        assert not list((tmp_path / "adir").iterdir())

    def test_commit_writes_nothing_when_a_later_output_fails(self, tmp_path):
        def fail(f):
            f.write("partial\n")
            raise ValueError("cannot render")

        outputs = [(str(tmp_path / "a.csv"), lambda f: f.write("a\n")), (str(tmp_path / "b.csv"), fail)]
        with pytest.raises(ValueError, match="cannot render"):
            cli._commit(outputs)
        assert not list(tmp_path.iterdir())


class TestLogging:
    @pytest.fixture()
    def toy_corpus(self, tmp_path):
        # Sizes 2 and 3 only: a global measure at sizes 1..2 skips size 1.
        return write_corpus_lines(
            tmp_path / "toy.jsonl",
            ['{"id":"u1","instructions":["a","b"]}', '{"id":"u2","instructions":["a","a","b"]}'],
        )

    def test_warning_printed_once_per_call_with_prefix(self, tmp_path, capsys, toy_corpus):
        argv = ["measure", "-i", toy_corpus, "--scope", "global", "--sizes", "1..2", "-o", str(tmp_path / "m.csv")]
        for _ in range(2):
            assert run(argv) == 0
            err = capsys.readouterr().err
            assert err == "probsynth: WARNING: no threshold for scope global at size 1; skipping\n"

    def test_excluded_units_warned(self, tmp_path, capsys):
        # u0 alone fits a cap of 1: a family of no subset is an error.
        corpus = write_corpus_lines(
            tmp_path / "c.jsonl",
            [
                '{"id":"u0","instructions":["a"]}',
                '{"id":"u1","instructions":["a","b"]}',
                '{"id":"u2","instructions":["a","a","b"]}',
            ],
        )
        assert run(["cluster", "-i", corpus, "--cap", "1", "-o", str(tmp_path / "f.jsonl")]) == 0
        assert capsys.readouterr().err == "probsynth: WARNING: excluding 2 units with more than 1 unique instructions\n"


class TestReportCommands:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        family_path = tmp_path / "f.jsonl"
        run([
            "gen", "--units", "400", "--alphabet", "30", "--sizes", "1..10",
            "--seed", "2", "--clusters", "6", "-o", str(corpus_path),
        ])
        run(["cluster", "--cap", "10", "-i", str(corpus_path), "-o", str(family_path)])
        return tmp_path, str(corpus_path), str(family_path)

    def test_probs_csv(self, pipeline):
        tmp_path, corpus_path, family_path = pipeline
        out = tmp_path / "probs.csv"
        assert run(["probs", "-i", corpus_path, "--family", family_path, "-o", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        scopes = {r["scope"] for r in rows}
        assert "global" in scopes and any(s.startswith("is:") for s in scopes)
        for row in rows:
            assert float(row["log10_probability"]) <= 0.0

    def test_thresholds_with_ranges_and_pu_probs(self, pipeline):
        tmp_path, corpus_path, family_path = pipeline
        out = tmp_path / "thr.csv"
        ranges = tmp_path / "ranges.csv"
        pu = tmp_path / "pu.csv"
        assert run([
            "thresholds", "-i", corpus_path, "--family", family_path, "--max-size", "10",
            "--ranges", str(ranges), "--pu-probs", str(pu), "-o", str(out),
        ]) == 0
        thr_rows = list(csv.DictReader(out.read_text().splitlines()))
        assert thr_rows and all(float(r["log10_probability"]) <= 0 for r in thr_rows)
        range_rows = list(csv.DictReader(ranges.read_text().splitlines()))
        for row in range_rows:
            if row["observed_min_log10"]:
                assert float(row["min_possible_log10"]) <= float(row["observed_min_log10"]) + 1e-9
        pu_rows = list(csv.DictReader(pu.read_text().splitlines()))
        assert {r["pu_id"] for r in pu_rows if r["scope"] == "global"} == {
            u.id for u in load_corpus(corpus_path).units
        }

    def test_validate_csv(self, pipeline):
        tmp_path, corpus_path, _ = pipeline
        out = tmp_path / "val.csv"
        assert run([
            "validate", "-i", corpus_path, "--fractions", "0.1,0.5",
            "--max-size", "10", "--seed", "4", "-o", str(out),
        ]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["fraction"] for r in rows} == {"0.1", "0.5"}
        assert all(0.0 <= float(r["coverage_pct"]) <= 100.0 for r in rows)

    def test_validate_fractions_in_one_run(self, pipeline):
        tmp_path, corpus_path, _ = pipeline

        def rows(fractions):
            out = tmp_path / f"val-{fractions}.csv"
            assert run([
                "validate", "-i", corpus_path, "--fractions", fractions, "--max-size", "10",
                "--seed", "4", "-o", str(out),
            ]) == 0
            return out.read_text().splitlines()[1:]

        assert rows("0.01,0.25") == rows("0.01") + rows("0.25")


class TestSynthCommand:
    def test_end_to_end(self, tmp_path):
        corpus_path = tmp_path / "dsl.jsonl"
        spec_path = tmp_path / "spec.json"
        report_path = tmp_path / "report.json"
        assert run([
            "gen", "--units", "250", "--sizes", "1..5", "--seed", "17",
            "--dsl-programs", "-o", str(corpus_path),
        ]) == 0
        write_spec(TestCaseSpec(cases=(TestCase((), 3),)), spec_path)
        assert run([
            "synth", "--spec", str(spec_path), "-i", str(corpus_path),
            "--cap", "8", "--max-size", "3", "-o", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["solution"] is not None
        assert evaluate(report["solution"], ()) == 3

    def test_max_size_at_bound_solves_readme_demo(self, tmp_path):
        # The largest bound still reports the most probable program that
        # passes, not one padded to a deep first branch (255 push0s, then
        # push3, before best-first search).
        corpus_path, spec_path, report_path = tmp_path / "dsl.jsonl", tmp_path / "spec.json", tmp_path / "report.json"
        run(["gen", "--units", "1000", "--sizes", "1..6", "--seed", "29", "--dsl-programs", "-o", str(corpus_path)])
        write_spec(TestCaseSpec(cases=(TestCase((), 3),)), spec_path)
        assert run([
            "synth", "--spec", str(spec_path), "-i", str(corpus_path),
            "--cap", "10", "--max-size", str(MAX_PROGRAM_SIZE), "-o", str(report_path),
        ]) == 0
        assert json.loads(report_path.read_text())["solution"] == ["push3"]

    def test_no_prune_flag(self, tmp_path):
        corpus_path = tmp_path / "dsl.jsonl"
        spec_path = tmp_path / "spec.json"
        report_path = tmp_path / "report.json"
        run(["gen", "--units", "250", "--sizes", "1..5", "--seed", "17", "--dsl-programs", "-o", str(corpus_path)])
        write_spec(TestCaseSpec(cases=(TestCase((), 2),)), spec_path)
        assert run([
            "synth", "--spec", str(spec_path), "-i", str(corpus_path),
            "--cap", "8", "--max-size", "3", "--no-prune", "-o", str(report_path),
        ]) == 0
        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(report_path.read_text(), parse_constant=no_constant)
        assert report["nodes_pruned_by_threshold"] == 0
        # --no-prune is synthesize on threshold-free scopes.
        corpus = load_corpus(corpus_path)
        scopes = build_scopes(corpus, cluster_subsets(corpus, cap=8), "subsets", 3)
        direct = synthesize(load_test_spec(spec_path), [s.without_thresholds() for s in scopes], 3)
        assert report["nodes_expanded"] == direct.nodes_expanded


class TestThreadsDeterminism:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        family_path = tmp_path / "f.jsonl"
        run([
            "gen", "--units", "600", "--alphabet", "40", "--sizes", "1..12",
            "--seed", "8", "--clusters", "8", "-o", str(corpus_path),
        ])
        run(["cluster", "--cap", "10", "-i", str(corpus_path), "-o", str(family_path)])
        outputs = {}
        for threads in ("1", "8"):
            out = tmp_path / f"m{threads}.csv"
            assert run([
                "measure", "-i", str(corpus_path), "--family", str(family_path),
                "--scope", "subsets", "--sizes", "4..8", "--cap", "10",
                "--threads", threads, "-o", str(out),
            ]) == 0
            outputs[threads] = out.read_bytes()
        assert outputs["1"] == outputs["8"]


class TestReadme:
    """The README names exactly the flags the parser has, so deleting an
    option cannot leave the docs describing it, and adding one cannot leave
    it undocumented."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_every_command_parses(self):
        text = self.README.read_text(encoding="utf-8").replace("\\\n", " ")
        commands = [line.split(None, 1)[1] for line in text.splitlines() if line.startswith("probsynth ")]
        assert len(commands) >= 8
        parser = cli._build_parser()
        for command in commands:
            try:
                parser.parse_args(shlex.split(command))
            except SystemExit:
                pytest.fail(f"README command does not parse: probsynth {command}")

    def test_every_flag_exists(self):
        parser = cli._build_parser()
        [commands] = [a for a in parser._actions if a.choices and a.dest == "command"]
        known = {flag for sub in commands.choices.values() for a in sub._actions for flag in a.option_strings}
        lines = [line for line in self.README.read_text(encoding="utf-8").splitlines() if "pip install" not in line]
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
        assert named and named <= known, sorted(named - known)

    def test_library_sketch_runs(self, capsys):
        [sketch] = re.findall(r"```python\n(.*?)```", self.README.read_text(encoding="utf-8"), flags=re.DOTALL)
        exec(compile(sketch, str(self.README), "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_every_parser_flag_is_documented(self):
        parser = cli._build_parser()
        [commands] = [a for a in parser._actions if a.choices and a.dest == "command"]
        named = set(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", self.README.read_text(encoding="utf-8")))
        missing = sorted(
            f"{name} {'/'.join(a.option_strings)}"
            for name, sub in commands.choices.items()
            for a in sub._actions
            if a.dest != "help"
            and any(flag.startswith("--") for flag in a.option_strings)
            and not named & set(a.option_strings)
        )
        assert not missing, missing
