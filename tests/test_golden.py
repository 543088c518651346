"""Golden bytes: a small README-shaped pipeline, run through ``cli.main``,
writes every artifact kind with the same bytes as when the digests below
were recorded.

The digests were recorded before the CSV writers moved into ``cli``; any
change to an artifact's format, row order or float rendering shows here.
The README's synthesizer demo report, with and without ``--no-prune``, is
pinned the same way, so a change to the search that should leave its
reports alone is checked here; one that changes them on purpose records
them again and says why.
"""

from __future__ import annotations

import hashlib

from probsynth import cli

GOLDEN = {
    "corpus.jsonl": "0de73d40ea69c8c367230290f9d6076c9cc7c543f1f4d60285670f1e2d64294e",
    "family.jsonl": "c951fa016864d8f00539881d4e6cd67a7b85e89712c53de1bbebf22101a70b8e",
    "probs.csv": "4bbc57192e46b94c2d865aa0555b9d61f3b971941a46bc805354ac8dd47d82c3",
    "thresholds-subsets.csv": "92412e7a637b4743a62f69745e837261e6d2e6f814352238186b3655c7965623",
    "ranges-subsets.csv": "edd9c60669e20aab44bac5cca5ee828c5dd932f7f3bd5464b8f1ce2a7f66e3a0",
    "pu-subsets.csv": "1614f8262a76014dcf1adf255a0f3cecd8b3d240e4e56916cabce33fc5fed230",
    "thresholds-global.csv": "5c24fbba0c72d0e0ed5c8c3395a3aec7259945964e0e2d8d8c8c7dea62845754",
    "ranges-global.csv": "dea01095026f6f2fe950ba515d400d6069272acc1dfeb347a28e0378400c3a91",
    "pu-global.csv": "e8b0973c61488304e208495c8404ffd706b300d02b79155ba33dd789c5411739",
    "measurements.csv": "969beb4723ede5add3f4c97ffd3b500492df5c200d6a444d139b9d34b41780bd",
    "validation.csv": "92e9054f4a4c54c4b1330558bcc75df369aabea86a69b1e98a666cc60d75d51d",
}


def _pipeline(tmp_path) -> dict[str, str]:
    """Run gen, cluster, probs, thresholds (subsets and global), measure and
    validate; return each output's SHA-256."""
    out = {name: str(tmp_path / name) for name in GOLDEN}
    corpus, family = out["corpus.jsonl"], out["family.jsonl"]
    commands = [
        ["gen", "--units", "2000", "--alphabet", "120", "--exponent", "1.0", "--sizes", "1..30",
         "--seed", "11", "--clusters", "24", "-o", corpus],
        ["cluster", "-i", corpus, "--cap", "10", "-o", family],
        ["probs", "-i", corpus, "--family", family, "-o", out["probs.csv"]],
        *(
            ["thresholds", "-i", corpus, "--family", family, "--scope", scope, "--max-size", "30",
             "--ranges", out[f"ranges-{scope}.csv"], "--pu-probs", out[f"pu-{scope}.csv"],
             "-o", out[f"thresholds-{scope}.csv"]]
            for scope in ("subsets", "global")
        ),
        ["measure", "-i", corpus, "--family", family, "--scope", "both", "--sizes", "1..4",
         "--cap", "10", "-o", out["measurements.csv"]],
        ["validate", "-i", corpus, "--fractions", "0.001,0.01,0.05,0.25", "--max-size", "30",
         "--seed", "3", "-o", out["validation.csv"]],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}


def test_pipeline_artifacts_match_recorded_bytes(tmp_path):
    assert _pipeline(tmp_path) == GOLDEN


# The README synth demo. Both reports are the same bytes: the best-first
# search reports push3 after 15 pops, with rounds 1, before the thresholds
# put any item past round 0. Recorded again when best-first search replaced
# the depth-first one, which reported push0 push0 push3, and when the
# widening schedule gave way to two rounds and the report dropped
# threshold_schedule_used.
GOLDEN_SYNTH = {
    "report.json": "899c5be2e6c55c868a21b2ea4a68c7668d0fef7cffaa56296d6b956576d46790",
    "report-no-prune.json": "899c5be2e6c55c868a21b2ea4a68c7668d0fef7cffaa56296d6b956576d46790",
}


def test_synth_demo_reports_match_recorded_bytes(tmp_path):
    dsl, spec = tmp_path / "dsl.jsonl", tmp_path / "spec.json"
    assert cli.main(["gen", "--units", "1000", "--sizes", "1..6", "--seed", "29", "--dsl-programs",
                     "-o", str(dsl)]) == 0
    spec.write_text('{"cases": [{"inputs": [], "output": 3}]}\n')
    for name, extra in (("report.json", []), ("report-no-prune.json", ["--no-prune"])):
        argv = ["synth", "--spec", str(spec), "-i", str(dsl), "--cap", "10", "--max-size", "3",
                "-o", str(tmp_path / name), *extra]
        assert cli.main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SYNTH}
    assert digests == GOLDEN_SYNTH
