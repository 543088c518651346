"""probsynth benchmark: four workloads through the public CLI, outputs checked.

Run from the root of a checkout (the program is imported from its ``src``):

    python3 bench/run.py --workload count-deep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --all                  # every workload, then a traced run of each
    python3 bench/run.py --tiny                 # self-check: every workload and check, in seconds
    python3 bench/run.py --record-digests 0..9  # record output digests for these seeds (all
                                                # workloads, or the one --workload names)

Each workload runs in fresh interpreters (``worker.py``) with
``PYTHONHASHSEED`` fixed. With ``--trace 0`` one times the CLI calls and
two others, one before and one after it, time the set-up of the inputs;
the result carries the end-to-end metrics. ``wall_s`` and ``setup_s`` are
times at the host's nominal speed: the host's speed drifts by up to 2x,
so each phase probes it on a timer during its timed calls and scales
their times by the probes near them (``hostclock.py``); ``wall_raw_s``
and ``setup_raw_s`` give the times as measured. With ``--trace 1`` one
interpreter gives the per-layer metrics, from spans recorded around every
call into a layer. The last line of standard output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit and sample
count, and the run environment. Every result is also appended, with that
environment, to ``.bench_work/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("count-deep", "synth-solve", "synth-exhaust", "pipeline")
RUN_TIMEOUT = 175.0  # a run must end within 180 s


def environment(job: dict) -> dict:
    src = ROOT / "src" / "probsynth"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        **job,
    }


def run_worker(job: dict, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=max(1.0, timeout), text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{job['workload']} {job['phase']}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_job(job: dict) -> dict:
    """Run one workload's phases, each in a fresh interpreter, in a work
    directory that is removed afterwards, and merge their results."""
    work = ROOT / ".bench_work" / f"{job['workload']}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_TIMEOUT
    result = {"attempted": 0, "failed": 0, "failures": [], "metrics": {}, "printed": {}, "digests": {}}
    samples: dict[str, list[float]] = {"setup_s": [], "setup_raw_s": [], "probe_s": []}
    try:
        for phase in ("traced",) if job["trace"] else ("setup", "passes", "setup"):
            part = run_worker({**job, "phase": phase, "work": str(work)}, deadline - time.monotonic())
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            result["failures"] += part["failures"]
            for key in ("metrics", "printed", "digests"):
                result[key].update(part[key])
            for key in samples:
                samples[key] += part["samples"].get(key, [])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if samples["setup_s"]:
        n = len(samples["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(samples["setup_s"]), "unit": "s", "n": n}
        result["printed"]["setup_raw_s"] = {"value": statistics.median(samples["setup_raw_s"]), "unit": "s", "n": n}
        result["printed"]["setup_probe_ms"] = {"value": 1000 * statistics.median(samples["probe_s"]), "unit": "ms",
                                               "n": len(samples["probe_s"])}
    result["correct"] = result["failed"] == 0
    return result


def report(job: dict, env: dict, result: dict) -> None:
    """Print the result by metric, with unit, sample count and source."""
    print(f"env: {json.dumps(env)}")
    for name, m in sorted({**result["metrics"], **result["printed"]}.items()):
        extra = f"  n={m['n']}" if "n" in m else ""
        extra += "  (absent: layer idle on this workload; reads 0)" if m.get("idle") else ""
        print(f"{job['workload']:14s} {name:30s} {m['value']:>16.6g} {m['unit']}{extra}")
    pct = 100.0 * result["failed"] / result["attempted"]
    print(f"{job['workload']:14s} {'failed_pct':30s} {pct:>16.6g} %  n={result['attempted']}")
    for message in result["failures"]:
        print(f"{job['workload']:14s} FAILED: {message}")
    log = ROOT / ".bench_work" / "results.jsonl"
    log.parent.mkdir(exist_ok=True)
    with open(log, "a", encoding="utf-8") as f:
        f.write(json.dumps({"env": env, "result": result}) + "\n")


def run_one(workload: str, seed: int, seconds: int, trace: int, tiny: bool = False) -> dict:
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny, "record": False}
    env = environment(job)
    result = run_job(job)
    report(job, env, result)
    return result


def contract_line(result: dict) -> str:
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def record_digests(seeds: range, workloads: tuple[str, ...]) -> None:
    table = json.loads((BENCH / "digests.json").read_text())
    for workload in workloads:
        table[workload] = {}
        for seed in seeds:
            job = {"workload": workload, "seed": seed, "seconds": 0, "trace": 0, "tiny": False, "record": True}
            result = run_job(job)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: {result['failures']}")
            table[workload][str(seed)] = result["digests"]
            print(f"recorded {workload} seed {seed}: {len(result['digests'])} artifacts", flush=True)
    (BENCH / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced, then traced")
    parser.add_argument("--tiny", action="store_true", help="self-check every workload at tiny scale")
    parser.add_argument("--record-digests", metavar="A..B", help="record output digests for seeds A..B")
    args = parser.parse_args()

    if not (ROOT / "src" / "probsynth" / "__init__.py").is_file():
        print(f"error: no probsynth sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            lo, hi = (int(x) for x in args.record_digests.split(".."))
            record_digests(range(lo, hi + 1), (args.workload,) if args.workload else WORKLOADS)
            return 0
        if args.workload:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
            print(contract_line(result))
            return 0
        if not (args.all or args.tiny):
            parser.error("give --workload, --all, --tiny or --record-digests")
        seconds = 1 if args.tiny else args.seconds
        correct = True
        for trace in (0, 1):
            for workload in WORKLOADS:
                try:
                    correct &= run_one(workload, args.seed, seconds, trace, args.tiny)["correct"]
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(f"{workload:14s} FAILED: {exc}")
                    correct = False
        print(json.dumps({"correct": correct}))
        return 0 if correct or not args.tiny else 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
