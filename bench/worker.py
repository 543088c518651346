"""Run one phase of one workload in this interpreter; print its result as one JSON line.

``run.py`` starts this file with ``PYTHONHASHSEED`` fixed and
``PYTHONPATH`` pointing at the checkout's ``src``; the job comes as one
JSON argument with ``workload``, ``seed``, ``seconds``, ``trace``,
``tiny``, ``record``, ``phase`` and ``work``, the directory that holds
the workload's inputs and outputs.

- ``setup`` sets the inputs up several times and reports each set-up
  time; the inputs stay in ``work``. It runs before the timed passes and
  again after them, so that its times sample the host's speed over the
  whole run, and ``run.py`` reports their median.
- ``passes`` repeats the workload's pass of CLI calls while another pass
  still fits in ``seconds``. It runs in an interpreter of its own, so its
  peak resident memory is that of the timed calls alone.
- ``traced`` sets up once, then alternates untraced passes with passes
  traced by wrappers around every layer (the spans of the set-up and the
  first traced pass give the per-layer metrics), and makes the few extra
  calls some metrics need.

``setup`` and ``passes`` time on a ``hostclock.HostClock``: at the host's
nominal speed, from probes of it taken during and around every timed
call. The times as measured are reported beside them. ``traced`` probes
only in the passes after the one its spans come from, which give
``trace.overhead_pct``.

Outputs are checked after the timing: against the independent oracles,
and the inputs and stable outputs also against the digests recorded for
this seed, if any.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostclock
import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP_TIME_LIMIT = 120.0
SETUP_SECONDS = 1.5  # a setup phase repeats set-ups until they add up to this, at least twice
TRACED_PAIRS = 2  # untraced and traced passes, after the traced pass that gives the spans


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(op) -> tuple[float, float, str | None]:
    """Time one CLI call: its start and end readings of ``time.perf_counter``,
    and an error that is None when it exited 0 in time."""
    start = time.perf_counter()
    try:
        rc = workloads.cli(op.argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return start, time.perf_counter(), f"{op.name}: raised {exc!r}"
    end = time.perf_counter()
    if rc != 0:
        return start, end, f"{op.name}: exit code {rc}"
    if end - start > OP_TIME_LIMIT:
        return start, end, f"{op.name}: {end - start:.1f} s, over the {OP_TIME_LIMIT:.0f} s limit"
    return start, end, None


def run_pass(ops, tracer=None) -> list[dict]:
    """One call of each op. ``seconds`` is the wall time as measured;
    ``on_clock`` turns it into the time at nominal speed."""
    results = []
    for op in ops:
        if tracer is None:
            start, end, error = run_op(op)
        else:
            with tracer.span("bench.op"):
                start, end, error = run_op(op)
        digests = {p.name: sha256(p) for p in op.outputs} if op.stable and not error else {}
        results.append({"op": op.name, "start": start, "end": end, "seconds": end - start,
                        "error": error, "digests": digests})
    return results


def on_clock(passes: list[list[dict]], clock: hostclock.HostClock) -> list[list[dict]]:
    """The passes with each call's time at the host's nominal speed."""
    return [[{**r, "seconds": clock.nominal(r["start"], r["end"])} for r in p] for p in passes]


def pass_seconds(passes: list[list[dict]]) -> float:
    """A pass time from each call's median over the passes: a slow spell of
    the host that hits one call in one pass does not move it."""
    return sum(statistics.median(p[i]["seconds"] for p in passes) for i in range(len(passes[0])))


def timed_setup(workload, seed: int, work: Path) -> tuple[float, float]:
    start = time.perf_counter()
    workload.setup(seed, work)
    return start, time.perf_counter()


class Outcome:
    """Attempted and failed operations, the first failure messages, and
    what a phase reports besides its metrics."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.printed: dict = {}
        self.samples: dict = {}
        self.digests: dict = {}

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages += messages[: max(0, 10 - len(self.messages))]

    def drifted(self, digests: dict) -> list[str]:
        return [f"{name}: digest differs from the recorded one"
                for name, digest in digests.items() if self.reference.get(name) not in (None, digest)]


def check_inputs(workload, work: Path, setups: int, outcome: Outcome) -> None:
    """Count every set-up; all fail when an input differs from its recorded digest."""
    inputs = outcome.drifted({p.name: sha256(p) for p in workload.inputs(work)})
    outcome.add(setups, setups if inputs else 0, inputs)


def check_passes(ops, passes: list[list[dict]], outcome: Outcome) -> None:
    """Count every op instance. An instance fails on an error or on stable
    bytes that differ from the first pass; every instance of an op fails
    when its output check fails or its stable bytes differ from the digest
    recorded for this seed."""
    for i, op in enumerate(ops):
        runs = [p[i] for p in passes]
        bad = [r for r in runs if r["error"] or r["digests"] != runs[0]["digests"]]
        errors = [r["error"] or f"{op.name}: output bytes differ between passes" for r in bad]
        whole = [] if runs[0]["error"] else outcome.drifted(runs[0]["digests"]) + op.check()
        outcome.add(len(runs), len(runs) if whole else len(bad), errors + whole)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_percentiles(passes) -> dict:
    """Median time of one CLI call (a spec's time to a verdict on the synth
    workloads), and the highest percentile with ten calls beyond it. Printed
    but not gated: on calls of tens of milliseconds the median moved by half
    from run to run on a shared host."""
    calls = sorted(r["seconds"] for p in passes for r in p)
    out = {"call_p50_s": {"value": statistics.median(calls), "unit": "s", "n": len(calls)}}
    if len(calls) >= 20:
        q = int(100 * (len(calls) - 10) / len(calls))
        out[f"call_p{q}_s"] = {"value": tracing.percentile(calls, q), "unit": "s", "n": len(calls)}
    return out


def run_setups(workload, job, work: Path, outcome: Outcome) -> dict:
    workload.prepare()
    budget = min(SETUP_SECONDS, job["seconds"])
    with hostclock.HostClock() as clock:
        readings = [timed_setup(workload, job["seed"], work)]
        while not job["record"] and (len(readings) < 2 or sum(b - a for a, b in readings) < budget) \
                and len(readings) < 100:
            readings.append(timed_setup(workload, job["seed"], work))
    check_inputs(workload, work, len(readings), outcome)
    if job["record"]:
        outcome.digests = {p.name: sha256(p) for p in workload.inputs(work)}
    outcome.samples = {
        "setup_s": [clock.nominal(a, b) for a, b in readings],
        "setup_raw_s": [b - a for a, b in readings],
        "probe_s": clock.durations,
    }
    return {}


def run_passes(workload, job, work: Path, outcome: Outcome) -> dict:
    ops = workload.ops(work)
    passes: list[list[dict]] = []
    pass_times: list[float] = []
    with hostclock.HostClock() as clock:
        while True:
            start = time.perf_counter()
            passes.append(run_pass(ops))
            pass_times.append(time.perf_counter() - start)
            failing = any(r["error"] for r in passes[-1])
            if job["record"] or failing or sum(pass_times) + statistics.median(pass_times) > job["seconds"]:
                break
    rss = peak_rss_mb()
    nominal = on_clock(passes, clock)
    metrics = {
        "wall_s": {"value": pass_seconds(nominal), "unit": "s", "n": len(passes)},
        "peak_rss_mb": {"value": rss, "unit": "MB", "n": 1},
    }
    outcome.printed = {
        **call_percentiles(nominal),
        "wall_raw_s": {"value": pass_seconds(passes), "unit": "s", "n": len(passes)},
        "probe_ms": {"value": 1000 * statistics.median(clock.durations), "unit": "ms", "n": len(clock.durations)},
    }
    check_passes(ops, passes, outcome)
    if job["record"]:
        outcome.digests = {name: d for r in passes[0] for name, d in r["digests"].items()}
    return metrics


def evaluate_rate(dsl_path: Path) -> float:
    """DSL ``evaluate`` steps per second over every corpus program on every probe."""
    programs = list(oracle.read_corpus(dsl_path).values())
    steps_per_sweep = sum(len(p) for p in programs) * len(workloads.PROBES)
    sweeps = 0
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:
        for program in programs:
            for probe in workloads.PROBES:
                workloads.evaluate(program, probe)
        sweeps += 1
    return steps_per_sweep * sweeps / (time.perf_counter() - start)


def run_traced(workload, job, work: Path, outcome: Outcome) -> dict:
    workload.prepare()
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        workload.setup(job["seed"], work)
    tracer.uninstall()
    check_inputs(workload, work, 1, outcome)

    # The first traced pass gives the spans, with no probe inside them.
    # Then untraced and traced passes alternate on the host clock, so that
    # a slow spell of the host weighs on both sides of trace.overhead_pct.
    ops = workload.ops(work)

    def traced_pass() -> list[dict]:
        tracer.install()
        with tracer.span("bench.pass"):
            result = run_pass(ops, tracer)
        tracer.uninstall()
        return result

    untraced, traced = [], [traced_pass()]
    spans, tracer.spans = tracer.spans, []
    with hostclock.HostClock() as clock:
        for _ in range(TRACED_PAIRS):
            untraced.append(run_pass(ops))
            traced.append(traced_pass())
            tracer.spans = []
    check_passes(ops, untraced + traced, outcome)
    overhead = pass_seconds(on_clock(traced[1:], clock)) / pass_seconds(on_clock(untraced, clock)) - 1

    # An extra value of None marks a metric whose layer this workload leaves idle.
    extra = {
        "trace.overhead_pct": 100.0 * overhead,
        "cli.output_bytes": sum(p.stat().st_size for op in ops for p in op.outputs),
        "cli.threads_speedup": None,
        "synth.restart_ratio": None,
        "synth.evaluate_steps_per_s": None,
    }

    # cli.threads_speedup: the measure call at the default thread count,
    # then at --threads <nproc>; their bytes must be identical.
    for i, op in enumerate(ops):
        if op.name == "measure":
            threaded_op = workloads.Op(op.name, op.argv + ["--threads", str(os.cpu_count())], op.outputs)
            [threaded] = run_pass([threaded_op])
            same = threaded["error"] is None and threaded["digests"] == untraced[0][i]["digests"]
            outcome.add(1, 0 if same else 1, [] if same else [f"measure --threads {os.cpu_count()}: output differs or failed"])
            extra["cli.threads_speedup"] = statistics.median(p[i]["seconds"] for p in untraced) / threaded["seconds"]

    # synth.restart_ratio: nodes the pruned search expanded over nodes of
    # one unpruned sweep of the same specs.
    if workload.name == "synth-exhaust":
        searched = sum(note[0] for note in tracing.Reduced(spans).notes(("synth.synthesize",)))
        unpruned = run_pass(workload.ops(work, extra=("--no-prune",)))
        errors = [r["error"] for r in unpruned if r["error"]]
        outcome.add(len(unpruned), len(errors), errors)
        if not errors:
            swept = sum(json.loads(op.outputs[0].read_text())["nodes_expanded"] for op in ops)
            extra["synth.restart_ratio"] = searched / swept

    if (work / "dsl.jsonl").exists():
        extra["synth.evaluate_steps_per_s"] = evaluate_rate(work / "dsl.jsonl")

    traces = ROOT / ".bench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(spans, traces / f"{job['workload']}.spans.jsonl")
    return tracing.per_layer_metrics(spans, extra)


PHASES = {"setup": run_setups, "passes": run_passes, "traced": run_traced}


def main() -> int:
    job = json.loads(sys.argv[1])
    if not Path(workloads.probsynth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: probsynth imported from {workloads.probsynth.__file__}, not this checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[job["workload"]](job["tiny"])
    digests = json.loads((BENCH / "digests.json").read_text())
    reference = None if job["tiny"] or job["record"] else digests.get(job["workload"], {}).get(str(job["seed"]))
    outcome = Outcome(reference)
    metrics = PHASES[job["phase"]](workload, job, Path(job["work"]), outcome)
    print(json.dumps({
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.messages,
        "metrics": metrics,
        "printed": outcome.printed,
        "samples": outcome.samples,
        "digests": outcome.digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
