"""The benchmark harness at tiny scale, so it cannot rot between full runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tiny_self_check():
    # Every workload, untraced and traced, with every output check; about
    # 35 s. The harness appends its results to .bench_work/results.jsonl.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"correct": True}, proc.stdout[-2000:]
