"""The benchmark harness at tiny scale, so it cannot rot between full runs."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tiny_self_check(tmp_path):
    # Every workload, untraced and traced, with every output check; about
    # 35 s. The harness works in, and appends its results under, the root
    # of the tree it runs from, so it runs from a copy of bench/ and src/.
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--tiny"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"correct": True}, proc.stdout[-2000:]
