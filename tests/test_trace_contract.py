"""The layer trace of perfbench/ still sees every engine layer.

perfbench/tracer.py patches the engine's functions by name. A traced run
fails if any named span is never entered or if too much time falls outside
every span, so an engine change that stops calling a traced name fails here
instead of only in a manual benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_benchmark_pass_succeeds():
    cmd = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "run.py"),
        "--workload",
        "paper-4methods",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = proc.stdout[-4000:]
    assert result["failed"] == 0, report
    assert result["correct"] is True, report
    # the partitioner draws each plan once: a redraw loop would raise this count
    assert result["metrics"]["datahub.partition.attempts"]["value"] == 1.0, report
