"""The traced benchmark run against the package it traces.

``bench/tracing.py`` rebinds functions of several ``setorbits`` modules by
name; a name the package no longer has fails the traced run with
AttributeError.  One traced cold ``classify(2)`` takes about 0.4 s.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_classify_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "classify", "2", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out["rows"]) == 9
    counts = out["counts"]
    assert counts["prune.calls"] > 0
    # the s-memo calls pipeline's own count_set_orbits binding, which the
    # tracer wraps, once per miss
    calls = counts.get("pipeline.count_calls", 0)
    assert 0 < calls <= counts["pipeline.candidates"]
