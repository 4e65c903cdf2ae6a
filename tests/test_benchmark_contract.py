"""The names perfbench binds to still exist: its traced CLI run works end to end.

perfbench/tracer.py wraps the package's functions by module, class and name,
and reads the lru_cache memos by name.  A rename that breaks those bindings
fails here instead of in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_cli_run_binds_every_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "cli", "verify",
         "--p-max", "1", "--n-max", "2", "--json", "-"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["exit"] == 0
    trace = out["trace"]
    for layer in ("handlebody", "torusknot", "qtorus"):
        calls = sum(rec[0] for name, rec in trace["spans"].items()
                    if name.startswith(layer + "."))
        assert calls > 0, layer
    assert len(trace["memos"]) == 4


def test_traced_sums_read_the_reduce_memo():
    # the census reads torusknot's reduction memo by name; a qtorus run
    # reduces through JonesSequence sums only, so they must go through it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "cli", "verify",
         "--suite", "qtorus", "--p-max", "2", "--n-max", "3", "--json", "-"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["exit"] == 0
    assert out["trace"]["memos"]["torusknot"]["misses"] > 0
