"""Every check can fail: the single-sign mutants each suite kills, and the
numbers a refactor of the reduction must not move.

The kill table is read in the kbsm picture of the rule, on the default grid
of ``skeincalc verify`` (p <= 3, n <= 10), at the CLI's grid points and in
its task order.  An entry is (points that kill the mutant, points in all,
the first killing (p, n)).  The telescope is Lemma R at index n+p-1, so it
kills ``s_pm1_sign`` and ``s_p_sign`` only at (1, 0); rt-recursion kills the
three head slots only where the reduction reaches the bracket.  The
recurrence-poly row is the qtorus suite's recurrence_poly_annihilates check,
recurrence_poly(p) applied to the rt sequence under each rule.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeincalc import cli
from skeincalc.qtorus import qt_apply, recurrence_poly, rt_recursion_residual
from skeincalc.torusknot import (Convention, JonesSequence, ReductionRule,
                                 handle_slide_residual, induction_residual,
                                 telescope_residual)

ROOT = Path(__file__).resolve().parents[1]
KBSM = Convention.KBSM
BASE = ReductionRule.for_convention(KBSM)
SLOTS = tuple(f.name for f in dataclasses.fields(ReductionRule))

# suite -> (its grid points, in CLI task order, and its residual under a rule)
SUITES = {
    "telescope": ([(p, n) for name, p, n in cli._tasks("telescope", 3, 10)
                   if name == "a_n_telescope"],
                  lambda p, n, r: telescope_residual(p, n, KBSM, r)),
    "induction": ([(p, n) for name, p, n in cli._tasks("telescope", 3, 10)
                   if name == "induction_identity"],
                  lambda p, n, r: induction_residual(p, n, KBSM, r)),
    "handle-slide": ([(p, n) for _, p, n in cli._tasks("handle-slide", 3, 10)],
                     handle_slide_residual),
    "rt-recursion": ([(p, n) for _, p, n in cli._tasks("rt-recursion", 3, 10)],
                     rt_recursion_residual),
    "recurrence-poly": ([(p, n) for name, p, n in cli._tasks("qtorus", 3, 10)
                         if name == "recurrence_poly_annihilates"],
                        lambda p, n, r: qt_apply(recurrence_poly(p),
                                                 JonesSequence(p, Convention.RT, r), n)),
}

KILL_TABLE = {
    "telescope": {"lead_sign": (26, 27, (1, 1)), "s_pm1_sign": (1, 27, (1, 0)),
                  "s_p_sign": (1, 27, (1, 0)), "tail_sign": (23, 27, (1, 2))},
    "induction": {"lead_sign": (24, 27, (1, 2)), "s_pm1_sign": (26, 27, (1, 1)),
                  "s_p_sign": (26, 27, (1, 1)), "tail_sign": (23, 27, (1, 3))},
    "handle-slide": {slot: (24, 24, (1, 1)) for slot in SLOTS},
    "rt-recursion": {"lead_sign": (12, 36, (1, -2)), "s_pm1_sign": (12, 36, (1, -2)),
                     "s_p_sign": (12, 36, (1, -2)), "tail_sign": (34, 36, (1, -3))},
    "recurrence-poly": {"lead_sign": (6, 36, (1, -3)), "s_pm1_sign": (6, 36, (1, -3)),
                        "s_p_sign": (6, 36, (1, -3)), "tail_sign": (35, 36, (1, -2))},
}

# the line `perfbench/mutants.py --seed 3` prints, and the sha256 of the
# default `verify --json -` report with elapsed_ms stripped, keys sorted and
# compact separators
MUTANTS_LINE = ('{"verdicts": 1268, "decided": 1268, "wrong": 0, "residuals": 6240, '
                '"nonzero": 2987, "errors": 0, "json_bytes": 758904}')
REPORT_SHA256 = "9d11e8a55b2f80c3500fb787d0bcfd269f43099659a7776ce477a6cbab535969"


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("suite", SUITES)
def test_kill_table(suite):
    points, residual = SUITES[suite]
    assert all(residual(p, n, BASE).is_zero() for p, n in points)
    got = {}
    for slot, mutant in zip(SLOTS, BASE.single_sign_mutations()):
        kills = [(p, n) for p, n in points if not residual(p, n, mutant).is_zero()]
        got[slot] = (len(kills), len(points), kills[0] if kills else None)
    assert got == KILL_TABLE[suite]


def test_mutants_line_is_pinned():
    assert _run("perfbench/mutants.py", "--seed", "3").strip() == MUTANTS_LINE


def test_default_report_is_pinned():
    out = _run("-m", "skeincalc", "verify", "--json", "-")
    lines = out.splitlines()
    start = lines.index("[")  # the summary lines come first, then the report

    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k != "elapsed_ms"}
        if isinstance(o, list):
            return [strip(v) for v in o]
        return o

    report = strip(json.loads("\n".join(lines[start:])))
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256
