"""The mutant-kill workload: library calls over the reduction rules and their sign mutants.

Run as a fresh child process with the package on the path:

  python3 perfbench/mutants.py --seed N            run every task, print counts
  python3 perfbench/mutants.py --seed N --probe    stop when the first check could start
  python3 perfbench/mutants.py --seed N --plant    gate self-test (see below)

Rules: the two base ReductionRules (kbsm, rt) and their eight
single_sign_mutations(). kbsm rules run telescope_residual,
induction_residual and handle_slide_residual; rt rules run
rt_recursion_residual and qt_apply(inhomog_recurrence(p), JonesSequence(p,
RT, rule), n). telescope and induction are kbsm-only identities (the base rt
rule already fails them at p = 1), so they are never paired with rt rules.
Every nonzero residual is serialised with to_json(), as the verify report does.

Known answers, from the paper's identities and the mutant design:
  a base rule gives a zero residual at every grid point (one verdict per
  residual), and every mutant is killed, i.e. gives at least one nonzero
  residual, by every suite it is paired with (one verdict per rule and suite).
A residual that raises is undecided; a (mutant, suite) pair is undecided if
none of its residuals is nonzero and one of them raised.

The seed shuffles the task order, which changes where memo hits fall.

--plant feeds a mutant rule into the pass-expected base-kbsm tasks at p = 1,
so a working gate must report wrong verdicts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time

P_MAX = 12
SIGN_SLOTS = ("lead_sign", "s_pm1_sign", "s_p_sign", "tail_sign")
KBSM_SUITES = ("telescope", "induction", "handle-slide")
RT_SUITES = ("rt-recursion", "qtorus")


def n_range(suite: str, p: int) -> range:
    if suite in ("telescope", "induction"):
        return range(0, 2 * p + 5)
    if suite == "handle-slide":
        return range(1, 2 * p + 5)
    return range(-(p + 2), 2 * p + 4)


def rules() -> dict:
    """label -> (rule, suites, expect_pass) for the 2 base rules and 8 mutants."""
    import skeincalc as sk
    out = {}
    for conv, suites in ((sk.Convention.KBSM, KBSM_SUITES),
                         (sk.Convention.RT, RT_SUITES)):
        base = sk.ReductionRule.for_convention(conv)
        out[conv.value] = (base, suites, True)
        for mutant in base.single_sign_mutations():
            flipped = [f.name for f in dataclasses.fields(base)
                       if getattr(mutant, f.name) != getattr(base, f.name)]
            if len(flipped) != 1 or flipped[0] not in SIGN_SLOTS:
                raise ValueError(f"not a single-sign mutant: {mutant}")
            out[f"{conv.value}-{flipped[0]}"] = (mutant, suites, False)
    return out


def residual_functions() -> dict:
    """suite -> f(p, n, rule). Names are looked up at call time, so a tracer
    installed on the package sees these calls."""
    import skeincalc as sk
    kbsm, rt = sk.Convention.KBSM, sk.Convention.RT
    return {
        "telescope": lambda p, n, r: sk.telescope_residual(p, n, kbsm, r),
        "induction": lambda p, n, r: sk.induction_residual(p, n, kbsm, r),
        "handle-slide": lambda p, n, r: sk.handle_slide_residual(p, n, r),
        "rt-recursion": lambda p, n, r: sk.rt_recursion_residual(p, n, r),
        "qtorus": lambda p, n, r: sk.qt_apply(sk.inhomog_recurrence(p),
                                              sk.JonesSequence(p, rt, r), n),
    }


def build_tasks(seed: int, plant: bool = False):
    """The shuffled task list and the rule table it refers to."""
    table = rules()
    if plant:
        mutant = table["kbsm-lead_sign"][0]
        table = {"kbsm": (mutant, KBSM_SUITES, True)}
    p_max = 1 if plant else P_MAX
    tasks = [(label, suite, p, n)
             for label, (_, suites, _) in table.items()
             for suite in suites
             for p in range(1, p_max + 1)
             for n in n_range(suite, p)]
    random.Random(seed).shuffle(tasks)
    return tasks, table


def run_tasks(tasks, table, call=None) -> dict:
    """Evaluate every task and score it against the known answers.

    ``call(fn, *args)`` runs one residual-level check; the tracer passes its
    span recorder here.
    """
    fns = residual_functions()
    call = call or (lambda fn, *args: fn(*args))
    residuals = nonzero = errors = json_bytes = 0
    verdicts = decided = wrong = 0
    groups: dict[tuple[str, str], list[int]] = {}  # (label, suite) -> [killed, raised]

    def check(fn, p, n, rule):
        nonlocal json_bytes
        resid = fn(p, n, rule)
        if resid.is_zero():
            return True
        json_bytes += len(json.dumps(resid.to_json()))
        return False

    for label, suite, p, n in tasks:
        rule, _, expect_pass = table[label]
        residuals += 1
        try:
            zero = call(check, fns[suite], p, n, rule)
        except Exception:  # noqa: BLE001 - any exception makes the check undecided
            errors += 1
            if expect_pass:
                verdicts += 1
            else:
                groups.setdefault((label, suite), [0, 0])[1] += 1
            continue
        nonzero += not zero
        if expect_pass:
            verdicts += 1
            decided += 1
            wrong += not zero
        else:
            groups.setdefault((label, suite), [0, 0])[0] += not zero
    for killed, raised in groups.values():
        verdicts += 1
        if killed or not raised:
            decided += 1
            wrong += not killed
    return {"verdicts": verdicts, "decided": decided, "wrong": wrong,
            "residuals": residuals, "nonzero": nonzero, "errors": errors,
            "json_bytes": json_bytes}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--plant", action="store_true")
    args = ap.parse_args()
    tasks, table = build_tasks(args.seed, args.plant)
    if args.probe:
        print(repr(time.monotonic()))
        return 0
    print(json.dumps(run_tasks(tasks, table)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
