"""Command-line verification harness and expression explorer.

Two subcommands:

  verify   run one verification suite (or all of them) over a parameter grid,
           print a per-check report, exit 0 exactly when every check passed
  expand   print a named family member or a reduced basis expression as JSON

Grid points are independent, so --jobs N runs them in a process pool; results
are merged in task order, so output is deterministic regardless of job count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import families, qtorus, torusknot
from .handlebody import CHEBYSHEV, MONOMIAL, HbElement

SUITES = ("families", "handle-slide", "telescope", "rt-recursion", "qtorus",
          "t1-factor")


# Check name -> its library residual at the grid point (p, n); a check passes
# exactly when the residual is zero.  Names are looked up at call time, so a
# tracer that rebinds the library's functions (perfbench) sees these calls.
_CHECKS = {
    "x1_T_closed_vs_recursion": lambda p, n: families.x1_T_residual(n),
    "y1_T_closed_vs_recursion": lambda p, n: families.y1_T_residual(n),
    "sigma_closed_vs_defining": lambda p, n: families.sigma_residual(n),
    "big_x_closed_vs_recursion": lambda p, n: families.big_x_residual(n),
    "handle_slide": lambda p, n: torusknot.handle_slide_residual(p, n),
    "a_n_telescope": lambda p, n: torusknot.telescope_residual(p, n),
    "induction_identity": lambda p, n: torusknot.induction_residual(p, n),
    "rt_recursion": lambda p, n: torusknot.rt_recursion_residual(p, n),
    "mixed_operator_annihilates": lambda p, n: qtorus.mixed_operator_residual(p, n),
    "recurrence_poly_annihilates": lambda p, n: qtorus.recurrence_poly_residual(p, n),
    "product_identity": lambda p, n: qtorus.product_identity_residual(p),
    "homogenization": lambda p, n: qtorus.homogenization_residual(p),
    "t1_factorization": lambda p, n: qtorus.t1_factor_residual(p),
}


def _run_check(task):
    name, p, n = task
    resid = _CHECKS[name](p, n)
    ok = resid.is_zero()
    return {"check": name, "p": p, "n": n, "pass": ok,
            "residual": None if ok else resid.to_json()}


def _families_tasks(p_max, n_max):
    tasks = []
    for n in range(1, n_max + 1):
        tasks.append(("x1_T_closed_vs_recursion", None, n))
        tasks.append(("y1_T_closed_vs_recursion", None, n))
        tasks.append(("sigma_closed_vs_defining", None, n))
    for i in range(0, n_max + 1):
        tasks.append(("big_x_closed_vs_recursion", None, i))
    return tasks


def _handle_slide_tasks(p_max, n_max):
    return [("handle_slide", p, n)
            for p in range(1, p_max + 1)
            for n in range(1, min(2 * p + 4, n_max) + 1)]


def _telescope_tasks(p_max, n_max):
    tasks = []
    for p in range(1, p_max + 1):
        for n in range(0, min(2 * p + 4, n_max) + 1):
            tasks.append(("a_n_telescope", p, n))
            tasks.append(("induction_identity", p, n))
    return tasks


def _rt_recursion_tasks(p_max, n_max):
    return [("rt_recursion", p, n)
            for p in range(1, p_max + 1)
            for n in range(-(p + 2), min(2 * p + 3, n_max) + 1)]


def _qtorus_tasks(p_max, n_max):
    tasks = []
    for p in range(1, p_max + 1):
        for n in range(-(p + 2), min(2 * p + 3, n_max) + 1):
            tasks.append(("mixed_operator_annihilates", p, n))
            tasks.append(("recurrence_poly_annihilates", p, n))
        tasks.append(("product_identity", p, None))
        tasks.append(("homogenization", p, None))
    return tasks


def _t1_tasks(p_max, n_max):
    return [("t1_factorization", p, None) for p in range(1, p_max + 1)]


_SUITE_BUILDERS = {
    "families": _families_tasks,
    "handle-slide": _handle_slide_tasks,
    "telescope": _telescope_tasks,
    "rt-recursion": _rt_recursion_tasks,
    "qtorus": _qtorus_tasks,
    "t1-factor": _t1_tasks,
}


def run_suite(suite: str, p_max: int, n_max: int, jobs: int = 1) -> dict:
    """One suite's JSON report: its grid, a row per check, and the elapsed time."""
    tasks = _SUITE_BUILDERS[suite](p_max, n_max)
    start = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            checks = list(pool.map(_run_check, tasks))
    else:
        checks = [_run_check(task) for task in tasks]
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {"suite": suite, "grid": {"p_max": p_max, "n_max": n_max},
            "checks": checks, "elapsed_ms": round(elapsed_ms, 3)}


def cmd_verify(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    reports = []
    failed = 0
    for suite in suites:
        report = run_suite(suite, args.p_max, args.n_max, args.jobs)
        reports.append(report)
        npass = sum(1 for c in report["checks"] if c["pass"])
        total = len(report["checks"])
        status = "ok" if npass == total else "FAIL"
        print(f"{status:4} {suite:12} {npass}/{total} checks passed "
              f"({report['elapsed_ms']:.0f} ms)")
        for check in report["checks"]:
            if not check["pass"]:
                failed += 1
                loc = " ".join(f"{k}={check[k]}" for k in ("p", "n")
                               if check[k] is not None)
                print(f"     FAIL {check['check']} {loc}")
                print(f"          residual: {json.dumps(check['residual'])}")
    if args.json:
        text = json.dumps(reports[0] if len(reports) == 1 else reports, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    return 0 if failed == 0 else 1


# Family token -> the element it names at index n; reduce also reads --p and
# --convention from the parsed arguments.
_FAMILIES = {
    "x1y": lambda n, args: families.x1y1_recursive(n).xpart,
    "y1y": lambda n, args: families.x1y1_recursive(n).ypart,
    "x1t": lambda n, args: families.x1_T_closed(n),
    "y1t": lambda n, args: families.y1_T_closed(n),
    "sigma": lambda n, args: families.sigma(n),
    "bigx": lambda n, args: families.big_x(n),
    "reduce": lambda n, args: torusknot.reduce_sy(
        n, args.p, torusknot.Convention(args.convention)),
}
_FAMILY_ALIASES = {"X": "x1y", "Y": "y1y"}


def cmd_expand(args) -> int:
    build = _FAMILIES.get(_FAMILY_ALIASES.get(args.family, args.family))
    if build is None:
        print(f"unknown family {args.family!r}; choose from {' '.join(_FAMILIES)}",
              file=sys.stderr)
        return 2
    try:
        elem = build(args.index, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(elem, HbElement):
        elem = elem.to_basis(args.basis)
    if args.pretty:
        print(str(elem))
    else:
        print(json.dumps(elem.to_json(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeincalc",
        description="Exact verifier for torus-knot skein-module identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    verify.add_argument("--p-max", type=int, default=3, dest="p_max")
    verify.add_argument("--n-max", type=int, default=10, dest="n_max")
    verify.add_argument("--json", metavar="PATH",
                        help="write the JSON report here ('-' for stdout)")
    verify.add_argument("--jobs", type=int, default=1,
                        help="run grid points in N worker processes")
    verify.set_defaults(func=cmd_verify)

    expand = sub.add_parser("expand", help="print one family member as JSON")
    expand.add_argument("family",
                        help="x1y, y1y, x1t, y1t, sigma, bigx, or reduce "
                             "(X and Y are aliases for x1y and y1y)")
    expand.add_argument("--index", "-i", type=int, required=True,
                        help="family index n (for reduce: the y-index N)")
    expand.add_argument("--basis", default=CHEBYSHEV,
                        choices=(MONOMIAL, CHEBYSHEV),
                        help="output basis for handlebody elements")
    expand.add_argument("--p", type=int, default=1,
                        help="knot parameter (reduce only)")
    expand.add_argument("--convention", default="kbsm", choices=("kbsm", "rt"),
                        help="reduction convention (reduce only)")
    expand.add_argument("--pretty", action="store_true",
                        help="print a human-readable expression instead of JSON")
    expand.set_defaults(func=cmd_expand)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p_max", 1) < 1 or getattr(args, "n_max", 1) < 1:
        parser.error("--p-max and --n-max must be positive")
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be positive")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
