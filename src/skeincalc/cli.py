"""Command-line verification harness and expression explorer.

Two subcommands:

  verify   run one verification suite (or all of them) over a parameter grid,
           print a per-check report, exit 0 exactly when every check passed
  expand   print a named family member or a reduced basis expression as JSON

Checks run one after another in one process, so the memo caches filled by one
grid point serve the next.  A check that raises is reported as a failed check
with its error, and the run goes on.  The --json report puts each check row
on a line of its own, encoded by the C encoder of json.dumps and written as
soon as it is encoded.  With --json -, standard output holds the report alone
and the summary lines go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

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
    "rt_recursion": lambda p, n: qtorus.rt_recursion_residual(p, n),
    "mixed_operator_annihilates": lambda p, n: qtorus.rt_recursion_residual(p, n),
    "recurrence_poly_annihilates": lambda p, n: qtorus.recurrence_poly_residual(p, n),
    "product_identity": lambda p, n: qtorus.product_identity_residual(p),
    "homogenization": lambda p, n: qtorus.homogenization_residual(p),
    "t1_factorization": lambda p, n: qtorus.t1_factor_residual(p),
}


def _run_check(name, p, n):
    try:
        resid = _CHECKS[name](p, n)
    except Exception as exc:  # one check's failure; the rest of the run goes on
        traceback.print_exc()
        return {"check": name, "p": p, "n": n, "pass": False,
                "error": f"{type(exc).__name__}: {exc}", "residual": None}
    ok = resid.is_zero()
    return {"check": name, "p": p, "n": n, "pass": ok,
            "residual": None if ok else resid.to_json()}


# Suite -> its grid: the n-window (lo, hi) at p, capped at n_max (None with no
# checks at a point), the checks at each point (p, n) of the window, and those
# run once per p after them.  Rows go p by p, n by n, in the order named here.
_GRID = {
    "handle-slide": (lambda p: (1, 2 * p + 4), ("handle_slide",), ()),
    "telescope": (lambda p: (0, 2 * p + 4), ("a_n_telescope", "induction_identity"), ()),
    "rt-recursion": (lambda p: (-(p + 2), 2 * p + 3), ("rt_recursion",), ()),
    "qtorus": (lambda p: (-(p + 2), 2 * p + 3),
               ("mixed_operator_annihilates", "recurrence_poly_annihilates"),
               ("product_identity", "homogenization")),
    "t1-factor": (None, (), ("t1_factorization",)),
}


def _tasks(suite: str, p_max: int, n_max: int) -> list[tuple]:
    """The suite's (check, p, n) rows in report order; the families take no p."""
    if suite == "families":
        pair = ("x1_T_closed_vs_recursion", "y1_T_closed_vs_recursion",
                "sigma_closed_vs_defining")
        return ([(name, None, n) for n in range(1, n_max + 1) for name in pair]
                + [("big_x_closed_vs_recursion", None, i) for i in range(0, n_max + 1)])
    window, at_point, per_p = _GRID[suite]
    tasks = []
    for p in range(1, p_max + 1):
        if at_point:
            lo, hi = window(p)
            tasks += [(name, p, n) for n in range(lo, min(hi, n_max) + 1) for name in at_point]
        tasks += [(name, p, None) for name in per_p]
    return tasks


def run_suite(suite: str, p_max: int, n_max: int) -> dict:
    """One suite's JSON report: its grid, a row per check, and the elapsed time."""
    tasks = _tasks(suite, p_max, n_max)
    start = time.perf_counter()
    checks = [_run_check(*task) for task in tasks]
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {"suite": suite, "grid": {"p_max": p_max, "n_max": n_max},
            "checks": checks, "elapsed_ms": round(elapsed_ms, 3)}


def _write_report(out, reports: list[dict]) -> None:
    """Write the --json text: a lone "{" line for one suite, or "[" for all,
    then per suite a header line, a line per check row and a closing line
    with elapsed_ms, each encoded by the C encoder and written at once."""
    one = len(reports) == 1
    out.write("{\n" if one else "[\n{")
    for k, report in enumerate(reports):
        head = json.dumps({"suite": report["suite"], "grid": report["grid"]})[1:-1]
        out.write((",\n{" if k else "") + head + ', "checks": [\n')
        for j, row in enumerate(report["checks"]):
            out.write(",\n" + json.dumps(row) if j else json.dumps(row))
        out.write(f'\n], "elapsed_ms": {json.dumps(report["elapsed_ms"])}}}')
    out.write("\n" if one else "\n]\n")


def cmd_verify(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    reports = []
    log = sys.stderr if args.json == "-" else None  # stdout is the report's alone
    for suite in suites:
        report = run_suite(suite, args.p_max, args.n_max)
        reports.append(report)
        npass = sum(1 for c in report["checks"] if c["pass"])
        total = len(report["checks"])
        status = "ok" if npass == total else "FAIL"
        print(f"{status:4} {suite:12} {npass}/{total} checks passed "
              f"({report['elapsed_ms']:.0f} ms)", file=log)
        for check in report["checks"]:
            if not check["pass"]:
                loc = " ".join(f"{k}={check[k]}" for k in ("p", "n")
                               if check[k] is not None)
                print(f"     FAIL {check['check']} {loc}", file=log)
                if "error" in check:
                    print(f"          error: {check['error']}", file=log)
                else:
                    print(f"          residual: {json.dumps(check['residual'])}", file=log)
    if args.json == "-":
        _write_report(sys.stdout, reports)
    elif args.json:
        try:  # exit 1 means a check failed, so a failed write exits 2
            with open(args.json, "w") as fh:
                _write_report(fh, reports)
        except OSError as exc:
            print(f"error: cannot write --json {args.json}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if all(c["pass"] for report in reports for c in report["checks"]) else 1


# Family token -> the element it names at index n; reduce also reads --p and
# --convention from the parsed arguments, and the others take --basis.
_FAMILIES = {
    "x1y": lambda n, args: families.x1y1_recursive(n).xpart,
    "y1y": lambda n, args: families.x1y1_recursive(n).ypart,
    "x1t": lambda n, args: families.x1_T_closed(n),
    "y1t": lambda n, args: families.y1_T_closed(n),
    "sigma": lambda n, args: families.sigma(n),
    "bigx": lambda n, args: families.big_x(n),
    "reduce": lambda n, args: torusknot.JonesSequence(
        1 if args.p is None else args.p, args.convention or "kbsm")(n),
}
_FAMILY_ALIASES = {"X": "x1y", "Y": "y1y"}


def cmd_expand(args) -> int:
    family = _FAMILY_ALIASES.get(args.family, args.family)
    build = _FAMILIES.get(family)
    if build is None:
        print(f"unknown family {args.family!r}; choose from {' '.join(_FAMILIES)}",
              file=sys.stderr)
        return 2
    applies = ("p", "convention") if family == "reduce" else ("basis",)
    for opt in ("basis", "p", "convention"):
        if getattr(args, opt) is not None and opt not in applies:
            print(f"error: --{opt} does not apply to {args.family}", file=sys.stderr)
            return 2
    try:
        elem = build(args.index, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(elem, HbElement):
        elem = elem.to_basis(args.basis or CHEBYSHEV)
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
    verify.set_defaults(func=cmd_verify)

    expand = sub.add_parser("expand", help="print one family member as JSON")
    expand.add_argument("family",
                        help="x1y, y1y, x1t, y1t, sigma, bigx, or reduce "
                             "(X and Y are aliases for x1y and y1y)")
    expand.add_argument("--index", "-i", type=int, required=True,
                        help="family index n (for reduce: the y-index N)")
    expand.add_argument("--basis", choices=(MONOMIAL, CHEBYSHEV),
                        help="output basis for handlebody elements (default chebyshev)")
    expand.add_argument("--p", type=int,
                        help="knot parameter (reduce only, default 1)")
    expand.add_argument("--convention", choices=("kbsm", "rt"),
                        help="reduction convention (reduce only, default kbsm)")
    expand.add_argument("--pretty", action="store_true",
                        help="print a human-readable expression instead of JSON")
    expand.set_defaults(func=cmd_expand)
    return parser


def main(argv=None) -> int:
    # a stream closed at start is None, which print() reads as stdout: fail its writes
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.open(os.devnull, os.O_RDONLY), "w", buffering=1))
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.p_max < 1 or args.n_max < 1:
            parser.error("--p-max and --n-max must be positive")
        if args.json not in (None, "-"):
            try:  # before any check runs, so a bad path costs no run
                open(args.json, "w").close()
            except OSError as exc:
                parser.error(f"cannot write --json {args.json}: {exc.strerror}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed or full stdout fails here, not at interpreter exit
    except OSError as exc:  # a --json file's own failure is caught where it is written
        # the interpreter flushes both streams at exit; a failed one flushes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        except OSError:
            os.dup2(devnull, sys.stderr.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
