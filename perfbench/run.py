"""skeincalc benchmark: time to verdict, set-up time, peak RSS and verdict shares.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src and
nothing is installed. Every timed process is fresh, serial and starts with
cold memo caches, as a user's `skeincalc verify` does. Workloads:

  grid-p30n70     one `verify --p-max 30 --n-max 70` process, all six suites
  reduced-module  four `verify --suite S` processes that build no handlebody
                  element: telescope p40/n90, rt-recursion and qtorus
                  p80/n170, t1-factor p80
  mutant-kill     one library process over the base reduction rules and their
                  sign mutants (see mutants.py)

With --trace 0 a run repeats whole rounds of the workload until the next
round would end after --seconds, and reports medians (end-to-end metrics).
With --trace 1 it makes one untraced round and one traced round (tracer.py)
and reports per-layer metrics. The seed only shuffles mutant-kill's task
order; the CLI workloads have fixed inputs, so the seed has no effect there.

Every verdict is checked against the known answer: every CLI check passes
and the report lists every check of the grid; mutant-kill's answers are
described in mutants.py. Before measuring, the gate is shown able to fail: a
doctored report and a mutant rule fed into pass-expected tasks must both
count wrong verdicts. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIGESTS = HERE / "reference_digests.json"

# What the installed `skeincalc` console script runs.
CLI_ENTRY = "import sys; from skeincalc.cli import main; sys.exit(main())"
# The same start, stopped where the first check could begin.
CLI_PROBE = ("import sys, time; from skeincalc.cli import build_parser; "
             "build_parser().parse_args(sys.argv[1:]); print(repr(time.monotonic()))")

SETUP_PROBES_PER_ROUND = 3
MIN_SETUP_PROBES = 9
RUN_DEADLINE_S = 170.0

WORKLOADS = {
    "grid-p30n70": [["--p-max", "30", "--n-max", "70"]],
    "reduced-module": [
        ["--suite", "telescope", "--p-max", "40", "--n-max", "90"],
        ["--suite", "rt-recursion", "--p-max", "80", "--n-max", "170"],
        ["--suite", "qtorus", "--p-max", "80", "--n-max", "170"],
        ["--suite", "t1-factor", "--p-max", "80"],
    ],
    "mutant-kill": None,
}

SUITES = ("families", "handle-slide", "telescope", "rt-recursion", "qtorus",
          "t1-factor")


class Child:
    """Spawns fresh interpreters with the checkout's ./src on the path."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def run(self, args: list[str]) -> dict:
        """Run to completion; wall time from launch to exit, and the child's own peak RSS."""
        cmd = [sys.executable, *args]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                env=self.env, cwd=ROOT)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"exit": proc.returncode, "out": out.decode("utf-8", "replace"),
                "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}

    def setup_s(self, args: list[str]) -> float:
        """Seconds from launch until the child could start its first check."""
        launched = time.monotonic()
        res = self.run(args)
        if res["exit"] != 0:
            raise RuntimeError(f"set-up probe failed:\n{res['out']}")
        return float(res["out"].strip().splitlines()[-1]) - launched


# -- known answers -----------------------------------------------------------

def cli_grid(argv: list[str]) -> tuple[tuple[str, ...], int, int]:
    """(suites, p_max, n_max) of a verify invocation, with the CLI's defaults."""
    opts = {"--suite": "all", "--p-max": "3", "--n-max": "10"}
    opts.update(zip(argv[::2], argv[1::2]))
    suite = opts["--suite"]
    return (SUITES if suite == "all" else (suite,)), int(opts["--p-max"]), int(opts["--n-max"])


def expected_checks(suite: str, p_max: int, n_max: int) -> set[tuple]:
    """Every (check, p, n) the suite's grid covers; each must pass."""
    ps = range(1, p_max + 1)

    def upto(lo: int, hi: int) -> range:
        return range(lo, min(hi, n_max) + 1)

    if suite == "families":
        return ({(c, None, n) for n in range(1, n_max + 1)
                 for c in ("x1_T_closed_vs_recursion", "y1_T_closed_vs_recursion",
                           "sigma_closed_vs_defining")}
                | {("big_x_closed_vs_recursion", None, i) for i in range(n_max + 1)})
    if suite == "handle-slide":
        return {("handle_slide", p, n) for p in ps for n in upto(1, 2 * p + 4)}
    if suite == "telescope":
        return {(c, p, n) for p in ps for n in upto(0, 2 * p + 4)
                for c in ("a_n_telescope", "induction_identity")}
    if suite == "rt-recursion":
        return {("rt_recursion", p, n) for p in ps for n in upto(-(p + 2), 2 * p + 3)}
    if suite == "qtorus":
        return ({(c, p, n) for p in ps for n in upto(-(p + 2), 2 * p + 3)
                 for c in ("mixed_operator_annihilates", "recurrence_poly_annihilates")}
                | {(c, p, None) for p in ps for c in ("product_identity", "homogenization")})
    if suite == "t1-factor":
        return {("t1_factorization", p, None) for p in ps}
    raise ValueError(f"unknown suite {suite!r}")


def parse_report(stdout: str) -> tuple[list[dict] | None, int]:
    """The `--json -` report printed after the summary lines, and its size in bytes."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line in ("[", "{"):
            text = "\n".join(lines[i:])
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                return None, 0
            return (payload if isinstance(payload, list) else [payload]), len(text.encode())
    return None, 0


def score_cli(argv: list[str], exit_code: int, stdout: str) -> dict:
    """Verdict counts of one verify invocation against the known answer."""
    suites, p_max, n_max = cli_grid(argv)
    expected = set().union(*(expected_checks(s, p_max, n_max) for s in suites))
    reports, nbytes = parse_report(stdout)
    seen = {}
    for report in reports or ():
        for c in report.get("checks", ()):
            seen[(c.get("check"), c.get("p"), c.get("n"))] = c
    decided = right = 0
    for key in expected:
        c = seen.get(key)
        if c is None or c.get("error") is not None or not isinstance(c.get("pass"), bool):
            continue
        decided += 1
        right += c["pass"]
    ok = right == len(expected) and exit_code == 0
    return {"attempted": len(expected), "decided": decided, "right": right,
            "ok": ok, "report_bytes": nbytes, "digest": digest(reports)}


def digest(reports: list[dict] | None) -> str | None:
    """sha256 of the report with every elapsed_ms field removed."""
    if reports is None:
        return None

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_ms"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    text = json.dumps(strip(reports), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def score_mutants(exit_code: int, counts: dict | None) -> dict:
    if counts is None:
        return {"attempted": 1, "decided": 0, "right": 0, "ok": False}
    right = counts["decided"] - counts["wrong"]
    return {"attempted": counts["verdicts"], "decided": counts["decided"],
            "right": right, "ok": exit_code == 0 and right == counts["verdicts"]}


def last_json(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def gate_can_fail(child: Child, seed: int) -> bool:
    """The gate must count wrong and undecided verdicts when they occur."""
    argv = ["--suite", "t1-factor", "--p-max", "2"]
    checks = [{"check": "t1_factorization", "p": 1, "n": None, "pass": True},
              {"check": "t1_factorization", "p": 2, "n": None, "pass": False}]
    report = json.dumps({"suite": "t1-factor", "checks": checks}, indent=2)
    flipped = score_cli(argv, 1, "FAIL t1-factor\n" + report)
    dropped = score_cli(argv, 0, json.dumps({"checks": checks[:1]}, indent=2))
    planted = child.run([str(HERE / "mutants.py"), "--seed", str(seed), "--plant"])
    plant = score_mutants(planted["exit"], last_json(planted["out"]))
    return (flipped["decided"] - flipped["right"] == 1 and not flipped["ok"]
            and dropped["decided"] == 1 and not dropped["ok"]
            and plant["decided"] - plant["right"] >= 1 and not plant["ok"])


# -- rounds -----------------------------------------------------------------

def timed_round(child: Child, workload: str, seed: int) -> dict:
    """One untraced pass over the workload: wall, peak RSS and verdict counts."""
    start = time.perf_counter()
    rss, scores = 0.0, []
    if WORKLOADS[workload] is None:
        res = child.run([str(HERE / "mutants.py"), "--seed", str(seed)])
        rss = res["rss_mb"]
        scores.append(score_mutants(res["exit"], last_json(res["out"])))
    else:
        for argv in WORKLOADS[workload]:
            full = ["verify", *argv, "--json", "-"]
            res = child.run(["-c", CLI_ENTRY, *full])
            rss = max(rss, res["rss_mb"])
            scores.append(dict(score_cli(argv, res["exit"], res["out"]),
                               argv=" ".join(argv)))
    return {"wall_s": time.perf_counter() - start, "rss_mb": rss, "scores": scores}


def traced_round(child: Child, workload: str, seed: int) -> dict:
    """One traced pass, each piece in a fresh child; traces are merged."""
    if WORKLOADS[workload] is None:
        pieces = [(["mutants", "--seed", str(seed)], None)]
    else:
        pieces = [(["cli", "verify", *argv, "--json", "-"], argv)
                  for argv in WORKLOADS[workload]]
    wall, scores, traces, report_bytes = 0.0, [], [], 0
    for args, argv in pieces:
        res = child.run([str(HERE / "traced.py"), *args])
        wall += res["wall_s"]
        out = last_json(res["out"])
        if out is None:
            scores.append(score_mutants(res["exit"], None) if argv is None
                          else score_cli(argv, res["exit"], ""))
            continue
        traces.append(out["trace"])
        if argv is None:
            scores.append(score_mutants(out["exit"], out["verdicts"]))
        else:
            score = score_cli(argv, out["exit"], out["stdout"])
            report_bytes += score["report_bytes"]
            scores.append(score)
    return {"wall_s": wall, "scores": scores, "trace": merge_traces(traces),
            "report_bytes": report_bytes}


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, list] = {}
    layer_self: dict[str, float] = {}
    counts: dict[str, int] = {}
    memos: dict[str, dict] = {}
    check_ms: list[float] = []
    for tr in traces:
        for name, rec in tr["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(rec):
                acc[i] += v
        for layer, s in tr["layer_self_s"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + s
        for key, v in tr["counts"].items():
            counts[key] = max(counts.get(key, 0), v) if key == "max_coeff_bits" \
                else counts.get(key, 0) + v
        for layer, info in tr["memos"].items():
            acc = memos.setdefault(layer, {"hits": 0, "misses": 0, "entries": 0})
            for key, v in info.items():
                acc[key] += v
        check_ms.extend(tr["check_ms"])
    return {"spans": spans, "layer_self_s": layer_self, "counts": counts,
            "memos": memos, "check_ms": check_ms}


# -- metrics ----------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    scores = [s for r in rounds for s in r["scores"]]
    attempted = sum(s["attempted"] for s in scores)
    return {
        "verdict_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
        "decided_share": (sum(s["decided"] for s in scores) / attempted, "ratio"),
        "right_verdict_share": (sum(s["right"] for s in scores) / attempted, "ratio"),
    }


def per_layer(traced: dict, untraced_wall: float) -> dict:
    tr = traced["trace"]
    spans, counts, memos = tr["spans"], tr["counts"], tr["memos"]
    layer_self = tr["layer_self_s"]

    def span(field: int, *names: str):
        return sum(spans.get(n, (0, 0.0, 0.0))[field] for n in names)

    def memo(layer: str) -> dict:
        return memos.get(layer, {"hits": 0, "misses": 0, "entries": 0})

    def hit_ratio(layer: str) -> float:
        m = memo(layer)
        lookups = m["hits"] + m["misses"]
        return m["hits"] / lookups if lookups else 0.0

    checks = tr["check_ms"] or [0.0]
    mul = ("handlebody.HbElement.__mul__", "handlebody.HbElement.__rmul__",
           "handlebody.hb_mul")
    return {
        "coeffs.mul_calls": (counts.get("mul_calls", 0), "count"),
        "coeffs.add_calls": (counts.get("add_calls", 0), "count"),
        "coeffs.term_products": (counts.get("term_products", 0), "count"),
        "coeffs.max_coeff_bits": (counts.get("max_coeff_bits", 0), "bits"),
        "chebyshev.self_s": (layer_self.get("chebyshev", 0.0), "s"),
        "chebyshev.memo_hit_ratio": (hit_ratio("chebyshev"), "ratio"),
        "chebyshev.memo_entries": (memo("chebyshev")["entries"], "count"),
        "handlebody.self_s": (layer_self.get("handlebody", 0.0), "s"),
        "handlebody.to_basis.calls": (span(0, "handlebody.HbElement.to_basis"), "count"),
        "handlebody.to_basis.self_s": (span(2, "handlebody.HbElement.to_basis"), "s"),
        "handlebody.mul.self_s": (span(2, *mul), "s"),
        "handlebody.terms_out": (counts.get("terms_out", 0), "count"),
        "families.self_s": (layer_self.get("families", 0.0), "s"),
        "families.memo_hit_ratio": (hit_ratio("families"), "ratio"),
        "families.memo_entries": (memo("families")["entries"], "count"),
        "torusknot.self_s": (layer_self.get("torusknot", 0.0), "s"),
        "torusknot.reduce.memo_hit_ratio": (hit_ratio("torusknot"), "ratio"),
        "torusknot.reduce.memo_entries": (memo("torusknot")["entries"], "count"),
        "torusknot.embed.self_s": (span(2, "torusknot.embed"), "s"),
        "torusknot.a_element.self_s": (span(2, "torusknot.a_element"), "s"),
        "torusknot.times_sx.calls": (span(0, "torusknot.TkElement.times_sx"), "count"),
        "qtorus.self_s": (layer_self.get("qtorus", 0.0), "s"),
        "qtorus.qt_apply.calls": (span(0, "qtorus.qt_apply"), "count"),
        "qtorus.qt_apply.self_s": (span(2, "qtorus.qt_apply"), "s"),
        "qtorus.memo_entries": (memo("qtorus")["entries"], "count"),
        "cli.self_s": (layer_self.get("cli", 0.0), "s"),
        "cli.report_bytes": (traced["report_bytes"], "bytes"),
        "check.p50_ms": (percentile(checks, 0.50), "ms"),
        "check.p99_ms": (percentile(checks, 0.99), "ms"),
        "check.samples": (len(tr["check_ms"]), "count"),
        "trace.overhead_ratio": (traced["wall_s"] / untraced_wall, "ratio"),
    }


def print_digests(rounds: list[dict]) -> None:
    try:
        reference = json.loads(REFERENCE_DIGESTS.read_text())
    except (OSError, json.JSONDecodeError):
        reference = {}
    by_argv: dict[str, set] = {}
    for r in rounds:
        for s in r["scores"]:
            if "argv" in s:
                by_argv.setdefault(s["argv"], set()).add(s["digest"])
    for argv, found in by_argv.items():
        ref = reference.get(argv)
        stable = "stable" if len(found) == 1 else f"UNSTABLE ({len(found)} values)"
        match = ("no reference" if ref is None
                 else "matches reference" if found == {ref} else "differs from reference")
        shown = " ".join(sorted(d or "no-report" for d in found))
        print(f"digest  verify {argv}: {shown} "
              f"[{stable}, {match}]")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="skeincalc benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "skeincalc" / "__init__.py").is_file():
        print(f"error: no skeincalc sources under {SRC}", file=sys.stderr)
        return 2
    child = Child(time.monotonic() + RUN_DEADLINE_S)
    gate_ok = gate_can_fail(child, args.seed)
    print(f"gate    doctored report and planted mutant counted as wrong: {gate_ok}")

    window = time.perf_counter()
    if WORKLOADS[args.workload] is None:
        probe = [str(HERE / "mutants.py"), "--seed", str(args.seed), "--probe"]
    else:
        probe = ["-c", CLI_PROBE, "verify", *WORKLOADS[args.workload][0]]
    child.setup_s(probe)  # warm the bytecode cache; not reported
    rounds = []
    if args.trace:
        rounds.append(timed_round(child, args.workload, args.seed))
        traced = traced_round(child, args.workload, args.seed)
        scored = rounds + [traced]
        metrics = per_layer(traced, rounds[0]["wall_s"])
    else:
        setups: list[float] = []
        while True:
            # Probes are spread over the run, so one slow spell of a shared
            # host does not set the whole median.
            setups += [child.setup_s(probe) for _ in range(SETUP_PROBES_PER_ROUND)]
            rounds.append(timed_round(child, args.workload, args.seed))
            elapsed = time.perf_counter() - window
            if elapsed + rounds[-1]["wall_s"] > args.seconds:
                break
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(child.setup_s(probe))
        scored = rounds
        metrics = end_to_end(rounds, setups)
    scores = [s for r in scored for s in r["scores"]]
    attempted = sum(s["attempted"] for s in scores)
    decided = sum(s["decided"] for s in scores)
    right = sum(s["right"] for s in scores)
    correct = gate_ok and all(s["ok"] for s in scores)

    walls = ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
    print(f"rounds  {len(rounds)} untraced" + (", 1 traced" if args.trace else "")
          + f"; walls {walls} s")
    print(f"verdicts {attempted} attempted, {decided - right} wrong, "
          f"{attempted - decided} undecided")
    print_digests(rounds)
    for name, (value, unit) in metrics.items():
        print(f"metric  {name:34} {value:>16.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": attempted - right,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
