"""Command-line entry points, exercised through main()."""

import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from skeincalc import cli
from skeincalc.cli import SUITES, main
from skeincalc.families import big_x
from skeincalc.handlebody import CHEBYSHEV
from skeincalc.qtorus import QtElement

from oracles import x1y1_monomial


# a child interpreter that imports this checkout's package
_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the residual of a failing t1_factorization row: L, at t^0
L_AT_T1 = QtElement({(0, 1, 0): 1})
L_AT_T1_JSON = {"terms": [[0, 1, 0, {"t": [[0, "1"]]}]]}


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "families",
                                    "--p-max", "1", "--n-max", "3"])
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("ok")
        assert "families" in lines[0]

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "handle-slide",
                                    "--p-max", "1", "--n-max", "4",
                                    "--json", "-"])
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert set(payload) == {"suite", "grid", "checks", "elapsed_ms"}
        assert payload["suite"] == "handle-slide"
        assert payload["grid"] == {"p_max": 1, "n_max": 4}
        assert payload["checks"]
        for row in payload["checks"]:
            assert set(row) == {"check", "p", "n", "pass", "residual"}
            assert row["pass"] is True
            assert row["residual"] is None

    def test_all_suites_emit_array(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "all",
                                    "--p-max", "1", "--n-max", "2",
                                    "--json", "-"])
        assert code == 0
        payload = json.loads(out[out.index("["):])
        assert isinstance(payload, list)
        assert [r["suite"] for r in payload] == list(SUITES)

    def test_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(capsys, ["verify", "--suite", "t1-factor",
                                  "--p-max", "2", "--json", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["suite"] == "t1-factor"

    def test_unwritable_json_path_exits_2_before_any_check(self, capsys, monkeypatch,
                                                           tmp_path):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "t1-factor", "--p-max", "1",
                  "--json", str(tmp_path / "missing" / "x.json")])
        assert exc.value.code == 2
        assert "error: cannot write --json" in capsys.readouterr().err
        assert ran == []

    def test_failing_check_reports_its_residual(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._CHECKS, "t1_factorization", lambda p, n: L_AT_T1)
        code, out, err = run(capsys, ["verify", "--suite", "t1-factor",
                                      "--p-max", "1", "--json", "-"])
        assert code == 1
        row = json.loads(out[out.index("{\n"):])["checks"][0]
        assert row["pass"] is False
        assert row["residual"] == L_AT_T1_JSON
        # the summary on stderr names the suite, the check and its residual
        lines = err.splitlines()
        assert lines[0].startswith("FAIL t1-factor    0/1 checks passed ("), err
        assert lines[1:] == ["     FAIL t1_factorization p=1",
                             f"          residual: {json.dumps(L_AT_T1_JSON)}"]

    def test_raising_check_is_recorded(self, capsys, monkeypatch):
        def boom(p, n):
            if p == 2:
                raise ZeroDivisionError("no inverse")
            return QtElement()
        monkeypatch.setitem(cli._CHECKS, "t1_factorization", boom)
        code, out, err = run(capsys, ["verify", "--suite", "t1-factor",
                                      "--p-max", "3", "--json", "-"])
        assert code == 1
        assert "ZeroDivisionError" in err
        rows = json.loads(out[out.index("{\n"):])["checks"]
        assert [row["pass"] for row in rows] == [True, False, True]
        assert rows[1] == {"check": "t1_factorization", "p": 2, "n": None,
                           "pass": False, "error": "ZeroDivisionError: no inverse",
                           "residual": None}
        # the summary lines go to stderr, as the report takes stdout, and so
        # does the traceback of the check that raised
        assert "Traceback (most recent call last)" in err
        lines = err.splitlines()
        status = next(line for line in lines if line.startswith("FAIL "))
        assert status.startswith("FAIL t1-factor    2/3 checks passed ("), err
        assert lines[lines.index(status) + 1:] == [
            "     FAIL t1_factorization p=2", "          error: ZeroDivisionError: no inverse"]

    def test_import_leaves_the_process_pool_unloaded(self):
        # verify runs in one process, so nothing loads concurrent.futures
        code = "import sys, skeincalc.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_ENV, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_jobs_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_json_write_after_the_run_exits_2(self, capsys):
        # /dev/full opens, so the early check passes; the write fails with ENOSPC
        code, out, err = run(capsys, ["verify", "--suite", "t1-factor",
                                      "--p-max", "2", "--json", "/dev/full"])
        assert code == 2
        assert out.startswith("ok")
        assert err.splitlines() == ["error: cannot write --json /dev/full: "
                                    + os.strerror(errno.ENOSPC)]

    def test_closed_stdout_exits_2_without_traceback(self):
        # the pipe's read end is closed before the child writes, so its first
        # flush fails, as it does under `| head -1` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "skeincalc.cli", "verify",
                                   "--suite", "t1-factor", "--p-max", "2", "--json", "-"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=_ENV, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        # the summary line goes to stderr before the report fails to write
        summary, *rest = proc.stderr.splitlines()
        assert summary.startswith("ok   t1-factor")
        assert rest == ["error: cannot write standard output: " + os.strerror(errno.EPIPE)]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "t1-factor", "--p-max", "1", "--json", "-"],
        ["verify", "--suite", "t1-factor", "--p-max", "1"],
        ["expand", "x1t", "-i", "2"],
    ])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout_exits_2_without_traceback(self, argv, unbuffered):
        # buffered, the write fails at main's flush; unbuffered, at the first
        # print; either way the interpreter's last flush stays quiet
        env = {k: v for k, v in _ENV.items() if k != "PYTHONUNBUFFERED"}
        flags = ["-u"] if unbuffered else []
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, *flags, "-m", "skeincalc.cli", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.endswith("error: cannot write standard output: "
                                    + os.strerror(errno.ENOSPC) + "\n")
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "t1-factor", "--p-max", "1", "--json", "-"],
        ["expand", "x1t", "-i", "2", "--p", "5"],
    ])
    @pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"])
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_or_closed_stderr_exits_2(self, argv, redirect, unbuffered):
        # the summary or usage line fails on stderr, and so does main's own
        # message; exit 1 would read as a failed check.  A stream closed at
        # start fails as a full one: its lines must not go to stdout instead
        env = {k: v for k, v in _ENV.items() if k != "PYTHONUNBUFFERED"}
        flags = ["-u"] if unbuffered else []
        proc = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable,
                               *flags, "-m", "skeincalc.cli", *argv],
                              stdout=subprocess.PIPE, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "t1-factor", "--p-max", "1", "--json", "-"],
        ["expand", "x1t", "-i", "2"],
    ])
    def test_stdout_closed_at_start_exits_2_without_traceback(self, argv):
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable,
                               "-m", "skeincalc.cli", *argv],
                              stderr=subprocess.PIPE, text=True, env=_ENV, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.endswith("error: cannot write standard output: "
                                    + os.strerror(errno.EBADF) + "\n")
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stderr_leaves_a_stdout_summary_alone(self):
        # plain verify writes nothing to stderr, so a full stderr changes nothing
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "skeincalc.cli", "verify",
                                   "--suite", "t1-factor", "--p-max", "1"],
                                  stdout=subprocess.PIPE, stderr=full, text=True,
                                  env=_ENV, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok   t1-factor")

    def test_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_rejects_nonpositive_bounds(self, capsys):
        for argv in (["verify", "--p-max", "0"],
                     ["verify", "--n-max", "-3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_a_suite_without_point_checks_has_no_window(self):
        # t1-factor runs once per p, whatever --n-max is
        assert cli._GRID["t1-factor"][0] is None
        for n_max in (1, 10):
            assert cli._tasks("t1-factor", 3, n_max) == [("t1_factorization", p, None)
                                                         for p in (1, 2, 3)]


def _t1_fails_and_raises(p, n):
    """A stand-in check: zero at p = 1, a nonzero residual at p = 2, raises at p = 3."""
    if p == 3:
        raise ZeroDivisionError("no inverse")
    return L_AT_T1 if p == 2 else QtElement()


class TestReportLayout:
    # case -> (suite, p_max, n_max, the check that replaces t1_factorization or None)
    CASES = {"single": ("telescope", 2, 3, None),
             "all": ("all", 1, 2, None),
             "failing": ("t1-factor", 2, 1, _t1_fails_and_raises),
             "raising": ("t1-factor", 3, 1, _t1_fails_and_raises)}

    @pytest.mark.parametrize("case", CASES)
    def test_one_line_per_check_row(self, capsys, monkeypatch, tmp_path, case):
        suite, p_max, n_max, check = self.CASES[case]
        if check is not None:
            monkeypatch.setitem(cli._CHECKS, "t1_factorization", check)
        # the suites run once, so both reports below print the same dicts
        reports = [cli.run_suite(s, p_max, n_max) for s in (SUITES if suite == "all" else (suite,))]
        by_suite = {r["suite"]: r for r in reports}
        monkeypatch.setattr(cli, "run_suite", lambda s, p, n: by_suite[s])
        capsys.readouterr()
        argv = ["verify", "--suite", suite, "--p-max", str(p_max), "--n-max", str(n_max)]
        target = tmp_path / "report.json"
        code, summary, _ = run(capsys, argv + ["--json", str(target)])
        text = target.read_text()
        assert code == (1 if check else 0)
        # --json - prints the file's text alone, and the summary lines to stderr
        assert run(capsys, argv + ["--json", "-"]) == (code, text, summary)
        lines = text.splitlines()
        assert lines[0] == ("[" if suite == "all" else "{")
        # besides the rows: the first line, a header and a closing line per
        # suite, and the closing "]" of an array
        assert len(lines) == 1 + sum(len(r["checks"]) + 2 for r in reports) + (suite == "all")
        rows = [json.loads(line.rstrip(",")) for line in lines if line.startswith('{"check"')]
        assert rows == [row for r in reports for row in r["checks"]]
        assert json.loads(text) == (reports if suite == "all" else reports[0])
        if check is not None:
            assert rows[1]["residual"] == L_AT_T1_JSON
        if case == "raising":
            assert rows[2]["error"] == "ZeroDivisionError: no inverse"


class TestExpand:
    def test_family_seed_json(self, capsys):
        code, out, _ = run(capsys, ["expand", "X", "-i", "0",
                                    "--basis", "monomial"])
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == "monomial"
        assert payload["terms"] == [[0, 1, 0, {"t": [[4, "-1"]]}],
                                    [1, 0, 1, {"t": [[2, "-1"]]}]]

    def test_family_seed_pretty(self, capsys):
        code, out, _ = run(capsys, ["expand", "X", "-i", "0",
                                    "--basis", "monomial", "--pretty"])
        assert code == 0
        assert out.strip() == "(-t^4)*y + (-t^2)*x*z"

    @pytest.mark.parametrize("family, part", [("x1y", "xpart"), ("y1y", "ypart")])
    def test_powers_of_y_print_the_monomial_recursion(self, capsys, family, part):
        # expand reads the T_n oracle; the recursion in powers of y gives the
        # same bytes, in the monomial basis and converted to the default one
        for n in range(26):
            want = getattr(x1y1_monomial(n), part)
            for basis, elem in ((["--basis", "monomial"], want), ([], want.to_basis(CHEBYSHEV))):
                code, out, _ = run(capsys, ["expand", family, "-i", str(n), *basis])
                assert code == 0
                assert out == json.dumps(elem.to_json(), indent=2) + "\n", (n, basis)

    def test_reduce_pretty(self, capsys):
        code, out, _ = run(capsys, ["expand", "reduce", "-i", "2", "--p", "1",
                                    "--pretty"])
        assert code == 0
        assert out.strip() == "(-t^4)*S2(x) + (-t^2)*S2(x)*S1(y)"

    def test_reduce_pretty_defaults(self, capsys):
        # no --p and no --convention: the defaults p = 1 and kbsm, which at
        # i = 3 differ from p = 2 and from rt
        for i, want in (("2", "(-t^4)*S2(x) + (-t^2)*S2(x)*S1(y)"),
                        ("3", "(t^10)*1 + (t^6)*S4(x) + (t^4)*S4(x)*S1(y)")):
            code, out, _ = run(capsys, ["expand", "reduce", "-i", i, "--pretty"])
            assert code == 0
            assert out == want + "\n", i

    def test_reduce_deep_index_json(self, capsys):
        code, out, _ = run(capsys, ["expand", "reduce", "-i", "1000", "--p", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 1 and payload["convention"] == "kbsm"
        assert payload["terms"]

    def test_bigx_json_round_trips(self, capsys):
        code, out, _ = run(capsys, ["expand", "bigx", "-i", "2",
                                    "--basis", "monomial"])
        assert code == 0
        assert json.loads(out) == big_x(2).to_basis("monomial").to_json()

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run(capsys, ["expand", "sigma", "-i", "0"])
        assert code == 2
        assert not out
        assert "error:" in err

    def test_reduce_option_on_a_handlebody_family_exits_2(self, capsys):
        code, out, err = run(capsys, ["expand", "x1t", "-i", "2", "--p", "5",
                                      "--convention", "rt"])
        assert code == 2
        assert not out
        assert err.strip() == "error: --p does not apply to x1t"

    def test_basis_option_on_reduce_exits_2(self, capsys):
        code, out, err = run(capsys, ["expand", "reduce", "-i", "5", "--p", "2",
                                      "--basis", "monomial"])
        assert code == 2
        assert not out
        assert err.strip() == "error: --basis does not apply to reduce"

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, ["expand", "wibble", "-i", "1"])
        assert code == 2
        assert "unknown family" in err

    def test_sweep_prints_the_pinned_bytes(self, capsys):
        # 840 invocations: every family at n = -1..12 under each --basis, and
        # reduce at n = -5..15 under four option sets, each as JSON and
        # --pretty; one sha256 over argv, exit code, stdout and stderr
        options = [[], ["--basis", "monomial"], ["--basis", "chebyshev"]]
        argvs = [["expand", family, "--index", str(n), *opts]
                 for family in ("x1y", "y1y", "X", "Y", "x1t", "y1t", "sigma", "bigx")
                 for n in range(-1, 13) for opts in options]
        options = [[], ["--p", "3"], ["--convention", "rt"], ["--p", "2", "--convention", "rt"]]
        argvs += [["expand", "reduce", "--index", str(n), *opts]
                  for n in range(-5, 16) for opts in options]
        digest = hashlib.sha256()
        for argv in (argv + pretty for argv in argvs for pretty in ([], ["--pretty"])):
            digest.update(json.dumps([argv, *run(capsys, argv)]).encode())
        assert digest.hexdigest() == (
            "d239c732baa605a03e0b2700bea4c8cc01dd511a30e24871edfe9b47f38b962f")


def test_python_dash_m_runs_the_cli():
    for argv, code in ((["verify", "--suite", "t1-factor", "--p-max", "1"], 0),
                       (["verify", "--jobs", "2"], 2)):
        proc = subprocess.run([sys.executable, "-m", "skeincalc", *argv], capture_output=True,
                              text=True, env=_ENV, timeout=60)
        assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1].endswith("unrecognized arguments: --jobs 2")


@pytest.mark.skipif(shutil.which("skeincalc") is None,
                    reason="console script not installed")
def test_console_script():
    proc = subprocess.run(["skeincalc", "verify", "--suite", "t1-factor",
                           "--p-max", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok")
