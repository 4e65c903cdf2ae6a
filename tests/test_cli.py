"""Command-line entry points, exercised through main()."""

import json
import shutil
import subprocess

import pytest

from skeincalc import cli
from skeincalc.cli import SUITES, main
from skeincalc.families import big_x
from skeincalc.qtorus import CommutativePoly


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_parallel_matches_serial(self, capsys):
        argv = ["verify", "--suite", "families", "--p-max", "1",
                "--n-max", "2", "--json", "-"]
        _, out1, _ = run(capsys, argv + ["--jobs", "1"])
        _, out2, _ = run(capsys, argv + ["--jobs", "2"])
        p1 = json.loads(out1[out1.index("{"):])
        p2 = json.loads(out2[out2.index("{"):])
        p1.pop("elapsed_ms")
        p2.pop("elapsed_ms")
        assert p1 == p2

    def test_failing_check_reports_its_residual(self, capsys, monkeypatch):
        nonzero = CommutativePoly({(0, 1, 0): 1})
        monkeypatch.setitem(cli._CHECKS, "t1_factorization", lambda p, n: nonzero)
        code, out, _ = run(capsys, ["verify", "--suite", "t1-factor",
                                    "--p-max", "1", "--json", "-"])
        assert code == 1
        row = json.loads(out[out.index("{\n"):])["checks"][0]
        assert row["pass"] is False
        assert row["residual"] == {"terms": [[0, 1, 0, "1"]]}

    def test_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_rejects_nonpositive_bounds(self, capsys):
        for argv in (["verify", "--p-max", "0"],
                     ["verify", "--n-max", "-3"],
                     ["verify", "--jobs", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


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

    def test_reduce_pretty(self, capsys):
        code, out, _ = run(capsys, ["expand", "reduce", "-i", "2", "--p", "1",
                                    "--pretty"])
        assert code == 0
        assert out.strip() == "(-t^4)*S2(x) + (-t^2)*S2(x)*S1(y)"

    def test_bigx_json_round_trips(self, capsys):
        code, out, _ = run(capsys, ["expand", "bigx", "-i", "2",
                                    "--basis", "monomial"])
        assert code == 0
        assert json.loads(out) == big_x(2).to_json()

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run(capsys, ["expand", "sigma", "-i", "0"])
        assert code == 2
        assert not out
        assert "error:" in err

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, ["expand", "wibble", "-i", "1"])
        assert code == 2
        assert "unknown family" in err


@pytest.mark.skipif(shutil.which("skeincalc") is None,
                    reason="console script not installed")
def test_console_script():
    proc = subprocess.run(["skeincalc", "verify", "--suite", "t1-factor",
                           "--p-max", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok")
