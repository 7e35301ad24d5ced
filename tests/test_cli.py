import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from singlet_lhv import (
    InfeasibleParameters,
    InvalidConfig,
    SingletLhvError,
    __version__,
    cli,
    derive_seed,
    experiments,
    montecarlo,
)
from singlet_lhv.experiments import CheckResult, SweepGate, VerifyReport
from singlet_lhv.montecarlo import DEFAULT_CHUNK_SIZE

CLI = [sys.executable, "-m", "singlet_lhv.cli"]

SWEEP_HEADER = (
    "theta,p_pp_mc,p_pm_mc,p_mp_mc,p_mm_mc,"
    "p_pp,p_pm,p_mp,p_mm,corr_mc,corr,n_pairs,seed"
)
REGION_HEADER = "eta,v,sin_feasible,line_feasible,chsh_violated,gap"
CHSH_HEADER = (
    "label,angle_1,angle_2,corr_mc,se,seed,"
    "s_mc,se_s,s_oracle,bound,violated_mc"
)


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )


class TestParams:
    def test_feasible_report(self):
        res = run_cli("params", "--eta", "0.7", "--vis", "0.8", "--model", "sin")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert "eta = 0.7" in lines
        assert "a = 0.30787608005179967" in lines
        assert "b = 0.45499999999999996" in lines
        assert "c = 0.18918918918918914" in lines
        assert "feasible = true" in lines

    def test_infeasible_reports_and_fails(self):
        res = run_cli("params", "--eta", "0.9", "--vis", "1.0", "--model", "sin")
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "feasible = false" in res.stdout
        assert "max_visibility = 0.7780908328937106" in res.stdout

    def test_zero_efficiency(self):
        res = run_cli("params", "--eta", "0", "--vis", "1", "--model", "sin")
        assert res.returncode == 0
        assert "a = 0.0" in res.stdout.splitlines()

    def test_unknown_model(self):
        res = run_cli("params", "--eta", "0.5", "--vis", "0.5", "--model", "cosine")
        assert res.returncode == 2


class TestSweep:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli(
            "sweep", "--eta", "0.7", "--vis", "0.8", "--model", "sin",
            "--steps", "3", "--pairs", "20000", "--seed", "11",
            "--out", str(out),
        )
        assert res.returncode == 0
        assert "pass at 5 sigma" in res.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert first[11] == "20000"
        assert first[12] == str(derive_seed(11, 0))
        mid = lines[2].split(",")
        assert mid[0] == repr(math.pi / 2.0)

    def test_json_output(self, tmp_path):
        out = tmp_path / "sweep.json"
        res = run_cli(
            "sweep", "--eta", "0.7", "--vis", "0.8", "--model", "sin",
            "--steps", "3", "--pairs", "5000", "--seed", "11",
            "--format", "json", "--out", str(out),
        )
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "sweep"
        assert doc["meta"]["version"] == __version__
        assert doc["meta"]["seed"] == 11
        assert doc["meta"]["params"]["a"] == 0.30787608005179967
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["theta"] == 0.0
        for row in doc["rows"]:
            assert list(row) == SWEEP_HEADER.split(",")

    def test_json_meta_records_provenance(self, tmp_path):
        out = tmp_path / "sweep.json"
        res = run_cli(
            "sweep", "--eta", "0.7", "--vis", "0.8", "--model", "line",
            "--steps", "2", "--pairs", "2000", "--seed", "5",
            "--format", "json", "--out", str(out),
        )
        assert res.returncode == 0
        assert json.loads(out.read_text())["meta"] == {
            "command": "sweep",
            "version": __version__,
            "numpy": np.__version__,
            "seed": 5,
            "chunk_size": DEFAULT_CHUNK_SIZE,
            "params": {
                "kind": "line", "eta": 0.7, "v": 0.8,
                "a": 0.27718585822512665, "b": 0.45499999999999996,
                "c": 0.18918918918918914,
            },
        }

    def test_rejects_zero_pairs(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"kept\n")
        res = run_cli(
            "sweep", "--eta", "0.7", "--vis", "0.8", "--model", "sin",
            "--steps", "3", "--pairs", "0", "--out", str(out),
        )
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert out.read_bytes() == b"kept\n"

    def test_a_failed_gate_exits_one(self, tmp_path, monkeypatch, capsys):
        failed = SweepGate(max_abs_deviation=0.5, max_sigma=9.0, passed=False, inconclusive=False)
        monkeypatch.setattr(cli, "sweep_gate", lambda rows, params: failed)
        argv = ["sweep", "--eta", "0.7", "--vis", "0.8", "--steps", "2", "--pairs", "100",
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 1
        assert "(FAIL at 5 sigma, worst 9.0)" in capsys.readouterr().out

    def test_no_coincidences_is_inconclusive_not_a_failure(self, tmp_path):
        res = run_cli(
            "sweep", "--eta", "0.001", "--vis", "0", "--steps", "2", "--pairs", "10",
            "--out", str(tmp_path / "x.csv"),
        )
        assert res.returncode == 3
        assert res.stdout == (
            "max |corr_mc - corr| = 0.0 "
            "(inconclusive, 2 of 2 rows had no coincidences, worst 0.0)\n"
        )
        assert res.stderr == ""

    def test_unwritable_out_is_an_error_not_a_traceback(self, tmp_path):
        res = run_cli(
            "sweep", "--eta", "0.7", "--vis", "0.8", "--steps", "2",
            "--pairs", "1000", "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""

    def test_out_is_required(self):
        res = run_cli("sweep", "--eta", "0.7", "--vis", "0.8", "--model", "sin")
        assert res.returncode == 2


class TestChsh:
    def test_csv_to_stdout(self):
        res = run_cli(
            "chsh", "--eta", "0.7", "--vis", "1.0", "--model", "sin",
            "--pairs", "20000", "--seed", "3",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == CHSH_HEADER
        assert len(lines) == 5
        assert [row.split(",")[0] for row in lines[1:]] == ["ac", "ad", "bc", "bd"]
        assert lines[1].split(",")[10] == "false"

    def test_json_report(self):
        res = run_cli(
            "chsh", "--eta", "0.9", "--vis", "0.86", "--model", "line",
            "--pairs", "20000", "--seed", "14", "--format", "json",
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["bound"] == 2.4444444444444446
        assert doc["violated_mc"] is False
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert list(row) == CHSH_HEADER.split(",")
        meta = doc["meta"]
        assert meta["command"] == "chsh"
        assert (meta["seed"], meta["numpy"], meta["chunk_size"]) == (
            14, np.__version__, DEFAULT_CHUNK_SIZE,
        )
        assert {k: meta["params"][k] for k in ("kind", "eta", "v")} == {
            "kind": "line", "eta": 0.9, "v": 0.86,
        }

    def test_degree_angles_match_radian_default(self):
        base = run_cli(
            "chsh", "--eta", "0.7", "--vis", "1.0", "--model", "sin",
            "--pairs", "2000", "--seed", "3", "--format", "json",
        )
        deg = run_cli(
            "chsh", "--eta", "0.7", "--vis", "1.0", "--model", "sin",
            "--pairs", "2000", "--seed", "3", "--format", "json",
            "--angles", "0,90,45,135", "--degrees",
        )
        assert deg.returncode == 0
        assert json.loads(deg.stdout)["s_oracle"] == json.loads(base.stdout)["s_oracle"]

    def test_degrees_requires_angles(self):
        res = run_cli(
            "chsh", "--eta", "0.7", "--vis", "1.0", "--model", "sin",
            "--pairs", "2000", "--degrees",
        )
        assert res.returncode == 2
        assert "requires --angles" in res.stderr

    @pytest.mark.parametrize("angles, value", [("nan,0,0,0", "nan"), ("0,inf,0,0", "inf")])
    def test_non_finite_angle_is_one_error_line(self, capsys, angles, value):
        status = cli.main([
            "chsh", "--eta", "0.7", "--vis", "0.8", "--pairs", "100", "--angles", angles,
        ])
        res = capsys.readouterr()
        assert status == 2
        assert res.out == ""
        assert res.err == f"error: angle_1 must be finite, got {value}\n"

    @pytest.mark.parametrize("eta, vis, pairs, empty", [
        ("0.001", "0", "10", 4), ("0.05", "0.3", "100", 3),
    ])
    def test_no_coincidences_is_inconclusive_not_an_error(self, eta, vis, pairs, empty):
        res = run_cli("chsh", "--eta", eta, "--vis", vis, "--pairs", pairs)
        assert res.returncode == 3
        assert res.stderr == ""
        lines = res.stdout.splitlines()
        assert lines[0] == CHSH_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert sum(row[3:5] == ["nan", "nan"] for row in rows) == empty
        assert all(row[6:8] == ["nan", "nan"] and row[10] == "false" for row in rows)


class TestRegion:
    def test_two_by_two_corners(self, tmp_path):
        out = tmp_path / "region.csv"
        res = run_cli(
            "region", "--eta-steps", "2", "--vis-steps", "2", "--out", str(out)
        )
        assert res.returncode == 0
        assert res.stdout.strip() == f"wrote 4 rows to {out}"
        assert out.read_text() == (
            REGION_HEADER + "\n"
            "0.5,0.0,true,true,false,false\n"
            "0.5,1.0,true,true,false,false\n"
            "1.0,0.0,true,true,false,false\n"
            "1.0,1.0,false,false,true,false\n"
        )

    def test_json_format(self, tmp_path):
        out = tmp_path / "region.json"
        res = run_cli(
            "region", "--eta-steps", "2", "--vis-steps", "2",
            "--format", "json", "--out", str(out),
        )
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["command"] == "region"
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert list(row) == REGION_HEADER.split(",")
        assert doc["rows"][3] == {
            "eta": 1.0, "v": 1.0, "sin_feasible": False,
            "line_feasible": False, "chsh_violated": True, "gap": False,
        }

    def test_unwritable_out_is_an_error_not_a_traceback(self, tmp_path):
        res = run_cli(
            "region", "--eta-steps", "2", "--vis-steps", "2",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1

    def test_rejects_single_step(self, tmp_path):
        res = run_cli(
            "region", "--eta-steps", "1", "--vis-steps", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert res.returncode == 2


class TestVerify:
    def test_a_failed_check_exits_one(self, monkeypatch, capsys):
        failed = CheckResult("some-check", deviation=2.0, threshold=1.0, passed=False)
        monkeypatch.setattr(cli, "verify_suite", lambda **kwargs: VerifyReport((failed,)))
        assert cli.main(["verify", "--pairs", "100000"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "1 of 1 checks FAILED"

    @pytest.mark.parametrize("check, target, error", [
        ("frontier-constants", "max_visibility", InfeasibleParameters),
        ("measure-shift-invariance", "measure_many", InvalidConfig),
        ("quadrature-cells-vs-closed-form", "outcome_probabilities", SingletLhvError),
    ])
    def test_a_raising_check_is_its_own_fail(self, monkeypatch, capsys, check, target, error):
        def raises(*args, **kwargs):
            raise error("broken on purpose")

        monkeypatch.setattr(experiments, target, raises)
        assert cli.main(["verify", "--pairs", "100000"]) == 1
        *lines, summary = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if not line.startswith("PASS ")]
        assert len(lines) == 9 and len(failed) == 1
        assert failed[0].split()[:3] == ["FAIL", check, "deviation=inf"]
        assert failed[0].endswith(f"(raised {error.__name__}: broken on purpose)")
        assert summary == "1 of 9 checks FAILED"

    def test_rejects_tiny_budget(self):
        res = run_cli("verify", "--pairs", "10")
        assert res.returncode == 2
        assert "at least 100000" in res.stderr
        res = run_cli("verify", "--pairs", "100000", "--seed", "-1")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.stderr


def test_no_arguments_prints_usage():
    res = run_cli()
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()


@pytest.mark.parametrize("command", [
    ["sweep", "--eta", "0.7", "--vis", "0.8", "--steps", "25", "--pairs", "1000000"],
    ["region", "--eta-steps", "101", "--vis-steps", "101"],
])
@pytest.mark.parametrize("out", ["missing/x.csv", ".", ""])
def test_unwritable_out_fails_before_sampling(tmp_path, monkeypatch, capsys, command, out):
    def called(*args, **kwargs):
        raise AssertionError("sampled or scanned before checking --out")

    monkeypatch.setattr(cli, "theta_sweep", called)
    monkeypatch.setattr(cli, "region_scan", called)
    monkeypatch.chdir(tmp_path)
    status = cli.main(command + ["--out", out])
    res = capsys.readouterr()
    assert status == 2
    assert res.err.startswith("error: ")
    assert len(res.err.splitlines()) == 1
    assert res.out == ""
    assert list(tmp_path.iterdir()) == []


RUN_COMMANDS = {
    "sweep": ["sweep", "--eta", "0.7", "--vis", "0.8", "--steps", "3", "--pairs", "150000",
              "--seed", "4", "--out", "sweep.csv"],
    "chsh": ["chsh", "--eta", "0.9", "--vis", "0.5", "--pairs", "150000"],
    "verify": ["verify", "--pairs", "100000", "--seed", "42"],
}


@pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
def test_worker_count_never_changes_output(tmp_path, monkeypatch, capsys, command):
    # n workers are the caller and a pool of n - 1 threads, so --workers 2
    # and 3 reach pools of 1 and 2.  Verify's determinism check also runs at
    # 3 and 7 workers, pools of 2 and 3, whatever --workers says.
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    monkeypatch.chdir(tmp_path)
    outputs = []
    for workers in (1, 2, 3):
        pools.clear()
        assert cli.main(RUN_COMMANDS[command] + ["--workers", str(workers)]) == 0
        assert (workers - 1 in pools) == (workers > 1)
        csv = (tmp_path / "sweep.csv").read_bytes() if command == "sweep" else b""
        outputs.append((capsys.readouterr().out, csv))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0]


@pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
@pytest.mark.parametrize("value", ["-1", "1.5", "two"])
def test_bad_worker_count_is_one_error_line(tmp_path, monkeypatch, capsys, command, value):
    monkeypatch.chdir(tmp_path)
    status = cli.main(RUN_COMMANDS[command] + ["--workers", value])
    res = capsys.readouterr()
    assert status == 2
    assert res.err.startswith("error: --workers must be an integer")
    assert len(res.err.splitlines()) == 1
    assert res.out == ""
    assert list(tmp_path.iterdir()) == []
