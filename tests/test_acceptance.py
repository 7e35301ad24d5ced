"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single summary line when it passes (visible under
pytest -s); the pytest -v verdict for each test is the official pass/fail
line for its criterion.  Monte Carlo tests hold the total budget near
2e8 simulated pairs, which keeps the whole module in the tens of seconds.
"""

import math
import subprocess
import sys

import pytest

from singlet_lhv import (
    BELL_CRITICAL_EFFICIENCY,
    CHSH_CRITICAL_EFFICIENCY,
    FULL_VISIBILITY_MAX_EFFICIENCY,
    PatternKind,
    RunConfig,
    bell_generalized_slack,
    chsh_experiment,
    classify_region,
    estimate,
    max_visibility,
    nonideal_probs,
    region_scan,
    run,
    solve_params,
    sweep_gate,
    theta_sweep,
)
from singlet_lhv.montecarlo import FIVE_SIGMA, binomial_se, correlation_se, zscore
from singlet_lhv.quadrature import outcome_probabilities

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE

WORKERS = 4
CLI = [sys.executable, "-m", "singlet_lhv.cli"]


def test_criterion_01_coincidence_probabilities():
    # spot value quoted to six decimals
    assert nonideal_probs(math.pi / 3.0, 0.7, 1.0, SIN).p_pp == pytest.approx(
        0.061250, abs=5e-7
    )

    n = 10_000_000
    thetas = (0.0, math.pi / 4.0, math.pi / 3.0, math.pi / 2.0,
              3.0 * math.pi / 4.0, math.pi)
    worst = 0.0
    for k, (eta, v) in enumerate(((0.7, 1.0), (0.7, 0.8), (0.5, 0.5))):
        params = solve_params(eta, v, SIN)
        for j, theta in enumerate(thetas):
            cfg = RunConfig(params=params, angle_1=0.0, angle_2=theta,
                            n_pairs=n, seed=7_700_000 + 100 * k + j)
            tally = run(cfg, workers=WORKERS)
            oracle = nonideal_probs(theta, eta, v, SIN)
            cells = (tally.n_pp, tally.n_pm, tally.n_mp, tally.n_mm)
            for count, want in zip(cells, oracle.as_tuple()):
                # a zero-variance cell must match exactly: its z is 0 or inf
                z = zscore(count / n, want, binomial_se(want, n))
                assert z <= FIVE_SIGMA
                worst = max(worst, z)
    print(f"criterion 01 PASS: 72 cells across 18 configs, worst {worst:.2f} sigma")


def test_criterion_02_perfect_anticorrelation():
    n = 10_000_000
    for kind in (SIN, LINE):
        params = solve_params(0.7, 1.0, kind)
        cfg = RunConfig(params=params, angle_1=0.35, angle_2=0.35,
                        n_pairs=n, seed=7_800_001)
        tally = run(cfg, workers=WORKERS)
        assert tally.n_pp == 0
        assert tally.n_mm == 0
        assert tally.n_pm + tally.n_mp > 0
    print("criterion 02 PASS: zero (+,+) and (-,-) in 1e7 pairs for both kinds")


def test_criterion_03_marginals_and_independence():
    eta, v = 0.7, 0.8
    params = solve_params(eta, v, SIN)
    angle_pairs = ((0.0, 0.9), (0.4, 1.7), (2.2, 0.1), (5.5, 3.3))
    worst = 0.0
    n = 2_000_000
    for j, (a1, a2) in enumerate(angle_pairs):
        cfg = RunConfig(params=params, angle_1=a1, angle_2=a2,
                        n_pairs=n, seed=7_900_000 + j)
        est = estimate(run(cfg, workers=WORKERS))
        # standard errors from the sampled rates, as estimate() reports them
        for got, want in ((est.eta_1, eta), (est.eta_2, eta),
                          (est.coincidence_rate, eta * eta)):
            z = zscore(got, want, binomial_se(got, n))
            assert z <= FIVE_SIGMA
            worst = max(worst, z)
    print(f"criterion 03 PASS: per-side efficiency and coincidence rate, "
          f"worst {worst:.2f} sigma")


def test_criterion_04_conditional_correlation():
    eta, v = 0.7, 0.8
    params = solve_params(eta, v, SIN)
    rows = theta_sweep(params, n_steps=25, pairs_per_step=1_000_000,
                       seed=8_000_000, workers=WORKERS)
    gate = sweep_gate(rows, params)
    assert gate.passed
    assert gate.max_sigma <= FIVE_SIGMA

    row0 = rows[0]
    assert row0.theta == 0.0
    se0 = correlation_se(v, row0.n_pairs * eta * eta)
    assert zscore(-row0.corr_mc, v, se0) <= FIVE_SIGMA
    print(f"criterion 04 PASS: 25-point sweep worst {gate.max_sigma:.2f} sigma, "
          f"recovered v = {-row0.corr_mc:.5f}")


def test_criterion_05_frontier_constants():
    assert abs(max_visibility(1.0, SIN) - 2.0 / math.pi) <= 1e-12
    assert abs(FULL_VISIBILITY_MAX_EFFICIENCY - 4.0 / (2.0 + math.pi)) <= 1e-12
    assert abs(BELL_CRITICAL_EFFICIENCY - 8.0 / 9.0) <= 1e-12
    assert abs(CHSH_CRITICAL_EFFICIENCY - 2.0 * (math.sqrt(2.0) - 1.0)) <= 1e-12
    print("criterion 05 PASS: 2/pi, 4/(2+pi), 8/9, 2(sqrt(2)-1) all within 1e-12")


def test_criterion_06_staircase_chsh_frontier():
    crit = CHSH_CRITICAL_EFFICIENCY
    for i in range(1, 101):
        eta = crit + i * (1.0 - crit) / 100.0
        want = (4.0 / eta - 2.0) / (2.0 * math.sqrt(2.0))
        assert abs(max_visibility(eta, LINE) - want) <= 1e-12

    eta = 0.9
    params = solve_params(eta, max_visibility(eta, LINE), LINE)
    rep = chsh_experiment(params, pairs_per_setting=4_000_000,
                          seed=8_100_000, workers=WORKERS)
    z = zscore(rep.s_mc, rep.bound, rep.se_s)
    assert z <= FIVE_SIGMA
    assert rep.s_mc <= rep.bound + FIVE_SIGMA * rep.se_s
    assert not rep.violated_mc
    print(f"criterion 06 PASS: staircase frontier tracks (4/eta-2)/(2*sqrt(2)); "
          f"S = {rep.s_mc:.4f} vs bound {rep.bound:.4f} "
          f"({z:.2f} sigma)")


def test_criterion_07_gap_region_and_scan_determinism(tmp_path):
    verdict = classify_region(1.0, 0.65)
    assert verdict.gap
    assert verdict.line_feasible
    assert not verdict.sin_feasible

    assert region_scan(101, 101) == region_scan(101, 101)

    files = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = subprocess.run(
            CLI + ["region", "--eta-steps", "101", "--vis-steps", "101",
                   "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    assert files[0].count(b"\n") == 101 * 101 + 1
    print("criterion 07 PASS: (1.0, 0.65) in gap, 101x101 scan byte-identical")


def test_criterion_08_quadrature_oracle():
    worst = 0.0
    for kind in (SIN, LINE):
        params = solve_params(0.7, 0.8, kind)
        for base, theta in ((0.0, math.pi / 3.0), (0.3, 1.9)):
            table = outcome_probabilities(params, base, base + theta)
            oracle = nonideal_probs(theta, 0.7, 0.8, kind)
            for got, want in zip(
                table.prob_quad().as_tuple(), oracle.as_tuple()
            ):
                assert abs(got - want) <= 1e-6
                worst = max(worst, abs(got - want))
    print(f"criterion 08 PASS: integration matches closed forms, "
          f"worst cell error {worst:.2e}")


def test_criterion_09_determinism(tmp_path):
    args = CLI + ["sweep", "--eta", "0.7", "--vis", "0.8", "--model", "sin",
                  "--steps", "5", "--pairs", "50000", "--seed", "42"]
    blobs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = subprocess.run(args + ["--out", str(out)],
                             capture_output=True, text=True)
        assert res.returncode == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    params = solve_params(0.7, 0.8, SIN)
    cfg = RunConfig(params=params, angle_1=0.0, angle_2=1.1,
                    n_pairs=300_000, seed=4242)
    serial = run(cfg, workers=None)
    assert run(cfg, workers=3) == serial
    assert run(cfg, workers=8) == serial
    assert theta_sweep(params, n_steps=4, pairs_per_step=50_000, seed=6,
                       workers=3) == theta_sweep(
        params, n_steps=4, pairs_per_step=50_000, seed=6, workers=None
    )
    print("criterion 09 PASS: byte-identical CSV reruns, "
          "worker count never changes tallies")


def test_criterion_10_generalized_bell_inequality():
    angles = (math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi / 3.0)
    at_crit = bell_generalized_slack(8.0 / 9.0, 1.0, *angles)
    assert abs(at_crit) <= 1e-12
    above = bell_generalized_slack(0.95, 1.0, *angles)
    assert above < 0.0
    print(f"criterion 10 PASS: slack 0 at eta = 8/9, {above:.4f} at eta = 0.95")
