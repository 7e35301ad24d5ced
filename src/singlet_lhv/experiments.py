"""High-level drivers: angle sweeps, CHSH runs, region maps, verification.

Every driver is deterministic given its seed.  Child runs consume seeds
derived from the master seed with derive_seed, and each emitted row records
the child seed it actually used, so any row can be reproduced in isolation
without rerunning the whole experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import (
    STANDARD_CHSH_ANGLES,
    ChshAngles,
    RegionVerdict,
    chsh_bound,
    chsh_value,
    classify_region,
    correlation,
    joint_table,
    max_visibility,
    nonideal_probs,
    qm_probs,
)
from .errors import DegeneratePoint, EmptyTally, InfeasibleParameters
from .model import (
    SQRT2,
    TWO_PI,
    DetectorSide,
    ModelParams,
    PatternKind,
    measure_many,
    solve_params,
    unsymmetrized_marginals,
)
from .montecarlo import (
    FIVE_SIGMA,
    RunConfig,
    Tally,
    _check_int,
    binomial_se,
    correlation_se,
    derive_seed,
    estimate,
    run,
    run_many,
    zscore,
)
from .quadrature import outcome_probabilities

MIN_VERIFY_PAIRS = 100_000


@dataclass(frozen=True)
class SweepRow:
    """One relative angle: sampled cells and correlation next to the oracle."""

    theta: float
    p_pp_mc: float
    p_pm_mc: float
    p_mp_mc: float
    p_mm_mc: float
    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float
    corr_mc: float
    corr: float
    n_pairs: int
    seed: int


def theta_sweep(
    params: ModelParams,
    n_steps: int = 25,
    pairs_per_step: int = 1_000_000,
    seed: int = 42,
    workers: int | None = None,
) -> list[SweepRow]:
    """Sample the coincidence statistics on a uniform theta grid over [0, pi].

    Station one stays at angle 0; station two takes each grid angle.  Row i
    runs with child seed derive_seed(seed, i).  The rows are one run_many
    batch.
    """
    n_steps = _check_int("n_steps", n_steps, lo=2)
    pairs_per_step = _check_int("pairs_per_step", pairs_per_step, lo=1)
    configs = [
        RunConfig(
            params=params, angle_1=0.0, angle_2=i * math.pi / (n_steps - 1),
            n_pairs=pairs_per_step, seed=derive_seed(seed, i),
        )
        for i in range(n_steps)
    ]
    rows = []
    for cfg, tally in zip(configs, run_many(configs, workers=workers)):
        theta = cfg.angle_2
        n = tally.n_total
        try:
            corr_mc = estimate(tally).corr
        except EmptyTally:
            corr_mc = math.nan
        (p_mm, _, p_mp), _, (p_pm, _, p_pp) = joint_table(params, theta).tolist()
        rows.append(SweepRow(
            theta=theta,
            p_pp_mc=tally.n_pp / n, p_pm_mc=tally.n_pm / n,
            p_mp_mc=tally.n_mp / n, p_mm_mc=tally.n_mm / n,
            p_pp=p_pp, p_pm=p_pm, p_mp=p_mp, p_mm=p_mm,
            corr_mc=corr_mc,
            corr=correlation(theta, params.v, params.kind),
            n_pairs=pairs_per_step,
            seed=cfg.seed,
        ))
    return rows


@dataclass(frozen=True)
class SweepGate:
    """Five-sigma verdict over a sweep's correlation column.

    passed means every row was tested and within five sigma.  inconclusive
    means no tested row failed but some row had no coincidences, so its
    correlation could not be tested: too little data, not a failed gate.
    """

    max_abs_deviation: float
    max_sigma: float
    passed: bool
    inconclusive: bool


def sweep_gate(rows: list[SweepRow], params: ModelParams) -> SweepGate:
    """Compare sampled correlations to the oracle at five sigma per row.

    The predicted standard error uses the oracle correlation and the
    expected coincidence count: n * eta**2, or n * 2a/pi for the
    unsymmetrized kind, whose station one never fires alone.  Rows whose
    predicted error is zero (full visibility at theta = 0 or pi) must match
    exactly.  A row without coincidences (corr_mc is NaN) is untested.
    """
    unsym = params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL
    worst_dev = 0.0
    worst_sigma = 0.0
    ok = True
    untested = False
    for row in rows:
        if math.isnan(row.corr_mc):
            untested = True
            continue
        worst_dev = max(worst_dev, abs(row.corr_mc - row.corr))
        if unsym:
            n_coinc = row.n_pairs * unsymmetrized_marginals(params.a, params.b)[0]
        else:
            n_coinc = row.n_pairs * params.eta * params.eta
        if n_coinc <= 0.0:
            ok = False
            continue
        z = zscore(row.corr_mc, row.corr, correlation_se(row.corr, n_coinc))
        if math.isfinite(z):
            worst_sigma = max(worst_sigma, z)
        ok = ok and z <= FIVE_SIGMA
    return SweepGate(
        max_abs_deviation=worst_dev,
        max_sigma=worst_sigma,
        passed=ok and not untested,
        inconclusive=ok and untested,
    )


@dataclass(frozen=True)
class ChshSetting:
    """One of the four setting pairs with its sampled correlation."""

    label: str
    angle_1: float
    angle_2: float
    corr_mc: float
    se: float
    seed: int


@dataclass(frozen=True)
class ChshReport:
    angles: ChshAngles
    settings: tuple[ChshSetting, ...]
    s_mc: float
    se_s: float
    s_oracle: float
    bound: float
    violated_mc: bool


def chsh_experiment(
    params: ModelParams,
    angles: ChshAngles = STANDARD_CHSH_ANGLES,
    pairs_per_setting: int = 1_000_000,
    seed: int = 42,
    workers: int | None = None,
) -> ChshReport:
    """Estimate S from four runs, one run_many batch, and compare to the
    efficiency-adjusted bound.

    violated_mc applies the package-wide five-sigma convention: the sampled
    S must exceed the bound by five combined standard errors, so runs at
    frontier parameters report no violation instead of a coin flip.  A
    setting without coincidences has NaN corr_mc and se, and so have s_mc
    and se_s: too little data, never a violation.
    """
    pairs_per_setting = _check_int("pairs_per_setting", pairs_per_setting, lo=1)
    pairs = (
        ("ac", angles.phi_a, angles.phi_c),
        ("ad", angles.phi_a, angles.phi_d),
        ("bc", angles.phi_b, angles.phi_c),
        ("bd", angles.phi_b, angles.phi_d),
    )
    configs = [
        RunConfig(
            params=params, angle_1=a1, angle_2=a2,
            n_pairs=pairs_per_setting, seed=derive_seed(seed, i),
        )
        for i, (_, a1, a2) in enumerate(pairs)
    ]
    settings = []
    for (label, a1, a2), cfg, tally in zip(pairs, configs, run_many(configs, workers=workers)):
        try:
            est = estimate(tally)
            corr_mc, se = est.corr, est.corr_se
        except EmptyTally:
            corr_mc = se = math.nan
        settings.append(ChshSetting(
            label=label, angle_1=a1, angle_2=a2, corr_mc=corr_mc, se=se, seed=cfg.seed,
        ))
    e = {s.label: s.corr_mc for s in settings}
    s_mc = abs(e["ac"] - e["ad"]) + abs(e["bc"] + e["bd"])
    se_s = math.sqrt(sum(s.se * s.se for s in settings))
    bound = chsh_bound(params.eta)
    return ChshReport(
        angles=angles,
        settings=tuple(settings),
        s_mc=s_mc,
        se_s=se_s,
        s_oracle=chsh_value(params.v, params.kind, angles),
        bound=bound,
        violated_mc=s_mc > bound + FIVE_SIGMA * se_s,
    )


def region_scan(eta_steps: int = 25, v_steps: int = 25) -> list[RegionVerdict]:
    """Classify a rectangular grid of (eta, v) points, eta-major order.

    The efficiency grid is i/eta_steps for i = 1..eta_steps (zero is skipped
    as degenerate); the visibility grid is j/(v_steps - 1) for
    j = 0..v_steps - 1, so both endpoints appear.
    """
    eta_steps = _check_int("eta_steps", eta_steps, lo=2)
    v_steps = _check_int("v_steps", v_steps, lo=2)
    rows = []
    for i in range(1, eta_steps + 1):
        eta = i / eta_steps
        for j in range(v_steps):
            v = j / (v_steps - 1)
            rows.append(classify_region(eta, v))
    return rows


@dataclass(frozen=True)
class CheckResult:
    """One verification item: a deviation against its allowed threshold."""

    name: str
    deviation: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)


def _result(name: str, deviation: float, threshold: float, note: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        deviation=float(deviation),
        threshold=float(threshold),
        passed=bool(deviation <= threshold),
        note=note,
    )


def _exact_checks() -> list[CheckResult]:
    ideal = nonideal_probs(1.1, 1.0, 1.0, PatternKind.SYMMETRIZED_SINUSOIDAL)
    dev = max(
        abs(x - y) for x, y in zip(ideal.as_tuple(), qm_probs(1.1).as_tuple())
    )
    out = [_result("nonideal-reduces-to-qm", dev, 1e-12)]

    checks = [
        abs(max_visibility(1.0, PatternKind.SYMMETRIZED_SINUSOIDAL) - 2.0 / math.pi),
        abs(max_visibility(1.0, PatternKind.SYMMETRIZED_STAIRCASE) - 1.0 / SQRT2),
        abs(chsh_bound(analytic.CHSH_CRITICAL_EFFICIENCY) - 2.0 * SQRT2),
        abs(analytic.bell_generalized_slack(
            analytic.BELL_CRITICAL_EFFICIENCY, 1.0,
            math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi / 3.0,
        )),
        abs(analytic.marginal_prob(0.7) - 0.35),
    ]
    eta_star = analytic.FULL_VISIBILITY_MAX_EFFICIENCY
    p = solve_params(eta_star, 1.0, PatternKind.SYMMETRIZED_SINUSOIDAL)
    checks.append(abs(p.a - p.b))
    out.append(_result("frontier-constants", max(checks), 1e-12))

    mismatches = 0
    etas = list(np.linspace(0.0, 1.0, 21)) + [
        analytic.CHSH_CRITICAL_EFFICIENCY,
        analytic.FULL_VISIBILITY_MAX_EFFICIENCY,
        analytic.BELL_CRITICAL_EFFICIENCY,
    ]
    vs = list(np.linspace(0.0, 1.0, 21)) + [
        analytic.FULL_EFFICIENCY_MAX_VISIBILITY, 1.0 / SQRT2,
    ]
    for eta in etas:
        for v in vs:
            verdict = classify_region(float(eta), float(v))
            for kind, flag in (
                (PatternKind.SYMMETRIZED_SINUSOIDAL, verdict.sin_feasible),
                (PatternKind.SYMMETRIZED_STAIRCASE, verdict.line_feasible),
            ):
                solvable = True
                try:
                    solve_params(float(eta), float(v), kind)
                except (InfeasibleParameters, DegeneratePoint):
                    solvable = False
                if solvable != flag:
                    mismatches += 1
    out.append(_result("solver-classifier-agreement", mismatches, 0.0))
    return out


def _shift_invariance_check(seed: int) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = 512
    phi = rng.random(n) * TWO_PI
    r = rng.random(n)
    mismatches = 0
    p = solve_params(0.7, 0.8, PatternKind.SYMMETRIZED_SINUSOIDAL)
    for alpha in (0.0, 0.3, math.pi / 3.0, 2.2, -1.7, 9.0):
        shifted = np.mod(phi - alpha, TWO_PI)
        shifted[shifted >= TWO_PI] = 0.0
        for side in (DetectorSide.ONE, DetectorSide.TWO):
            direct = measure_many(phi, r, alpha, side, p)
            base = measure_many(shifted, r, 0.0, side, p)
            mismatches += int(np.count_nonzero(direct != base))
    return _result("measure-shift-invariance", mismatches, 0.0)


def _quadrature_check() -> CheckResult:
    """The largest cell error of the integrated table against joint_table."""
    dev = 0.0
    for kind, a1, a2 in (
        (PatternKind.SYMMETRIZED_SINUSOIDAL, 0.3, 0.3 + math.pi / 3.0),
        (PatternKind.SYMMETRIZED_STAIRCASE, 0.1, 2.1),
    ):
        p = solve_params(0.7, 0.8, kind)
        table = outcome_probabilities(p, a1, a2).table
        dev = max(dev, float(np.max(np.abs(table - joint_table(p, a2 - a1)))))
    return _result("quadrature-cells-vs-closed-form", dev, 1e-9)


def _sampled_checks(sample) -> list[CheckResult]:
    out = []
    base = 1000

    p = solve_params(0.75, 1.0, PatternKind.SYMMETRIZED_SINUSOIDAL)
    tally = sample(p, 1.1, 1.1, base)
    out.append(_result(
        "anticorrelation-exact-at-equal-angles",
        tally.n_pp + tally.n_mm, 0.0,
        note=f"n_pp={tally.n_pp} n_mm={tally.n_mm}",
    ))

    p = solve_params(0.7, 0.8, PatternKind.SYMMETRIZED_STAIRCASE)
    theta = 5.0 * math.pi / 3.0
    t_neg = sample(p, 0.0, theta, base + 2)
    n = t_neg.n_total
    want = nonideal_probs(theta, p.eta, p.v, p.kind).as_tuple()
    dev = max(zscore(k / n, q, binomial_se(q, n)) for k, q in zip(t_neg.cells, want))
    out.append(_result("wraparound-theta-5sigma", dev, FIVE_SIGMA))

    p = solve_params(0.7, 1.0, PatternKind.UNSYMMETRIZED_SINUSOIDAL)
    theta = math.pi / 3.0
    tally = sample(p, 0.4, 0.4 + theta, base + 3)
    m1, m2 = unsymmetrized_marginals(p.a, p.b)
    n = tally.n_total
    est = estimate(tally)
    e_oracle = correlation(theta, p.v, p.kind)
    dev = max(
        zscore(est.eta_1, m1, binomial_se(m1, n)),
        zscore(est.eta_2, m2, binomial_se(m2, n)),
        zscore(est.corr, e_oracle, correlation_se(e_oracle, tally.n_coincidences)),
    )
    out.append(_result("unsym-marginals-and-corr-5sigma", dev, FIVE_SIGMA))
    return out


def _determinism_check(seed: int) -> CheckResult:
    p = solve_params(0.7, 0.8, PatternKind.SYMMETRIZED_SINUSOIDAL)
    cfg = RunConfig(
        params=p, angle_1=0.2, angle_2=1.5,
        n_pairs=200_000, seed=derive_seed(seed, 2000), chunk_size=4096,
    )
    t1 = run(cfg)
    diffs = int(t1 != run(cfg)) + int(t1 != run(cfg, workers=3)) + int(t1 != run(cfg, workers=7))
    return _result("run-determinism-across-workers", diffs, 0.0)


def verify_suite(
    pairs_budget: int = 1_000_000, seed: int = 42, workers: int | None = None
) -> VerifyReport:
    """Run the package's binding checks.

    Each check is the only one to fail on some hand-made mutant, or keeps
    one named in mutants/kill_matrix.json: exact identities at tight float
    tolerances, quadrature against closed forms at 1e-9, and Monte Carlo
    statistics at five sigma with the given per-run budget.  Deterministic
    for a fixed seed.
    """
    pairs_budget = _check_int("pairs_budget", pairs_budget, lo=MIN_VERIFY_PAIRS)
    seed = _check_int("seed", seed)

    def sample(params, angle_1, angle_2, index) -> Tally:
        cfg = RunConfig(
            params=params, angle_1=angle_1, angle_2=angle_2,
            n_pairs=pairs_budget, seed=derive_seed(seed, index),
        )
        return run(cfg, workers=workers)

    checks = [
        *_exact_checks(),
        _shift_invariance_check(seed),
        _quadrature_check(),
        *_sampled_checks(sample),
        _determinism_check(seed),
    ]
    return VerifyReport(checks=tuple(checks))
