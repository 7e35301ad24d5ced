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
    ProbQuad,
    RegionVerdict,
    chsh_bound,
    chsh_value,
    classify_region,
    correlation,
    joint_table,
    line_g,
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
    boundary,
    is_feasible,
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
    runs with child seed derive_seed(seed, i).
    """
    n_steps = _check_int("n_steps", n_steps, lo=2)
    pairs_per_step = _check_int("pairs_per_step", pairs_per_step, lo=1)
    rows = []
    for i in range(n_steps):
        theta = i * math.pi / (n_steps - 1)
        child = derive_seed(seed, i)
        cfg = RunConfig(
            params=params, angle_1=0.0, angle_2=theta,
            n_pairs=pairs_per_step, seed=child,
        )
        tally = run(cfg, workers=workers)
        n = tally.n_total
        try:
            corr_mc = estimate(tally).corr
        except EmptyTally:
            corr_mc = math.nan
        oracle = nonideal_probs(theta, params.eta, params.v, params.kind)
        rows.append(SweepRow(
            theta=theta,
            p_pp_mc=tally.n_pp / n, p_pm_mc=tally.n_pm / n,
            p_mp_mc=tally.n_mp / n, p_mm_mc=tally.n_mm / n,
            p_pp=oracle.p_pp, p_pm=oracle.p_pm,
            p_mp=oracle.p_mp, p_mm=oracle.p_mm,
            corr_mc=corr_mc,
            corr=correlation(theta, params.v, params.kind),
            n_pairs=pairs_per_step,
            seed=child,
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
    expected coincidence count n * eta**2.  Rows whose predicted error is
    zero (full visibility at theta = 0 or pi) must match exactly.  A row
    without coincidences (corr_mc is NaN) is untested.
    """
    worst_dev = 0.0
    worst_sigma = 0.0
    ok = True
    untested = False
    for row in rows:
        if math.isnan(row.corr_mc):
            untested = True
            continue
        worst_dev = max(worst_dev, abs(row.corr_mc - row.corr))
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
    """Estimate S from four runs and compare to the efficiency-adjusted bound.

    violated_mc applies the package-wide five-sigma convention: the sampled
    S must exceed the bound by five combined standard errors, so runs at
    frontier parameters report no violation instead of a coin flip.
    """
    pairs_per_setting = _check_int("pairs_per_setting", pairs_per_setting, lo=1)
    pairs = (
        ("ac", angles.phi_a, angles.phi_c),
        ("ad", angles.phi_a, angles.phi_d),
        ("bc", angles.phi_b, angles.phi_c),
        ("bd", angles.phi_b, angles.phi_d),
    )
    settings = []
    for i, (label, a1, a2) in enumerate(pairs):
        child = derive_seed(seed, i)
        cfg = RunConfig(
            params=params, angle_1=a1, angle_2=a2,
            n_pairs=pairs_per_setting, seed=child,
        )
        est = estimate(run(cfg, workers=workers))
        settings.append(ChshSetting(
            label=label, angle_1=a1, angle_2=a2,
            corr_mc=est.corr, se=est.corr_se, seed=child,
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


def _analytic_checks() -> list[CheckResult]:
    out = []
    thetas = np.linspace(-2.0 * math.pi, 3.0 * math.pi, 1001)

    dev = max(abs(qm_probs(t).total() - 1.0) for t in thetas)
    out.append(_result("qm-normalization", dev, 1e-12))

    q0, qpi = qm_probs(0.0), qm_probs(math.pi)
    dev = max(abs(q0.p_pp), abs(q0.p_pm - 0.5), abs(qpi.p_pp - 0.5), abs(qpi.p_pm))
    out.append(_result("qm-endpoints", dev, 1e-15))

    points = [(0.7, 1.0), (0.7, 0.8), (1.0, 0.6), (0.3, 0.25), (1.0, 0.0)]
    dev = 0.0
    cdev = 0.0
    for kind in (PatternKind.SYMMETRIZED_SINUSOIDAL, PatternKind.SYMMETRIZED_STAIRCASE):
        for eta, v in points:
            for t in thetas[::25]:
                q = nonideal_probs(t, eta, v, kind)
                dev = max(dev, abs(q.total() - eta * eta))
                if eta > 0.0:
                    e_cells = (q.p_pp - q.p_pm - q.p_mp + q.p_mm) / (eta * eta)
                    cdev = max(cdev, abs(e_cells - correlation(t, v, kind)))
    out.append(_result("nonideal-normalization", dev, 1e-12))
    out.append(_result("correlation-consistency", cdev, 1e-12))

    ideal = nonideal_probs(1.1, 1.0, 1.0, PatternKind.SYMMETRIZED_SINUSOIDAL)
    dev = max(
        abs(x - y) for x, y in zip(ideal.as_tuple(), qm_probs(1.1).as_tuple())
    )
    out.append(_result("nonideal-reduces-to-qm", dev, 1e-12))

    knots = [0.0, 0.25 * math.pi, 0.75 * math.pi, math.pi]
    dev = max(abs(line_g(t) - math.cos(t)) for t in knots)
    out.append(_result("line-knots-match-cos", dev, 1e-12))

    grid = np.linspace(0.0, math.pi, 20001)
    gap = float(np.max(np.abs(line_g(grid) - np.cos(grid))))
    out.append(_result("line-cos-gap", gap, 0.076, note=f"max gap {gap:.6f}"))

    s_outer = (line_g(0.25 * math.pi) - line_g(0.0)) / (0.25 * math.pi)
    s_mid = (line_g(0.75 * math.pi) - line_g(0.25 * math.pi)) / (0.5 * math.pi)
    dev = abs(abs(s_outer) / abs(s_mid) - (SQRT2 - 1.0))
    out.append(_result("line-slope-ratio", dev, 1e-12))

    sample = np.linspace(-7.0, 7.0, 501)
    dev = float(np.max(np.abs(line_g(sample) - line_g(-sample))))
    dev = max(dev, float(np.max(np.abs(line_g(sample) - line_g(sample + 2.0 * math.pi)))))
    out.append(_result("line-even-periodic", dev, 1e-12))
    return out


def _frontier_checks() -> list[CheckResult]:
    out = []
    dev = 0.0
    for eta in np.linspace(0.05, 1.0, 96):
        for kind in (PatternKind.SYMMETRIZED_SINUSOIDAL, PatternKind.SYMMETRIZED_STAIRCASE):
            v = max_visibility(float(eta), kind)
            s = chsh_value(v, kind)
            dev = max(dev, s - chsh_bound(float(eta)))
    out.append(_result("chsh-within-bound", dev, 1e-12))

    dev = 0.0
    for eta in np.linspace(0.83, 1.0, 64):
        v = max_visibility(float(eta), PatternKind.SYMMETRIZED_STAIRCASE)
        if v >= 1.0:
            continue
        s = chsh_value(v, PatternKind.SYMMETRIZED_STAIRCASE)
        dev = max(dev, abs(s - chsh_bound(float(eta))))
    out.append(_result("staircase-frontier-saturates-chsh", dev, 1e-12))

    dev = 0.0
    prev = None
    for eta in np.linspace(0.05, 1.0, 2001):
        v = max_visibility(float(eta), PatternKind.SYMMETRIZED_SINUSOIDAL)
        if prev is not None:
            dev = max(dev, v - prev)
        prev = v
    out.append(_result("max-visibility-monotone", dev, 1e-15))

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

    dev = 0.0
    for kind in (PatternKind.SYMMETRIZED_SINUSOIDAL, PatternKind.SYMMETRIZED_STAIRCASE):
        for eta in np.linspace(0.1, 1.0, 19):
            vmax = max_visibility(float(eta), kind)
            for frac in (0.0, 0.4, 0.9, 1.0):
                v = float(frac * vmax)
                if eta == 1.0 and v == 1.0:
                    continue
                q = solve_params(float(eta), v, kind)
                eta_back = 1.0 - math.sqrt(max(1.0 - 2.0 * q.b, 0.0))
                v_back = 4.0 * q.a / (kind.amplitude_constant * eta * eta)
                dev = max(dev, abs(eta_back - eta), abs(v_back - v))
    out.append(_result("solve-roundtrip", dev, 1e-9))

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


def _geometry_checks(seed: int) -> list[CheckResult]:
    out = []
    phis = np.linspace(0.0, TWO_PI, 4001)
    dev_cap = 0.0
    dev_core = 0.0
    for kind in PatternKind:
        for eta, v in ((0.7, 1.0), (0.7, 0.8), (1.0, 0.6), (0.4, 1.0)):
            if not is_feasible(eta, v, kind):
                continue
            p = solve_params(eta, v, kind)
            w = np.asarray(boundary(kind, p.a, phis))
            dev_core = max(dev_core, float(np.max(w)) - p.a)
            cap = p.b * p.c + (1.0 - p.c) * w
            dev_cap = max(dev_cap, float(np.max(cap)) - p.b)
    out.append(_result("core-height-below-a", dev_core, 1e-15))
    out.append(_result("band-cap-below-b", dev_cap, 1e-12))

    rng = np.random.Generator(np.random.Philox(key=seed))
    n = 512
    phi = rng.random(n) * TWO_PI
    r = rng.random(n)
    mismatches = 0
    bad_values = 0
    p = solve_params(0.7, 0.8, PatternKind.SYMMETRIZED_SINUSOIDAL)
    for alpha in (0.0, 0.3, math.pi / 3.0, 2.2, -1.7, 9.0):
        shifted = np.mod(phi - alpha, TWO_PI)
        shifted[shifted >= TWO_PI] = 0.0
        for side in (DetectorSide.ONE, DetectorSide.TWO):
            direct = measure_many(phi, r, alpha, side, p)
            base = measure_many(shifted, r, 0.0, side, p)
            mismatches += int(np.count_nonzero(direct != base))
            bad_values += int(np.count_nonzero(~np.isin(direct, (-1, 0, 1))))
    out.append(_result("measure-shift-invariance", mismatches, 0.0))
    out.append(_result("measure-outcome-domain", bad_values, 0.0))
    return out


def _quadrature_checks() -> list[CheckResult]:
    def deviations(kind, v, a1, a2):
        """Largest cell and station-marginal error against joint_table, and the mass error."""
        p = solve_params(0.7, v, kind)
        table = outcome_probabilities(p, a1, a2).table
        diff = table - joint_table(p, a2 - a1)
        marginal = max(np.max(np.abs(diff.sum(axis=a))) for a in (0, 1))
        return float(np.max(np.abs(diff))), float(marginal), abs(float(table.sum()) - 1.0)

    sym = [
        deviations(PatternKind.SYMMETRIZED_SINUSOIDAL, 0.8, 0.3, 0.3 + math.pi / 3.0),
        deviations(PatternKind.SYMMETRIZED_STAIRCASE, 0.8, 0.1, 2.1),
    ]
    cells, marginal, _ = deviations(PatternKind.UNSYMMETRIZED_SINUSOIDAL, 1.0, 0.0, math.pi / 3.0)
    return [
        _result("quadrature-cells-vs-closed-form", max(d[0] for d in sym), 1e-9),
        _result("quadrature-marginals", max(d[1] for d in sym), 1e-9),
        _result("quadrature-total-mass", max(d[2] for d in sym), 1e-12),
        _result("quadrature-unsymmetrized", max(cells, marginal), 1e-9),
    ]


def _cell_zscores(tally: Tally, want: ProbQuad) -> list[float]:
    n = tally.n_total
    return [zscore(k / n, p, binomial_se(p, n)) for k, p in zip(tally.cells, want.as_tuple())]


def _worst_finite(zs: list[float]) -> float:
    return max((z for z in zs if math.isfinite(z)), default=0.0)


def _mc_suite_checks(sample) -> list[CheckResult]:
    kinds = (PatternKind.SYMMETRIZED_SINUSOIDAL, PatternKind.SYMMETRIZED_STAIRCASE)
    points = ((0.7, 1.0), (0.7, 0.8), (1.0, 0.6))
    thetas = (0.0, 0.25 * math.pi, math.pi / 3.0, 0.5 * math.pi, 0.75 * math.pi, math.pi)

    # An infinite z-score is a mismatch where the variance is zero.
    cell_z, corr_z, marg_z, coin_z = [], [], [], []
    counter = 0
    for kind in kinds:
        for eta, v in points:
            p = solve_params(eta, v, kind)
            for theta in thetas:
                tally = sample(p, 0.0, theta, counter)
                counter += 1
                n = tally.n_total
                cell_z += _cell_zscores(tally, nonideal_probs(theta, eta, v, kind))
                est = estimate(tally)
                e_oracle = correlation(theta, v, kind)
                corr_z.append(zscore(est.corr, e_oracle, correlation_se(e_oracle, n * eta * eta)))
                marg_z += [zscore(got, eta, binomial_se(eta, n)) for got in (est.eta_1, est.eta_2)]
                coin_z.append(zscore(est.coincidence_rate, eta * eta, binomial_se(eta * eta, n)))

    misses = sum(math.isinf(z) for z in cell_z + corr_z + marg_z + coin_z)
    return [
        _result("mc-cells-5sigma", _worst_finite(cell_z), FIVE_SIGMA),
        _result("mc-correlation-5sigma", _worst_finite(corr_z), FIVE_SIGMA),
        _result("mc-marginals-5sigma", _worst_finite(marg_z), FIVE_SIGMA),
        _result("mc-coincidence-5sigma", _worst_finite(coin_z), FIVE_SIGMA),
        _result("mc-zero-variance-cells-exact", misses, 0.0),
    ]


def _mc_structure_checks(sample) -> list[CheckResult]:
    out = []
    base = 1000

    p = solve_params(0.75, 1.0, PatternKind.SYMMETRIZED_SINUSOIDAL)
    tally = sample(p, 1.1, 1.1, base)
    out.append(_result(
        "anticorrelation-exact-at-equal-angles",
        tally.n_pp + tally.n_mm, 0.0,
        note=f"n_pp={tally.n_pp} n_mm={tally.n_mm}",
    ))

    p = solve_params(0.75, 0.85, PatternKind.SYMMETRIZED_SINUSOIDAL)
    est = estimate(sample(p, 0.6, 0.6, base + 4))
    out.append(_result(
        "visibility-recovery-at-equal-angles",
        abs(-est.corr - p.v), FIVE_SIGMA * est.corr_se,
    ))

    p = solve_params(0.7, 0.8, PatternKind.SYMMETRIZED_STAIRCASE)
    theta = math.pi / 3.0
    t_wrap = sample(p, 0.0, theta, base + 1)
    t_far = sample(p, 2.0 * math.pi, theta + 4.0 * math.pi, base + 1)
    out.append(_result("angle-periodicity-in-tallies", int(t_wrap.cells != t_far.cells), 0.0))

    theta = 5.0 * math.pi / 3.0
    t_neg = sample(p, 0.0, theta, base + 2)
    dev = max(_cell_zscores(t_neg, nonideal_probs(theta, p.eta, p.v, p.kind)))
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
    out.append(_result("unsym-single-side-one-never", tally.n_single_1, 0.0))
    out.append(_result("unsym-marginals-and-corr-5sigma", dev, FIVE_SIGMA))

    # Zero-efficiency edge: nothing ever fires, conservation still holds,
    # and correlation estimates are correctly refused.
    p = solve_params(0.0, 0.3, PatternKind.SYMMETRIZED_SINUSOIDAL)
    tally = sample(p, 0.0, 1.0, base + 5, n_pairs=MIN_VERIFY_PAIRS)
    bad = int(tally.n_none != tally.n_total) + int(tally.n_coincidences != 0)
    try:
        estimate(tally)
        bad += 1
    except EmptyTally:
        pass
    out.append(_result("eta-zero-conservation", bad, 0.0))
    return out


def _determinism_checks(seed: int) -> list[CheckResult]:
    out = []
    p = solve_params(0.7, 0.8, PatternKind.SYMMETRIZED_SINUSOIDAL)
    cfg = RunConfig(
        params=p, angle_1=0.2, angle_2=1.5,
        n_pairs=200_000, seed=derive_seed(seed, 2000), chunk_size=4096,
    )
    t1 = run(cfg)
    t2 = run(cfg)
    t3 = run(cfg, workers=3)
    t4 = run(cfg, workers=7)
    diffs = int(t1 != t2) + int(t1 != t3) + int(t1 != t4)
    out.append(_result("run-determinism-across-workers", diffs, 0.0))

    from .montecarlo import _chunk_tally

    chunks = [_chunk_tally(cfg, k) for k in range(cfg.n_chunks)]
    fwd = Tally.zero()
    for t in chunks:
        fwd = fwd + t
    rev = Tally.zero()
    for t in reversed(chunks):
        rev = rev + t
    out.append(_result("tally-merge-order-independent", int(fwd != rev) + int(fwd != t1), 0.0))
    return out


def verify_suite(
    pairs_budget: int = 1_000_000, seed: int = 42, workers: int | None = None
) -> VerifyReport:
    """Run every invariant and statistical gate the package promises.

    Exact identities are checked at tight float tolerances, quadrature
    against closed forms at 1e-9, and Monte Carlo statistics at five sigma
    with the given per-run budget.  Deterministic for a fixed seed.
    """
    pairs_budget = _check_int("pairs_budget", pairs_budget, lo=MIN_VERIFY_PAIRS)
    seed = _check_int("seed", seed)

    def sample(params, angle_1, angle_2, index, n_pairs=pairs_budget) -> Tally:
        cfg = RunConfig(
            params=params, angle_1=angle_1, angle_2=angle_2,
            n_pairs=n_pairs, seed=derive_seed(seed, index),
        )
        return run(cfg, workers=workers)

    checks = []
    checks.extend(_analytic_checks())
    checks.extend(_frontier_checks())
    checks.extend(_geometry_checks(seed))
    checks.extend(_quadrature_checks())
    checks.extend(_mc_suite_checks(sample))
    checks.extend(_mc_structure_checks(sample))
    checks.extend(_determinism_checks(seed))
    return VerifyReport(checks=tuple(checks))
