"""Closed-form statistics, feasibility frontiers, and inequality helpers.

Angles throughout are radians.  theta means the relative detector angle
(setting two minus setting one); every formula depends on it only through
the even, 2*pi-periodic reduction to [0, pi].

Perfect-state coincidence cells are (1 -/+ cos theta)/4.  At efficiency eta
and visibility v the model yields

    p_pp = p_mm = eta**2 * (1 - v*g(theta)) / 4
    p_pm = p_mp = eta**2 * (1 + v*g(theta)) / 4

with g = cos for sinusoidal patterns and the piecewise-linear line_g for the
staircase pattern, single-sided marginals eta/2 per outcome, and correlation
-v*g(theta) conditioned on coincidence.  joint_table adds the singles and
no-detection cells, and covers the one-sided unsymmetrized kind too, whose
cells are the same formula at its coincidence rate 2a/pi with v = 1.

Frontier algebra: patterns exist iff K*v <= 4/eta - 2 with K = pi
(sinusoidal) or 2*sqrt(2) (staircase).  The staircase frontier coincides
with saturation of the inefficiency-adjusted CHSH bound S <= 4/eta - 2,
which model.chsh_bound writes once and this module re-exports, so
the plane splits into a sinusoidal-feasible region, a strip covered only by
the staircase, a gap that is classical yet unreachable by either kind, and
the CHSH-violating region no local model can enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _REALS, DomainError, _check_real, _check_type, _check_unit
from .model import (
    HALF_PI,
    SQRT2,
    ModelParams,
    PatternKind,
    chsh_bound,
    is_feasible,
    unsymmetrized_marginals,
)

#: Minimum efficiency for the original three-angle inequality at v = 1.
BELL_CRITICAL_EFFICIENCY = 8.0 / 9.0

#: Minimum efficiency for a CHSH violation at v = 1.
CHSH_CRITICAL_EFFICIENCY = 2.0 * (SQRT2 - 1.0)

#: Largest efficiency the sinusoidal patterns reach at full visibility.
FULL_VISIBILITY_MAX_EFFICIENCY = 4.0 / (2.0 + math.pi)

#: Largest visibility the sinusoidal patterns reach at full efficiency.
FULL_EFFICIENCY_MAX_VISIBILITY = 2.0 / math.pi

_LINE_KNOTS = np.array([0.0, 0.25 * math.pi, 0.75 * math.pi, math.pi])
_LINE_VALUES = np.array([1.0, 1.0 / SQRT2, -1.0 / SQRT2, -1.0])


@dataclass(frozen=True)
class ProbQuad:
    """The four coincidence-cell probabilities in a fixed order."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def total(self) -> float:
        return self.p_pp + self.p_pm + self.p_mp + self.p_mm

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)


@dataclass(frozen=True)
class ChshAngles:
    """Four detector settings: a, b on station one, c, d on station two."""

    phi_a: float
    phi_b: float
    phi_c: float
    phi_d: float

    def settings(self) -> dict[str, tuple[float, float]]:
        """The four (station one, station two) setting pairs, labelled ac, ad, bc, bd in order."""
        a, b, c, d = self.phi_a, self.phi_b, self.phi_c, self.phi_d
        return {"ac": (a, c), "ad": (a, d), "bc": (b, c), "bd": (b, d)}


def chsh_s(e_ac: float, e_ad: float, e_bc: float, e_bd: float) -> float:
    """S = |E_ac - E_ad| + |E_bc + E_bd| from the correlations at the settings() pairs."""
    return abs(e_ac - e_ad) + abs(e_bc + e_bd)


#: Settings that maximize S for both pattern families.
STANDARD_CHSH_ANGLES = ChshAngles(0.0, HALF_PI, 0.25 * math.pi, 0.75 * math.pi)


@dataclass(frozen=True)
class RegionVerdict:
    """Feasibility classification of one (eta, v) point."""

    eta: float
    v: float
    sin_feasible: bool
    line_feasible: bool
    chsh_violated: bool
    gap: bool


def _check_theta(theta, array: bool = True):
    """theta under errors._check_real, as a float if a real scalar, else if array as an ndarray.

    A NaN or infinite theta raises DomainError.
    """
    array = array and not isinstance(theta, _REALS)
    theta = _check_real("theta", theta, array=array)
    if not (np.all(np.isfinite(theta)) if array else math.isfinite(theta)):
        raise DomainError(f"theta must be finite, got {theta!r}")
    return theta


def reduce_theta(theta):
    """Map any finite real angle, or array of them, to [0, pi] by the even periodic extension."""
    return _reduce_theta(_check_theta(theta))


def _reduce_theta(theta):
    return np.abs(np.mod(theta + math.pi, 2.0 * math.pi) - math.pi)


def qm_probs(theta: float) -> ProbQuad:
    """Perfect singlet coincidence cells at a finite real relative angle theta."""
    ct = math.cos(_check_theta(theta, array=False))
    anti = 0.25 * (1.0 - ct)
    corr = 0.25 * (1.0 + ct)
    return ProbQuad(p_pp=anti, p_pm=corr, p_mp=corr, p_mm=anti)


def line_g(theta):
    """Piecewise-linear stand-in for cos produced by the staircase pattern.

    Interpolates linearly between the cosine values at 0, pi/4, 3*pi/4 and
    pi (after reduction), extended evenly and periodically.  Outer segments
    are shallower than the middle one by the factor sqrt(2) - 1, and the
    largest deviation from cos stays below 0.0704.  Scalars in, scalar out.
    theta is checked as reduce_theta checks it.
    """
    return _line_g(_check_theta(theta))


def _line_g(theta):
    out = np.interp(_reduce_theta(theta), _LINE_KNOTS, _LINE_VALUES)
    if np.ndim(theta) == 0:
        return float(out)
    return out


def _correlation_shape(theta, kind: PatternKind):
    _check_type("kind", kind, PatternKind)
    theta = _check_theta(theta)
    # cos is even and periodic already; only the interpolated shape needs
    # its argument folded into [0, pi].
    if kind is PatternKind.SYMMETRIZED_STAIRCASE:
        return _line_g(theta)
    if isinstance(theta, float):
        return math.cos(theta)
    return np.cos(theta)


def _coincidence_cells(theta, v: float, kind: PatternKind, rate: float):
    """(p_pp, p_pm, p_mp, p_mm) = rate * (1 -/+ v*g(theta)) / 4.

    rate is the coincidence probability: eta**2 for the symmetrized kinds,
    2a/pi for the unsymmetrized one.
    """
    g = _correlation_shape(theta, kind)
    scale = 0.25 * rate
    anti = scale * (1.0 - v * g)
    corr = scale * (1.0 + v * g)
    return anti, corr, corr, anti


def nonideal_probs(theta: float, eta: float, v: float, kind: PatternKind) -> ProbQuad:
    """Coincidence cells at efficiency eta and visibility v.

    The four cells sum to eta**2; dividing by that coincidence probability
    recovers (1 -/+ v*g)/4.  The unsymmetrized kind has other cells and
    raises DomainError; joint_table covers it.
    """
    if kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        raise DomainError("nonideal_probs covers the symmetrized kinds; use joint_table for unsym")
    _check_unit("eta", eta)
    _check_unit("v", v)
    return ProbQuad(*_coincidence_cells(theta, v, kind, eta * eta))


def joint_table(params: ModelParams, theta: float) -> np.ndarray:
    """Closed-form 3x3 joint outcome table at relative angle theta.

    Indexed [o1 + 1, o2 + 1] like PatternIntegral.table, so row and column 1
    hold no detection.  The unsymmetrized kind detects at rate 2a/pi on
    station one, which never fires alone, and at rate b on station two.
    """
    _check_type("params", params, ModelParams)
    theta = _check_theta(theta, array=False)  # one table, so one angle
    if params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        rate, rate_2 = unsymmetrized_marginals(params.a, params.b)
        single_1, single_2, none = 0.0, 0.5 * (rate_2 - rate), 1.0 - rate_2
    else:
        eta = params.eta
        rate = eta * eta
        single_1 = single_2 = 0.5 * eta * (1.0 - eta)
        none = (1.0 - eta) ** 2
    p_pp, p_pm, p_mp, p_mm = _coincidence_cells(theta, params.v, params.kind, rate)
    return np.array([
        [p_mm, single_1, p_mp],
        [single_2, none, single_2],
        [p_pm, single_1, p_pp],
    ])


def correlation(theta: float, v: float, kind: PatternKind):
    """Conditional correlation E(theta) = -v * g(theta) given coincidence."""
    _check_unit("v", v)
    return -v * _correlation_shape(theta, kind)


def chsh_value(v: float, kind: PatternKind, angles: ChshAngles = STANDARD_CHSH_ANGLES) -> float:
    """S = |E(c-a) - E(d-a)| + |E(c-b) + E(d-b)| for the model correlation."""
    return chsh_s(*(correlation(a2 - a1, v, kind) for a1, a2 in angles.settings().values()))


def bell_generalized_slack(
    eta: float,
    v: float,
    theta_ab: float,
    theta_ac: float,
    theta_bc: float,
    kind: PatternKind = PatternKind.SYMMETRIZED_SINUSOIDAL,
) -> float:
    """Slack of the inefficiency-adjusted three-angle inequality.

    Returns (4/eta - 3 + E(theta_bc)) - |E(theta_ab) - E(theta_ac)| with
    E = correlation(theta, v, kind), by default the sinusoidal -v*cos(theta);
    a non-finite angle raises DomainError.  Nonnegative slack at every angle
    triple means the inequality cannot certify nonlocality at this (eta, v);
    for the sinusoidal kind the slack first touches zero at eta = 8/9 for
    v = 1 with the classic triple (pi/3, 2*pi/3, pi/3).
    """
    limit = chsh_bound(eta) - 1.0
    e_ab = correlation(theta_ab, v, kind)
    e_ac = correlation(theta_ac, v, kind)
    e_bc = correlation(theta_bc, v, kind)
    return (limit + e_bc) - abs(e_ab - e_ac)


def max_visibility(eta: float, kind: PatternKind) -> float:
    """Largest visibility the kind reaches at efficiency eta, capped at 1."""
    _check_type("kind", kind, PatternKind)
    return min(1.0, chsh_bound(eta) / kind.amplitude_constant)


def classify_region(eta: float, v: float) -> RegionVerdict:
    """Classify one (eta, v) point against both frontiers and CHSH.

    Every decision is is_feasible, the rule solve_params applies, so
    classify_region never disagrees with solve_params.  The gap flag marks
    points no pattern kind covers even though CHSH is satisfied.
    """
    _check_unit("eta", eta)
    _check_unit("v", v)
    sin_ok = is_feasible(eta, v, PatternKind.SYMMETRIZED_SINUSOIDAL)
    line_ok = is_feasible(eta, v, PatternKind.SYMMETRIZED_STAIRCASE)
    # The staircase frontier 2*sqrt(2)*v <= 4/eta - 2 is the CHSH bound, and
    # the corner (1, 1), which is_feasible also excludes, violates CHSH.
    violated = not line_ok
    gap = (not sin_ok) and (not violated)
    return RegionVerdict(
        eta=eta,
        v=v,
        sin_feasible=sin_ok,
        line_feasible=line_ok,
        chsh_violated=violated,
        gap=gap,
    )
