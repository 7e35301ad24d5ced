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
no-detection cells, and covers the one-sided unsymmetrized kind too.

Frontier algebra: patterns exist iff K*v <= 4/eta - 2 with K = pi
(sinusoidal) or 2*sqrt(2) (staircase).  The staircase frontier coincides
with saturation of the inefficiency-adjusted CHSH bound S <= 4/eta - 2, so
the plane splits into a sinusoidal-feasible region, a strip covered only by
the staircase, a gap that is classical yet unreachable by either kind, and
the CHSH-violating region no local model can enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (
    HALF_PI,
    SQRT2,
    TWO_PI,
    ModelParams,
    PatternKind,
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


def _check_unit(name: str, x: float, positive: bool = False) -> None:
    """Raise DomainError unless x lies in [0, 1], or in (0, 1] if positive."""
    if not ((0.0 < x if positive else 0.0 <= x) and x <= 1.0):
        interval = "(0, 1]" if positive else "[0, 1]"
        raise DomainError(f"{name} must lie in {interval}, got {x!r}")


def reduce_theta(theta):
    """Map any real angle to [0, pi] by the even periodic extension."""
    return np.abs(np.mod(np.asarray(theta, dtype=float) + math.pi, 2.0 * math.pi) - math.pi)


def qm_probs(theta: float) -> ProbQuad:
    """Perfect singlet coincidence cells at relative angle theta."""
    ct = math.cos(theta)
    anti = 0.25 * (1.0 - ct)
    corr = 0.25 * (1.0 + ct)
    return ProbQuad(p_pp=anti, p_pm=corr, p_mp=corr, p_mm=anti)


def line_g(theta):
    """Piecewise-linear stand-in for cos produced by the staircase pattern.

    Interpolates linearly between the cosine values at 0, pi/4, 3*pi/4 and
    pi (after reduction), extended evenly and periodically.  Outer segments
    are shallower than the middle one by the factor sqrt(2) - 1, and the
    largest deviation from cos stays below 0.0704.  Scalars in, scalar out.
    """
    red = reduce_theta(theta)
    out = np.interp(red, _LINE_KNOTS, _LINE_VALUES)
    if np.ndim(theta) == 0:
        return float(out)
    return out


def _correlation_shape(theta, kind: PatternKind):
    scalar = np.ndim(theta) == 0
    if not (math.isfinite(theta) if scalar else np.all(np.isfinite(theta))):
        raise DomainError(f"theta must be finite, got {theta!r}")
    # cos is even and periodic already; only the interpolated shape needs
    # its argument folded into [0, pi].
    if kind is PatternKind.SYMMETRIZED_STAIRCASE:
        return line_g(theta)
    if scalar:
        return math.cos(theta)
    return np.cos(np.asarray(theta, dtype=float))


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
    g = _correlation_shape(theta, kind)
    scale = 0.25 * eta * eta
    anti = scale * (1.0 - v * g)
    corr = scale * (1.0 + v * g)
    return ProbQuad(p_pp=anti, p_pm=corr, p_mp=corr, p_mm=anti)


def joint_table(params: ModelParams, theta: float) -> np.ndarray:
    """Closed-form 3x3 joint outcome table at relative angle theta.

    Indexed [o1 + 1, o2 + 1] like PatternIntegral.table, so row and column 1
    hold no detection.  The unsymmetrized kind detects at rate 2a/pi on
    station one, which never fires alone, and at rate b on station two.
    """
    if params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        g = _correlation_shape(theta, params.kind)
        scale = params.a / TWO_PI
        p_pp = p_mm = scale * (1.0 - g)
        p_pm = p_mp = scale * (1.0 + g)
        rate_1, rate_2 = unsymmetrized_marginals(params.a, params.b)
        single_1, single_2, none = 0.0, 0.5 * (rate_2 - rate_1), 1.0 - rate_2
    else:
        eta = params.eta
        p_pp, p_pm, p_mp, p_mm = nonideal_probs(theta, eta, params.v, params.kind).as_tuple()
        single_1 = single_2 = 0.5 * eta * (1.0 - eta)
        none = (1.0 - eta) ** 2
    return np.array([
        [p_mm, single_1, p_mp],
        [single_2, none, single_2],
        [p_pm, single_1, p_pp],
    ])


def marginal_prob(eta: float) -> float:
    """Single-station probability of each detected outcome, eta/2.

    The same value for +1 and -1 at every setting; no-detection takes the
    remaining 1 - eta.
    """
    _check_unit("eta", eta)
    return 0.5 * eta


def correlation(theta: float, v: float, kind: PatternKind):
    """Conditional correlation E(theta) = -v * g(theta) given coincidence."""
    _check_unit("v", v)
    return -v * _correlation_shape(theta, kind)


def chsh_value(v: float, kind: PatternKind, angles: ChshAngles = STANDARD_CHSH_ANGLES) -> float:
    """S = |E(c-a) - E(d-a)| + |E(c-b) + E(d-b)| for the model correlation."""
    e_ac = correlation(angles.phi_c - angles.phi_a, v, kind)
    e_ad = correlation(angles.phi_d - angles.phi_a, v, kind)
    e_bc = correlation(angles.phi_c - angles.phi_b, v, kind)
    e_bd = correlation(angles.phi_d - angles.phi_b, v, kind)
    return abs(e_ac - e_ad) + abs(e_bc + e_bd)


def chsh_bound(eta: float) -> float:
    """Largest S any local model must respect at efficiency eta, 4/eta - 2."""
    _check_unit("eta", eta, positive=True)
    return 4.0 / eta - 2.0


def bell_generalized_slack(
    eta: float, v: float, theta_ab: float, theta_ac: float, theta_bc: float
) -> float:
    """Slack of the inefficiency-adjusted three-angle inequality.

    Returns (4/eta - 3 + E(theta_bc)) - |E(theta_ab) - E(theta_ac)| with
    E(theta) = -v*cos(theta).  Nonnegative slack at every angle triple means
    the inequality cannot certify nonlocality at this (eta, v); the slack
    first touches zero at eta = 8/9 for v = 1 with the classic triple
    (pi/3, 2*pi/3, pi/3).
    """
    _check_unit("eta", eta, positive=True)
    _check_unit("v", v)
    e_ab = -v * math.cos(theta_ab)
    e_ac = -v * math.cos(theta_ac)
    e_bc = -v * math.cos(theta_bc)
    return (4.0 / eta - 3.0 + e_bc) - abs(e_ab - e_ac)


def max_visibility(eta: float, kind: PatternKind) -> float:
    """Largest visibility the kind reaches at efficiency eta, capped at 1."""
    _check_unit("eta", eta, positive=True)
    return min(1.0, (4.0 / eta - 2.0) / kind.amplitude_constant)


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
