"""Hidden-variable model: parameter solving and the detector response.

Every emitted pair carries one shared hidden variable lam = (phi, r) drawn
uniformly from [0, 2*pi) x [0, 1).  A detector set to angle alpha reduces it
to the shifted phase phi' = (phi - alpha) mod 2*pi and maps (phi', r) to one
of three outcomes (+1, -1, or no detection) through a fixed partition of the
(phi', r) rectangle called the detector pattern.  All correlations between
the two stations arise from sharing lam; the response at one station never
sees the other station's setting.

A pattern is built from three ingredients controlled by the heights (a, b, c):

* a "core" region whose r-height above the phi' axis is w(phi') = a*|sin phi'|
  for the sinusoidal kinds, or a two-level staircase a*u(phi') with
  u = 1 on (pi/4, 3*pi/4) mod pi and u = sqrt(2) - 1 elsewhere.  Outcome sign
  follows the half-period: plus for phi' in (0, pi), minus for (pi, 2*pi).
* an "error band" stacked on the core up to W(phi') = b*c + (1 - c)*w(phi'),
  with sign + on the first and third quarter-periods.  Its area is what
  degrades visibility; c = 0 removes it.
* a "detection band" of constant height b whose sign depends only on the
  half-period.  Its height fixes the single-detector efficiency.

Symmetrized kinds split the unit r-interval in two: station one puts the
core plus error band in r < 1/2 and the detection band in r >= 1/2, while
station two swaps the halves and flips every sign.  The unsymmetrized
sinusoidal kind instead gives station one a pure core (height a over the
whole interval) and station two a pure band of height b, signs flipped.

ModelParams(eta, v, kind) derives the heights from a target (eta, v); for a
symmetrized kind

    b = eta - eta**2 / 2
    c = eta * (1 - v) / (2 - eta * (1 + v))
    a = K * v * eta**2 / 4,   K = pi (sinusoidal) or 2*sqrt(2) (staircase)

and the unsymmetrized kind, which has no error band, takes c = 0 and needs
v = 1.  The construction fits inside the unit square iff a <= b <= 1/2, and
since b - a = eta**2/4 * (4/eta - 2 - K*v) that is the frontier
K*v <= 4/eta - 2.  For the staircase this is the efficiency-adjusted CHSH
bound of Garg and Mermin.  The ideal corner eta = v = 1 makes c an
indeterminate 0/0 and is rejected separately.  One private rule,
_infeasibility, makes every one of these decisions for is_feasible,
ModelParams and solve_params alike.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint, DomainError, InfeasibleParameters, SingletLhvError

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
SQRT2 = math.sqrt(2.0)

#: Height of the outer staircase steps relative to the inner one.
STAIRCASE_OUTER_LEVEL = SQRT2 - 1.0

#: Absolute slack granted when comparing against the feasibility frontier,
#: applied in the scaled units of K*v vs 4/eta - 2.  Only _infeasibility
#: compares against the frontier, so no two feasibility decisions disagree.
FRONTIER_TOL = 1e-12


class PatternKind(enum.Enum):
    """Which detector-pattern family the model uses."""

    UNSYMMETRIZED_SINUSOIDAL = "unsym"
    SYMMETRIZED_SINUSOIDAL = "sin"
    SYMMETRIZED_STAIRCASE = "line"

    @property
    def amplitude_constant(self) -> float:
        """K in a = K*v*eta**2/4 and in the frontier K*v <= 4/eta - 2."""
        if self is PatternKind.SYMMETRIZED_STAIRCASE:
            return 2.0 * SQRT2
        return math.pi

    @property
    def is_sinusoidal(self) -> bool:
        return self is not PatternKind.SYMMETRIZED_STAIRCASE


class DetectorSide(enum.Enum):
    """The two measurement stations."""

    ONE = 1
    TWO = 2


class Outcome(enum.Enum):
    PLUS = 1
    MINUS = -1
    NO_DETECTION = 0

    @property
    def numeric(self) -> int:
        return self.value


@dataclass(frozen=True)
class HiddenVariable:
    """One shared hidden variable lam = (phi, r)."""

    phi: float
    r: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.phi < TWO_PI):
            raise DomainError(f"phi must lie in [0, 2*pi), got {self.phi!r}")
        if not (0.0 <= self.r < 1.0):
            raise DomainError(f"r must lie in [0, 1), got {self.r!r}")


def _infeasibility(eta: float, v: float, kind: PatternKind) -> SingletLhvError | None:
    """The error a pattern at (eta, v, kind) raises, or None when it exists.

    This is the package's one feasibility rule.  In order: both values must
    lie in [0, 1] (NaN never does); the unsymmetrized kind needs v == 1; the
    symmetrized kinds exclude the corner eta = v = 1; and every eta > 0 must
    satisfy the frontier K*v <= 4/eta - 2 + FRONTIER_TOL.
    """
    if not (0.0 <= eta <= 1.0):
        return InfeasibleParameters(f"eta must lie in [0, 1], got {eta!r}")
    if not (0.0 <= v <= 1.0):
        return InfeasibleParameters(f"v must lie in [0, 1], got {v!r}")
    symmetrized = kind is not PatternKind.UNSYMMETRIZED_SINUSOIDAL
    if not symmetrized and v != 1.0:
        return InfeasibleParameters(
            f"the unsymmetrized sinusoidal pattern supports only v = 1, got v = {v!r}"
        )
    if symmetrized and eta == 1.0 and v == 1.0:
        return DegeneratePoint("eta = v = 1 leaves the error-band weight undefined")
    if eta > 0.0 and not kind.amplitude_constant * v <= 4.0 / eta - 2.0 + FRONTIER_TOL:
        return InfeasibleParameters(
            f"(eta, v) = ({eta!r}, {v!r}) violates "
            f"{kind.amplitude_constant!r} * v <= 4/eta - 2 = {4.0 / eta - 2.0!r}"
        )
    return None


def is_feasible(eta: float, v: float, kind: PatternKind) -> bool:
    """True when a pattern of the given kind exists for (eta, v)."""
    return _infeasibility(eta, v, kind) is None


@dataclass(frozen=True)
class ModelParams:
    """The pattern for one (eta, v, kind) point, with its derived heights.

    Construction raises DegeneratePoint at eta = v = 1 for the symmetrized
    kinds and InfeasibleParameters at every other point outside the feasible
    region.  The heights a, b and c are solved from (eta, v) and are not
    constructor arguments.  On a feasible point a <= b <= 1/2 holds, because
    b - a = eta**2/4 * (4/eta - 2 - K*v).
    """

    eta: float
    v: float
    kind: PatternKind
    a: float = field(init=False)
    b: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self) -> None:
        error = _infeasibility(self.eta, self.v, self.kind)
        if error is not None:
            raise error
        eta, v = self.eta, self.v
        if self.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL or v == 1.0:
            c = 0.0
        else:
            c = eta * (1.0 - v) / (2.0 - eta * (1.0 + v))
            c = min(max(c, 0.0), 1.0)
        object.__setattr__(self, "a", 0.25 * self.kind.amplitude_constant * v * eta * eta)
        object.__setattr__(self, "b", eta - 0.5 * eta * eta)
        object.__setattr__(self, "c", c)


def solve_params(eta: float, v: float, kind: PatternKind) -> ModelParams:
    """Solve the pattern parameters reproducing (eta, v); same as ModelParams(eta, v, kind)."""
    return ModelParams(eta, v, kind)


def boundary(kind: PatternKind, a: float, phi: float) -> float:
    """Core-region height w(phi') at shifted phase phi' in [0, 2*pi).

    Sinusoidal kinds return a*|sin(phi')|.  The staircase kind returns a
    two-level step, a on the middle half of each half-period and
    a*(sqrt(2) - 1) on the outer quarters; the step uses open inner
    intervals, so phi' = 0 and the quarter-period edges sit on the low
    level.  Accepts scalars or arrays.
    """
    arr = _pattern_height(kind, a, np.asarray(phi, dtype=float))
    if np.ndim(phi) == 0:
        return float(arr)
    return arr


def _pattern_height(kind: PatternKind, a: float, phi: np.ndarray) -> np.ndarray:
    if kind is PatternKind.SYMMETRIZED_STAIRCASE:
        t = np.where(phi >= math.pi, phi - math.pi, phi)
        u = np.where((t > 0.25 * math.pi) & (t < 0.75 * math.pi), 1.0, STAIRCASE_OUTER_LEVEL)
        return a * u
    return a * np.abs(np.sin(phi))


def _shifted_phase(phi: np.ndarray, detector_angle: float) -> np.ndarray:
    out = np.mod(phi - detector_angle, TWO_PI)
    # np.mod can round up to exactly 2*pi for tiny negative arguments.
    out[out >= TWO_PI] = 0.0
    return out


def measure_many(
    phi: np.ndarray,
    r: np.ndarray,
    detector_angle: float,
    side: DetectorSide,
    params: ModelParams,
) -> np.ndarray:
    """Vectorized detector response, returning an int8 array in {-1, 0, +1}.

    phi and r must be equal-length 1-d arrays holding the hidden variables;
    detector_angle may be any real and is reduced mod 2*pi.  This is the
    single source of truth for the pattern geometry; measure() wraps it for
    one event.
    """
    phi = np.asarray(phi, dtype=float)
    r = np.asarray(r, dtype=float)
    pp = _shifted_phase(phi, detector_angle)
    out = np.zeros(pp.shape, dtype=np.int8)
    a, b, c = params.a, params.b, params.c

    if params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        if side is DetectorSide.ONE:
            w = _pattern_height(params.kind, a, pp)
            hit = r <= w
            out[hit & (pp > 0.0) & (pp < math.pi)] = 1
            out[hit & (pp > math.pi)] = -1
        else:
            hit = r < b
            out[hit & (pp >= math.pi)] = 1
            out[hit & (pp < math.pi)] = -1
        return out

    # Symmetrized kinds: one half of the r-interval carries the core plus
    # its error band, the other the constant detection band.  Station two
    # swaps the halves and flips all signs.
    if side is DetectorSide.ONE:
        pattern_half = r < 0.5
        r_pat = r
        r_band = r - 0.5
        sign = 1
    else:
        pattern_half = r >= 0.5
        r_pat = r - 0.5
        r_band = r
        sign = -1
    band_half = ~pattern_half

    w = _pattern_height(params.kind, a, pp)
    cap = b * c + (1.0 - c) * w

    core_plus = pattern_half & (pp > 0.0) & (pp < math.pi) & (r_pat <= w)
    core_minus = pattern_half & (pp > math.pi) & (r_pat <= w)
    in_core = core_plus | core_minus

    t = np.where(pp >= math.pi, pp - math.pi, pp)
    err = pattern_half & ~in_core & (r_pat <= cap)
    err_plus = err & (t > 0.0) & (t <= HALF_PI)
    err_minus = err & ~(err_plus)

    detected = band_half & (r_band < b)
    band_plus = detected & (pp < math.pi)
    band_minus = detected & (pp >= math.pi)

    out[core_plus | err_plus | band_plus] = sign
    out[core_minus | err_minus | band_minus] = -sign
    return out


def measure(
    lam: HiddenVariable,
    detector_angle: float,
    side: DetectorSide,
    params: ModelParams,
) -> Outcome:
    """Outcome of one station for one hidden variable."""
    value = measure_many(
        np.array([lam.phi]), np.array([lam.r]), detector_angle, side, params
    )
    return Outcome(int(value[0]))


def unsymmetrized_marginals(a: float, b: float) -> tuple[float, float]:
    """Single-station detection probabilities of the unsymmetrized pattern.

    Station one integrates the sinusoidal core, 2*a/pi; station two is the
    constant band, b.  They differ unless a = pi*b/2, which is the tell that
    distinguishes this kind from the symmetrized ones in experiments.
    """
    if a < 0.0 or b < 0.0:
        raise DomainError("pattern heights must be nonnegative")
    return (2.0 * a / math.pi, b)
