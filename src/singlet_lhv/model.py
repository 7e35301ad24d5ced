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

The response is written twice.  measure() decides one event in plain
Python, straight from the geometry above, and states every boundary
convention; it is the reference.  measure_many() is the vectorized kernel
that the sampler and the quadrature oracle call; it evaluates each
symmetrized station's pattern only on that station's own r-half.  Tests
hold the two equal event by event, bit for bit.
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
    phi = np.asarray(phi, dtype=float)
    w = _pattern_height(kind, a, phi.reshape(-1)).reshape(phi.shape)
    if phi.ndim == 0:
        return float(w)
    return w


def _half_phase(pp: np.ndarray) -> np.ndarray:
    """The phase within its half-period: pp on [0, pi), pp - pi on [pi, 2*pi)."""
    return pp - math.pi * (pp >= math.pi)


def _pattern_height(
    kind: PatternKind, a: float, phi: np.ndarray, t: np.ndarray | None = None
) -> np.ndarray:
    """w at the 1-d phases phi; t is _half_phase(phi), which the staircase needs."""
    if kind is PatternKind.SYMMETRIZED_STAIRCASE:
        if t is None:
            t = _half_phase(phi)
        inner = (t > 0.25 * math.pi) & (t < 0.75 * math.pi)
        return np.where(inner, a, a * STAIRCASE_OUTER_LEVEL)
    w = np.sin(phi)
    np.abs(w, out=w)
    w *= a
    return w


def _shifted_phase(phi: np.ndarray, detector_angle: float) -> np.ndarray:
    """(phi - detector_angle) mod 2*pi on 1-d phi, bit for bit as np.mod gives it.

    np.mod(x, 2*pi) is fmod(x, 2*pi), plus 2*pi when that is negative.  fmod
    is exact and returns x itself when |x| < 2*pi, so it runs only when some
    |x| reaches 2*pi, which never happens while phi and the setting both lie
    in [0, 2*pi).  Only when that range test fails are the same minimum and
    maximum checked for NaN and infinities, which raise DomainError.
    """
    out = np.subtract(phi, detector_angle)
    if out.size:
        lo, hi = out.min(), out.max()
        if not (lo > -TWO_PI and hi < TWO_PI):
            # min and max propagate NaN, so both are finite iff every element is.
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError(
                    "phi - detector_angle must be finite, got values in "
                    f"[{float(lo)!r}, {float(hi)!r}]"
                )
            np.fmod(out, TWO_PI, out=out)
    out += TWO_PI * (out < 0.0)
    # A tiny negative remainder plus 2*pi can round up to exactly 2*pi.
    out[out >= TWO_PI] = 0.0
    return out


def _i8(mask: np.ndarray) -> np.ndarray:
    return mask.view(np.int8)


def measure_many(
    phi: np.ndarray,
    r: np.ndarray,
    detector_angle: float,
    side: DetectorSide,
    params: ModelParams,
) -> np.ndarray:
    """Vectorized detector response, returning an int8 array in {-1, 0, +1}.

    phi and r hold the hidden variables and broadcast against each other; a
    0-d pair gives a 0-d result.  detector_angle may be any real and is
    reduced mod 2*pi; a NaN or infinite phase or angle raises DomainError,
    as HiddenVariable does for measure().  Event by event the result equals
    measure(), the plain-Python reference, bit for bit.

    A symmetrized station evaluates its pattern only on its own r-half.  The
    constant detection band of the other half is decided for the whole array
    with comparisons alone.  The pattern-half events that lie no higher than
    the tallest core or error-band height are then gathered, and only they
    pay for sin(), the error-band cap and the quarter-period test.  The
    unsymmetrized station one evaluates its core only where r <= a.  The
    float operations per event are those of measure().
    """
    phi = np.asarray(phi, dtype=float)
    r = np.asarray(r, dtype=float)
    if phi.shape != r.shape:
        phi, r = np.broadcast_arrays(phi, r)
    shape = phi.shape
    pp = _shifted_phase(phi.reshape(-1), detector_angle)
    r = r.reshape(-1)
    if params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        out = _unsymmetrized(pp, r, side, params)
    else:
        out = _symmetrized(pp, r, side, params)
    return out.reshape(shape)


def _unsymmetrized(
    pp: np.ndarray, r: np.ndarray, side: DetectorSide, params: ModelParams
) -> np.ndarray:
    a, b = params.a, params.b
    if side is DetectorSide.TWO:
        hit = r < b
        return _i8(hit & (pp >= math.pi)) - _i8(hit & (pp < math.pi))
    # Station one is a core over the whole r-interval, and w <= a.
    out = np.zeros(pp.shape, dtype=np.int8)
    core = np.flatnonzero(r <= a)
    p = pp[core]
    hit = r[core] <= _pattern_height(params.kind, a, p)
    out[core] = _i8(hit & (p > 0.0) & (p < math.pi)) - _i8(hit & (p > math.pi))
    return out


def _symmetrized(
    pp: np.ndarray, r: np.ndarray, side: DetectorSide, params: ModelParams
) -> np.ndarray:
    a, b, c = params.a, params.b, params.c
    band_c, keep = b * c, 1.0 - c
    # Rounding is monotone and |sin| <= 1, so every w <= a and every
    # cap <= band_c + keep * a: a pattern-half event above `reach` is never
    # detected and needs no evaluation.
    reach = max(a, band_c + keep * a)
    low = r < 0.5
    if side is DetectorSide.ONE:
        band = ~low & (r - 0.5 < b)
        pattern = np.flatnonzero(low & (r <= reach))
        r_pat = r[pattern]
    else:
        band = low & (r < b)
        r_pat = r - 0.5
        pattern = np.flatnonzero(~low & (r_pat <= reach))
        r_pat = r_pat[pattern]
    out = _i8(band & (pp < math.pi)) - _i8(band & (pp >= math.pi))

    p = pp[pattern]
    t = _half_phase(p)
    w = _pattern_height(params.kind, a, p, t)
    cap = w * keep
    cap += band_c
    core = (r_pat <= w) & (p > 0.0) & (p != math.pi)
    hit = core | (r_pat <= cap)
    quarter = (t > 0.0) & (t <= HALF_PI)
    # The sign is + where the core is on (0, pi) or the error band on a
    # first or third quarter-period: core ? p < pi : quarter.
    plus = (((p < math.pi) ^ quarter) & core) ^ quarter
    plus &= hit
    out[pattern] = _i8(plus) + _i8(plus) - _i8(hit)
    if side is DetectorSide.TWO:
        np.negative(out, out=out)
    return out


def measure(
    lam: HiddenVariable,
    detector_angle: float,
    side: DetectorSide,
    params: ModelParams,
) -> Outcome:
    """Outcome of one station for one hidden variable, in plain Python.

    This is the reference that measure_many is tested against.  It uses
    Python floats and the math module and shares no code with measure_many.
    A non-finite detector_angle raises DomainError, as HiddenVariable does
    for a phase outside [0, 2*pi).
    With pp the shifted phase, t = pp mod pi, and r_pat and r_band the
    offsets of r into the pattern half and the band half, the boundary
    conventions are:

    * pp == 0 and pp == pi lie in no core (the core is open in phase), so
      there an event can only reach the error band;
    * r_pat == w is in the core and r_pat == cap in the error band, both
      closed above; r_band == b is outside the detection band, open above;
    * r == 0.5 is in station one's band half and station two's pattern half;
    * the core and the detection band are + on pp in [0, pi) and - on
      [pi, 2*pi); the error band is + on t in (0, pi/2] and - on t == 0 and
      on (pi/2, pi); station two flips every sign;
    * the unsymmetrized station one is a core alone over all of r, which is
      also open at pp == 0 and pp == pi; its station two is a band of height
      b over all of r, - on [0, pi) and + on [pi, 2*pi).
    """
    if not math.isfinite(detector_angle):
        raise DomainError(f"detector_angle must be finite, got {detector_angle!r}")
    a, b, c = params.a, params.b, params.c
    pp = (lam.phi - detector_angle) % TWO_PI
    if pp >= TWO_PI:
        # A tiny negative difference plus 2*pi can round up to 2*pi.
        pp = 0.0
    first_half = pp < math.pi
    open_phase = pp != 0.0 and pp != math.pi

    if params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        if side is DetectorSide.ONE:
            detected = open_phase and lam.r <= a * abs(math.sin(pp))
            sign = 1 if first_half else -1
        else:
            detected = lam.r < b
            sign = -1 if first_half else 1
        return Outcome(sign if detected else 0)

    if side is DetectorSide.ONE:
        in_pattern, r_pat, r_band, flip = lam.r < 0.5, lam.r, lam.r - 0.5, 1
    else:
        in_pattern, r_pat, r_band, flip = lam.r >= 0.5, lam.r - 0.5, lam.r, -1
    if not in_pattern:
        value = (1 if first_half else -1) if r_band < b else 0
        return Outcome(flip * value)

    t = pp if first_half else pp - math.pi
    if params.kind is PatternKind.SYMMETRIZED_STAIRCASE:
        w = a if 0.25 * math.pi < t < 0.75 * math.pi else a * STAIRCASE_OUTER_LEVEL
    else:
        w = a * abs(math.sin(pp))
    cap = b * c + (1.0 - c) * w
    if open_phase and r_pat <= w:
        value = 1 if first_half else -1
    elif r_pat <= cap:
        value = 1 if 0.0 < t <= HALF_PI else -1
    else:
        value = 0
    return Outcome(flip * value)


def unsymmetrized_marginals(a: float, b: float) -> tuple[float, float]:
    """Single-station detection probabilities of the unsymmetrized pattern.

    Station one integrates the sinusoidal core, 2*a/pi; station two is the
    constant band, b.  They differ unless a = pi*b/2, which is the tell that
    distinguishes this kind from the symmetrized ones in experiments.
    """
    if a < 0.0 or b < 0.0:
        raise DomainError("pattern heights must be nonnegative")
    return (2.0 * a / math.pi, b)
