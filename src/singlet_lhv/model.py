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
bound of Garg and Mermin, and chsh_bound is the one place 4/eta - 2 is
written; analytic re-exports it.  The ideal corner eta = v = 1 makes c an
indeterminate 0/0 and is rejected separately.  One private rule,
_infeasibility, makes every one of these decisions for is_feasible,
ModelParams and solve_params alike.

The response is written twice.  measure() decides one event in plain
Python, straight from the geometry above, and states every boundary
convention; it is the reference.  measure_many() is the vectorized kernel
that the sampler and the quadrature oracle call; it evaluates each
symmetrized station's pattern only on that station's own r-half.  For the
sinusoidal kinds it decides from a polynomial estimate of a*|sin phi'|
and calls libm's sin only for events within a proven margin of an edge,
on measure()'s own float operations.  Tests hold the two decisions equal
event by event.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint, DomainError, InfeasibleParameters
from .errors import SingletLhvError, _check_real, _check_type, _check_unit

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
SQRT2 = math.sqrt(2.0)

#: Height of the outer staircase steps relative to the inner one.
STAIRCASE_OUTER_LEVEL = SQRT2 - 1.0

#: Events measure_many evaluates at a time.  Each numpy call in a slice
#: releases the GIL and takes it back, so at two sampler threads a larger
#: slice means fewer contended handoffs per pair: 2**15 halves them against
#: 2**14.  The sinusoidal kinds spend about 20 of a slice's calls on the
#: Horner steps and margin test that replace libm's sin, which still runs on
#: the rare events near an edge.  The kernels keep 17 to 19 bytes of
#: temporaries per event, so a slice's peak stays near 600 KiB, inside L2
#: and below the heap growth at which glibc trims and the quadrature oracle
#: faults its pages back in.
_TILE = 1 << 15

#: Absolute slack granted when comparing against the feasibility frontier,
#: applied in the scaled units of K*v vs 4/eta - 2.  Only _infeasibility
#: compares against the frontier, so no two feasibility decisions disagree.
FRONTIER_TOL = 1e-12

#: Taylor coefficients of cos u through u**18, (-1)**k / (2k)! for u**(2k):
#: sin t = cos(t - pi/2), so on t in [0, pi) they give the sinusoidal
#: height's polynomial S in z = (t - pi/2)**2.
_COS_TAYLOR = tuple((-1) ** k / math.factorial(2 * k) for k in range(10))

#: How far r may lie from a polynomial height and still be decided by it;
#: _sin_height_estimate proves that no height errs by more than a quarter of it.
_MARGIN = 2.0**-44


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


class DetectorSide(enum.Enum):
    """The two measurement stations."""

    ONE = 1
    TWO = 2


class Outcome(enum.Enum):
    PLUS = 1
    MINUS = -1
    NO_DETECTION = 0


@dataclass(frozen=True)
class HiddenVariable:
    """One shared hidden variable lam = (phi, r), each checked by errors._check_real."""

    phi: float
    r: float

    def __post_init__(self) -> None:
        if not (0.0 <= _check_real("phi", self.phi) < TWO_PI):
            raise DomainError(f"phi must lie in [0, 2*pi), got {self.phi!r}")
        if not (0.0 <= _check_real("r", self.r) < 1.0):
            raise DomainError(f"r must lie in [0, 1), got {self.r!r}")


def chsh_bound(eta: float) -> float:
    """Largest S any local model must respect at efficiency eta, 4/eta - 2.

    It is also the cap on K*v in every pattern frontier.
    """
    _check_unit("eta", eta, positive=True)
    return _chsh_bound(eta)


def _chsh_bound(eta: float) -> float:
    """chsh_bound for an eta already checked."""
    return 4.0 / eta - 2.0


def _infeasibility(eta: float, v: float, kind: PatternKind) -> SingletLhvError | None:
    """The error a pattern at (eta, v, kind) raises, or None when it exists.

    This is the package's one feasibility rule.  A wrong type raises
    InvalidConfig.  In order: both values must lie in [0, 1] (NaN never
    does); the unsymmetrized kind needs v == 1; the symmetrized kinds
    exclude the corner eta = v = 1; and every eta > 0 must satisfy the
    frontier K*v <= 4/eta - 2 + FRONTIER_TOL.
    """
    eta, v = _check_real("eta", eta), _check_real("v", v)
    _check_type("kind", kind, PatternKind)
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
    bound = _chsh_bound(eta) if eta > 0.0 else math.inf
    if not kind.amplitude_constant * v <= bound + FRONTIER_TOL:
        return InfeasibleParameters(
            f"(eta, v) = ({eta!r}, {v!r}) violates "
            f"{kind.amplitude_constant!r} * v <= 4/eta - 2 = {bound!r}"
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
    constructor arguments.  On a feasible point b <= 1/2, and a <= b holds
    up to slack, because b - a = eta**2/4 * (4/eta - 2 - K*v) in exact
    arithmetic.  The slack is twofold.  Rounding a and b can leave a above b
    on the frontier itself: at max_visibility(eta, kind) over 20,000 eta,
    a exceeds b at 1,436 sinusoidal and 1,153 staircase points, by one or
    two ulps (2.4e-16 relative).  And a point up to FRONTIER_TOL beyond the
    frontier is feasible, where a may exceed b by eta**2/4 * FRONTIER_TOL.
    No height is adjusted for either.
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


def _half_phase(pp: np.ndarray) -> np.ndarray:
    """The phase within its half-period: pp on [0, pi), pp - pi on [pi, 2*pi).

    Written as -pi * (pp >= pi) + pp, one new array and no float temporary;
    pp + (-pi) is pp - pi, and pp + (-0.0) is pp.  By the Sterbenz lemma
    pp - pi is exact on [pi, 2*pi), so t > 0 holds exactly where pp is
    neither 0 nor pi.
    """
    t = np.multiply(pp >= math.pi, -math.pi)
    t += pp
    return t


def _sin_height_estimate(t: np.ndarray, a: float) -> np.ndarray:
    """a * S(t), within _MARGIN / 4 of the exact height a*|sin pp| for t = _half_phase(pp).

    S is the Taylor polynomial of sin t = cos u, u = t - pi/2, through
    u**18, evaluated by Horner in z = u*u with the coefficients a * c_k;
    t's array is overwritten with z.  For every a in [0, 1] (a pattern has
    a <= b <= 1/2, up to FRONTIER_TOL), the exact height w = fl(a *
    |libm sin pp|) and this estimate differ by at most 1.2e-14:

    * truncation: |u| <= pi/2, so Taylor's remainder is at most
      (pi/2)**20 / 20! < 3.5e-15, times a;
    * Horner: ten rounded coefficients and nine multiply-add steps err by at
      most gamma_19 * sum_k |c_k| z**k <= 19 * 2**-53 * cosh(pi/2) < 5.3e-15,
      times a;
    * the argument: u = t - fl(pi/2) rounds by at most 2**-54 and misses
      pi/2 by 6.2e-17, z = u*u rounds by 2.5 * 2**-53, and on [pi, 2*pi)
      t = pp - fl(pi) misses pp - pi by 1.3e-16; as |d cos u/du| <= 1 and
      |dS/dz| <= 1/2, together less than 6e-16;
    * libm's sin errs by less than one ulp, 1.2e-16, and a * |sin| rounds
      by 2**-54 more.

    The error-band cap, keep * w + band_c with keep in [0, 1], adds two
    roundings of numbers below 1 on each side, so its estimate is off by at
    most 1.3e-14 as well.  Both lie far below _MARGIN = 2**-44 (5.7e-14),
    which lies far below the quadrature oracle's straddle offset of 2**-36,
    so no straddle probe needs the exact path.
    """
    z = np.subtract(t, HALF_PI, out=t)
    z *= z
    w = np.multiply(z, a * _COS_TAYLOR[-1])
    for coef in _COS_TAYLOR[-2:0:-1]:
        w += a * coef
        w *= z
    w += a * _COS_TAYLOR[0]
    return w


def _unsure(*gaps: np.ndarray) -> np.ndarray | None:
    """Indices where any gap r - estimate lies within _MARGIN of zero, or None.

    Rounding is monotone and _MARGIN is a float, so a rounded gap beyond
    +-_MARGIN has the sign of the exact one.  The gaps are overwritten, and
    one reduction settles the common case, where no event is near an edge.
    """
    near = np.abs(gaps[0], out=gaps[0])
    for gap in gaps[1:]:
        np.minimum(near, np.abs(gap, out=gap), out=near)
    if not near.size or near.min() > _MARGIN:
        return None
    return np.flatnonzero(near <= _MARGIN)


def _pattern_height(
    kind: PatternKind,
    a: float,
    phi: np.ndarray,
    t: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """w at the 1-d phases phi, written into out when given (it may be phi).

    t is _half_phase(phi), which the staircase needs.
    """
    if kind is PatternKind.SYMMETRIZED_STAIRCASE:
        if t is None:
            t = _half_phase(phi)
        inner = (t > 0.25 * math.pi) & (t < 0.75 * math.pi)
        # a on the inner step, else max(0.0, a * outer level): exact, and a
        # pass each with no float temporary.
        w = np.multiply(inner, a, out=out)
        return np.maximum(w, a * STAIRCASE_OUTER_LEVEL, out=w)
    w = np.sin(phi, out=out)
    np.abs(w, out=w)
    w *= a
    return w


def _shifted_phase(phi: np.ndarray, detector_angle: float) -> np.ndarray:
    """(phi - detector_angle) mod 2*pi on 1-d phi, bit for bit as np.mod gives it.

    np.mod(x, 2*pi) is the truncated remainder fmod(x, 2*pi), plus 2*pi when
    that is negative.  While phi and the setting both lie in [0, 2*pi) every
    |x| < 2*pi is its own remainder, and the range test on the minimum and
    maximum skips the reduction.  Only when that test fails are the same two
    values checked for NaN and infinities, which raise DomainError.

    Otherwise the remainder is taken by a ladder of exact subtractions, and
    no libm call remains.  For each step s = 2**k * 2*pi, from the largest
    s <= max|x| down to 2*pi, subtract s where x >= s and add s where
    x <= -s; a rung that no element reaches on a side is skipped.  Each
    rung receives |x| < 2*s, and by the Sterbenz lemma (s <= |x| <= 2*s
    makes |x| - s exact) it leaves |x| < s, exactly and with the sign of x
    or zero.  So the ladder ends on x - n*2*pi inside (-2*pi, 2*pi), which
    is fmod's result bit for bit but for the sign of a zero, and adding
    +0.0 below clears that sign in either case.
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
            reach, step = max(-lo, hi), TWO_PI
            while step + step <= reach:
                step += step
            while step >= TWO_PI:
                if hi >= step:
                    out -= step * (out >= step)
                if lo <= -step:
                    out += step * (out <= -step)
                step *= 0.5
    fix = (out < 0.0).astype(np.float64)
    fix *= TWO_PI
    out += fix
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
    0-d pair gives a 0-d result.  phi, r and the setting pass errors'
    real-number rule, _check_real; a non-finite setting or phase raises
    DomainError, and so does an r outside [0, 1), as in HiddenVariable.
    _shifted_phase reduces phi - detector_angle mod 2*pi exactly, without
    libm.  Side and params are checked as in measure().  Event by event the
    outcome equals measure(), the plain-Python reference.

    A symmetrized station evaluates its pattern only on its own r-half.  The
    constant detection band of the other half is decided for the whole array
    with comparisons alone.  The pattern-half events that lie no higher than
    the tallest core or error-band height are then gathered, and only they
    pay for the height, the error-band cap and the quarter-period test.  The
    unsymmetrized station one evaluates its core only where r <= a.  The
    staircase height is exact.  The sinusoidal height is the estimate
    _sin_height_estimate, which settles every core and cap test whose r lies
    more than _MARGIN from the estimated edge.  The rest, under one event in
    1e12 of uniform draws, are recomputed on the exact path: np.sin of the
    shifted phase and the tests in measure()'s float operations.  So the
    decisions, not the heights, equal measure()'s bit for bit.

    The events are worked through in slices of at most _TILE, each written
    by its kernel straight into one preallocated result.  A slice is large
    enough that two sampler threads seldom wait on each other's GIL
    handoffs, and each kernel frees its whole-slice arrays before it works
    on the gathered events, so a slice's temporaries stay near 17 bytes per
    event, 19 for a setting beyond one turn (see _TILE).  Every step acts on
    each event alone, so the slices give the result of one pass bit for bit;
    a non-finite phase in any slice raises.  The range of r is checked once
    per call, by one min and one max.
    """
    _check_type("side", side, DetectorSide)
    _check_type("params", params, ModelParams)
    detector_angle = _check_real("detector_angle", detector_angle)
    if not math.isfinite(detector_angle):
        raise DomainError(f"detector_angle must be finite, got {detector_angle!r}")
    phi, r = _check_real("phi", phi, array=True), _check_real("r", r, array=True)
    # min and max propagate NaN, which fails the test as HiddenVariable's does.
    if r.size and not (0.0 <= r.min() and r.max() < 1.0):
        raise DomainError(
            f"r must lie in [0, 1), got values in [{float(r.min())!r}, {float(r.max())!r}]"
        )
    if phi.shape != r.shape:
        phi, r = np.broadcast_arrays(phi, r)
    shape = phi.shape
    phi = phi.reshape(-1)
    r = r.reshape(-1)
    if params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        kernel = _unsymmetrized
    else:
        kernel = _symmetrized
    out = np.empty(phi.size, dtype=np.int8)
    for lo in range(0, phi.size, _TILE):
        tile = slice(lo, lo + _TILE)
        kernel(out[tile], phi[tile], r[tile], detector_angle, side, params)
    return out.reshape(shape)


def _unsymmetrized(
    out: np.ndarray, phi: np.ndarray, r: np.ndarray, detector_angle: float,
    side: DetectorSide, params: ModelParams,
) -> None:
    a, b = params.a, params.b
    pp = _shifted_phase(phi, detector_angle)
    if side is DetectorSide.TWO:
        hit = r < b
        np.subtract(_i8(hit & (pp >= math.pi)), _i8(hit & (pp < math.pi)), out=out)
        return
    # Station one is a core over the whole r-interval, and w <= a.
    out.fill(0)
    core = np.flatnonzero(r <= a)
    p = pp[core]
    del pp
    plus = (p > 0.0) & (p < math.pi)
    minus = p > math.pi
    t = _half_phase(p)
    del p
    r_core = r[core]
    w = _sin_height_estimate(t, a)
    gap = np.subtract(r_core, w, out=w)
    hit = gap <= 0.0
    unsure = _unsure(gap)
    if unsure is not None:
        w = _pattern_height(params.kind, a, _shifted_phase(phi[core[unsure]], detector_angle))
        hit[unsure] = r_core[unsure] <= w
    out[core] = _i8(plus & hit) - _i8(minus & hit)


def _upper_edge(height: float) -> float:
    """The least float not below 0.5 + height, for height in [0, 1/2].

    x - 0.5 is exact for x in [1/2, 1] (Sterbenz), so on r >= 1/2 the test
    r - 0.5 < height is r < _upper_edge(height), and needs no float array.
    """
    edge = 0.5 + height
    return edge if edge - 0.5 >= height else math.nextafter(edge, math.inf)


def _exact_tests(
    r_pat: np.ndarray, w: np.ndarray, is_open: np.ndarray, keep: float, band_c: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The core and detection tests on exact heights w, in measure()'s float operations.

    w's array becomes the cap's.
    """
    core = (r_pat <= w) & is_open
    cap = w
    cap *= keep
    cap += band_c
    hit = core | (r_pat <= cap)
    return core, hit


def _symmetrized(
    out: np.ndarray, phi: np.ndarray, r: np.ndarray, detector_angle: float,
    side: DetectorSide, params: ModelParams,
) -> None:
    a, b, c = params.a, params.b, params.c
    band_c, keep = b * c, 1.0 - c
    # Rounding is monotone and |sin| <= 1, so every w <= a and every
    # cap <= band_c + keep * a: a pattern-half event above `reach` is never
    # detected and needs no evaluation.
    reach = max(a, band_c + keep * a)
    pp = _shifted_phase(phi, detector_angle)
    low = r < 0.5
    if side is DetectorSide.ONE:
        band = ~low & (r < _upper_edge(b))
        pattern = np.flatnonzero(low & (r <= reach))
    else:
        band = low & (r < b)
        # No float r with r - 0.5 <= reach lies above 0.5 + reach rounded,
        # and an event admitted above reach is evaluated and not detected.
        pattern = np.flatnonzero(~low & (r <= 0.5 + reach))
    plus = band & (pp < math.pi)
    np.add(_i8(plus), _i8(plus), out=out)
    out -= _i8(band)
    # Only the gathered pattern-half events go on; the whole-slice arrays
    # are freed first, so the slice's peak memory stays _shifted_phase's.
    del low, band, plus
    p = pp[pattern]
    del pp
    r_pat = r[pattern]
    if side is DetectorSide.TWO:
        r_pat -= 0.5

    first = p < math.pi
    t = _half_phase(p)
    is_open = t > 0.0
    quarter = is_open & (t <= HALF_PI)
    if params.kind is PatternKind.SYMMETRIZED_STAIRCASE:
        core, hit = _exact_tests(
            r_pat, _pattern_height(params.kind, a, p, t, out=p), is_open, keep, band_c
        )
    else:
        del p
        w = _sin_height_estimate(t, a)
        cap = np.multiply(w, keep, out=t)
        cap += band_c
        core_gap = np.subtract(r_pat, w, out=w)
        cap_gap = np.subtract(r_pat, cap, out=cap)
        # Where t is 0 the exact w is below 1e-16, so the estimate lies
        # below _MARGIN; as r_pat >= 0, a gap there is near or positive, and
        # the open phase needs testing only on the exact path.
        core = core_gap <= 0.0
        hit = cap_gap <= 0.0
        hit |= core
        unsure = _unsure(core_gap, cap_gap)
        if unsure is not None:
            w = _pattern_height(
                params.kind, a, _shifted_phase(phi[pattern[unsure]], detector_angle)
            )
            core[unsure], hit[unsure] = _exact_tests(
                r_pat[unsure], w, is_open[unsure], keep, band_c
            )
    # The sign is + where the core is on (0, pi) or the error band on a
    # first or third quarter-period: core ? pp < pi : quarter.
    plus = ((first ^ quarter) & core) ^ quarter
    plus &= hit
    out[pattern] = _i8(plus) + _i8(plus) - _i8(hit)
    if side is DetectorSide.TWO:
        np.negative(out, out=out)


def measure(
    lam: HiddenVariable,
    detector_angle: float,
    side: DetectorSide,
    params: ModelParams,
) -> Outcome:
    """Outcome of one station for one hidden variable, in plain Python.

    This is the reference that measure_many is tested against.  It uses
    Python floats and the math module and shares no code with measure_many
    beyond the input checks.  The setting passes errors' real-number rule,
    _check_real, and a non-finite one raises DomainError; a side that is not
    a DetectorSide or params that are not a ModelParams raise InvalidConfig.
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
    _check_type("side", side, DetectorSide)
    _check_type("params", params, ModelParams)
    detector_angle = _check_real("detector_angle", detector_angle)
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
    a, b = _check_real("a", a), _check_real("b", b)
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise DomainError(f"pattern heights must be finite and nonnegative, got {a!r} and {b!r}")
    return (2.0 * a / math.pi, b)
