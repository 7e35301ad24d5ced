import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singlet_lhv import (
    DegeneratePoint,
    DetectorSide,
    DomainError,
    HiddenVariable,
    InfeasibleParameters,
    InvalidConfig,
    ModelParams,
    Outcome,
    PatternKind,
    classify_region,
    is_feasible,
    measure,
    measure_many,
    solve_params,
    unsymmetrized_marginals,
)
from singlet_lhv import model
from singlet_lhv.model import _TILE, FRONTIER_TOL, TWO_PI, _pattern_height, _shifted_phase
from singlet_lhv.quadrature import _STRADDLE

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE
UNSYM = PatternKind.UNSYMMETRIZED_SINUSOIDAL


class TestSolveParams:
    def test_reference_point_sin(self):
        # oracle: b = eta - eta^2/2, a = pi*v*eta^2/4, c = 0 at v = 1
        p = solve_params(0.7, 1.0, SIN)
        assert p.b == 0.45499999999999996
        assert p.a == 0.38484510006474965
        assert p.c == 0.0
        assert p.kind is SIN

    def test_partial_visibility_sin(self):
        # oracle: c = eta(1-v)/(2 - eta(1+v)) = 0.7*0.2/0.74
        p = solve_params(0.7, 0.8, SIN)
        assert p.a == pytest.approx(0.30787608005179967, rel=1e-15)
        assert p.c == pytest.approx(0.7 * 0.2 / 0.74, rel=1e-12)

    def test_staircase_amplitude(self):
        # oracle: a = v*eta^2/sqrt(2)
        p = solve_params(0.7, 0.8, LINE)
        assert p.a == pytest.approx(0.8 * 0.49 / math.sqrt(2.0), rel=1e-14)
        assert p.a == pytest.approx(0.27718585822512665, rel=1e-15)
        assert p.b == 0.45499999999999996

    def test_half_half(self):
        p = solve_params(0.5, 0.5, SIN)
        assert p.a == pytest.approx(math.pi * 0.5 * 0.25 / 4.0, rel=1e-15)
        assert p.b == 0.375
        assert p.c == pytest.approx(0.2, abs=1e-15)

    def test_frontier_a_equals_b(self):
        eta_star = 4.0 / (2.0 + math.pi)
        p = solve_params(eta_star, 1.0, SIN)
        assert p.a == pytest.approx(p.b, abs=1e-15)
        assert p.a == pytest.approx(0.47535113068520063, rel=1e-15)

    def test_c_clamped_at_full_efficiency_frontier(self):
        # the raw formula lands one ulp above 1 here
        p = solve_params(1.0, 2.0 / math.pi, SIN)
        assert p.c == 1.0
        assert p.a == pytest.approx(0.5, abs=1e-15)
        assert p.b == 0.5

    def test_degenerate_point(self):
        with pytest.raises(DegeneratePoint):
            solve_params(1.0, 1.0, SIN)
        with pytest.raises(DegeneratePoint):
            solve_params(1.0, 1.0, LINE)

    def test_infeasible_points(self):
        with pytest.raises(InfeasibleParameters):
            solve_params(0.9, 1.0, SIN)
        with pytest.raises(InfeasibleParameters):
            solve_params(1.0, 0.75, LINE)
        with pytest.raises(InfeasibleParameters):
            solve_params(1.0, 1.0, UNSYM)

    def test_unsym_needs_full_visibility(self):
        with pytest.raises(InfeasibleParameters):
            solve_params(0.5, 0.99, UNSYM)
        p = solve_params(0.7, 1.0, UNSYM)
        assert p.c == 0.0
        assert p.a == solve_params(0.7, 1.0, SIN).a

    def test_out_of_range(self):
        with pytest.raises(InfeasibleParameters):
            solve_params(-0.1, 0.5, SIN)
        with pytest.raises(InfeasibleParameters):
            solve_params(1.1, 0.5, SIN)
        with pytest.raises(InfeasibleParameters):
            solve_params(0.5, -0.2, SIN)
        with pytest.raises(InfeasibleParameters):
            solve_params(0.5, 1.2, SIN)

    def test_zero_efficiency(self):
        p = solve_params(0.0, 0.0, SIN)
        assert (p.a, p.b, p.c) == (0.0, 0.0, 0.0)


class TestFeasibility:
    def test_frontier_closed(self):
        # points exactly on K*v = 4/eta - 2 are feasible
        eta = 0.9
        v = (4.0 / eta - 2.0) / (2.0 * math.sqrt(2.0))
        assert is_feasible(eta, v, LINE)
        assert not is_feasible(eta, v + 1e-9, LINE)
        solve_params(eta, v, LINE)

    def test_eta_zero_always_feasible(self):
        assert is_feasible(0.0, 1.0, SIN)
        assert is_feasible(0.0, 0.3, LINE)

    def test_excluded_corner(self):
        assert not is_feasible(1.0, 1.0, SIN)
        assert not is_feasible(1.0, 1.0, LINE)


# Points of every kind: random ones, the range edges and NaN, and the
# frontier K*v = 4/eta - 2 (and the same line shifted by FRONTIER_TOL, where
# the decision flips) together with one ulp on either side of it.
_VALUES = st.one_of(st.floats(-0.25, 1.25), st.sampled_from((0.0, 1.0, math.nan)))


@st.composite
def _frontier_points(draw):
    kind = draw(st.sampled_from(PatternKind))
    eta = draw(st.floats(0.01, 1.0))
    offset = draw(st.sampled_from((0.0, FRONTIER_TOL)))
    v = (4.0 / eta - 2.0 + offset) / kind.amplitude_constant
    toward = draw(st.sampled_from((None, -math.inf, math.inf)))
    if toward is not None:
        v = math.nextafter(v, toward)
    return eta, v, kind


_POINTS = st.one_of(
    st.tuples(_VALUES, _VALUES, st.sampled_from(PatternKind)), _frontier_points()
)
_CORNERS = [
    (eta, v, kind) for eta in (0.0, 1.0) for v in (0.0, 1.0) for kind in PatternKind
]


def _check_point(eta, v, kind):
    try:
        p = ModelParams(eta, v, kind)
    except (InfeasibleParameters, DegeneratePoint) as exc:
        assert not is_feasible(eta, v, kind)
        corner = kind is not UNSYM and eta == 1.0 and v == 1.0
        assert isinstance(exc, DegeneratePoint) == corner
        with pytest.raises(type(exc)):
            solve_params(eta, v, kind)
    else:
        assert is_feasible(eta, v, kind)
        assert (p.eta, p.v, p.kind) == (eta, v, kind)
        cap = 1.0 if kind is UNSYM else 0.5
        assert 0.0 <= p.a <= p.b + 1e-12
        assert p.b <= cap
        assert 0.0 <= p.c <= 1.0

    if 0.0 <= eta <= 1.0 and 0.0 <= v <= 1.0:
        # reference: the efficiency-adjusted CHSH bound, written out apart
        # from the feasibility rule
        chsh = eta > 0.0 and 2.0 * math.sqrt(2.0) * v > 4.0 / eta - 2.0 + FRONTIER_TOL
        assert classify_region(eta, v).chsh_violated == chsh


class TestModelParamsValidation:
    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(_POINTS)
    def test_constructs_exactly_when_feasible(self, point):
        _check_point(*point)

    @pytest.mark.parametrize("eta, v, kind", _CORNERS)
    def test_corners(self, eta, v, kind):
        _check_point(eta, v, kind)

    @pytest.mark.parametrize("height", ["a", "b", "c"])
    def test_heights_are_not_arguments(self, height):
        with pytest.raises(TypeError):
            ModelParams(eta=0.7, v=1.0, kind=SIN, **{height: 0.3})

    def test_roundtrips_solved_values(self):
        p = solve_params(0.62, 0.44, LINE)
        q = ModelParams(p.eta, p.v, p.kind)
        assert q == p
        assert (q.a, q.b, q.c) == (p.a, p.b, p.c)


class TestBoundary:
    """The core height w(phi') that _pattern_height gives on 1-d phases."""

    def test_sinusoidal_heights(self):
        w = _pattern_height(SIN, 0.2, np.array([0.5 * math.pi, 0.0]))
        assert w.tolist() == [0.2, 0.0]
        w = _pattern_height(SIN, 0.3, np.array([math.pi / 6.0]))
        assert w[0] == pytest.approx(0.15, rel=1e-15)

    def test_staircase_levels(self):
        inner, outer = _pattern_height(LINE, 0.4, np.array([0.5 * math.pi, 0.1]))
        assert inner == 0.4
        assert outer == 0.16568542494923807
        assert outer == pytest.approx(0.4 * (math.sqrt(2.0) - 1.0), rel=1e-15)

    def test_staircase_edges_take_low_level(self):
        # the inner step is an open interval
        low = 0.4 * (math.sqrt(2.0) - 1.0)
        w = _pattern_height(LINE, 0.4, np.array([0.0, 0.25 * math.pi, math.pi]))
        np.testing.assert_allclose(w, [low] * 3, rtol=1e-15, atol=0.0)

    def test_half_period_symmetry(self):
        phis = np.linspace(0.0, math.pi, 101)[:-1]
        lo = _pattern_height(SIN, 0.37, phis)
        hi = _pattern_height(SIN, 0.37, phis + math.pi)
        np.testing.assert_allclose(lo, hi, rtol=0.0, atol=1e-15)
        # staircase levels are flat inside each step; stay away from the
        # step edges, where adding pi can land the reduced phase on the
        # other side of the discontinuity
        t = np.array([0.1, 0.7, 0.9, 1.6, 2.3, 3.0])
        np.testing.assert_array_equal(
            _pattern_height(LINE, 0.37, t), _pattern_height(LINE, 0.37, t + math.pi)
        )

    def test_array_input(self):
        out = _pattern_height(SIN, 1.0, np.array([0.0, 0.5 * math.pi, 1.5 * math.pi]))
        np.testing.assert_allclose(out, [0.0, 1.0, 1.0], atol=1e-15)


class TestMeasure:
    def setup_method(self):
        self.p = solve_params(0.7, 1.0, SIN)

    def test_core_hit(self):
        lam = HiddenVariable(phi=0.5 * math.pi, r=0.1)
        assert measure(lam, 0.0, DetectorSide.ONE, self.p) is Outcome.PLUS

    def test_core_other_half_period(self):
        lam = HiddenVariable(phi=1.5 * math.pi, r=0.1)
        assert measure(lam, 0.0, DetectorSide.ONE, self.p) is Outcome.MINUS

    def test_core_miss_gives_no_detection(self):
        lam = HiddenVariable(phi=0.5 * math.pi, r=0.49)
        assert measure(lam, 0.0, DetectorSide.ONE, self.p) is Outcome.NO_DETECTION

    def test_band_half_side_one(self):
        lam = HiddenVariable(phi=1.0, r=0.5 + 0.1)
        assert measure(lam, 0.0, DetectorSide.ONE, self.p) is Outcome.PLUS
        lam = HiddenVariable(phi=4.0, r=0.5 + 0.1)
        assert measure(lam, 0.0, DetectorSide.ONE, self.p) is Outcome.MINUS
        lam = HiddenVariable(phi=1.0, r=0.5 + self.p.b + 1e-9)
        assert measure(lam, 0.0, DetectorSide.ONE, self.p) is Outcome.NO_DETECTION

    def test_side_two_swaps_halves_and_signs(self):
        lam = HiddenVariable(phi=0.5 * math.pi, r=0.6)
        assert measure(lam, 0.0, DetectorSide.TWO, self.p) is Outcome.MINUS
        lam = HiddenVariable(phi=1.0, r=0.1)
        assert measure(lam, 0.0, DetectorSide.TWO, self.p) is Outcome.MINUS
        lam = HiddenVariable(phi=4.0, r=0.1)
        assert measure(lam, 0.0, DetectorSide.TWO, self.p) is Outcome.PLUS

    def test_detector_angle_shifts_pattern(self):
        lam = HiddenVariable(phi=0.5 * math.pi, r=0.1)
        assert measure(lam, math.pi, DetectorSide.ONE, self.p) is Outcome.MINUS
        assert measure(lam, math.pi / 3.0, DetectorSide.ONE, self.p) is Outcome.PLUS
        # shifting by exactly pi/2 parks the phase on the open core edge
        assert (
            measure(lam, -0.5 * math.pi, DetectorSide.ONE, self.p)
            is Outcome.NO_DETECTION
        )

    def test_error_band_sign_convention_at_phase_zero(self):
        # the core is open at phase 0, so (0, 0) falls to the error band,
        # whose sign at reduced phase 0 is minus on side one
        lam = HiddenVariable(phi=0.0, r=0.0)
        assert measure(lam, 0.0, DetectorSide.ONE, self.p) is Outcome.MINUS

    def test_error_band_with_partial_visibility(self):
        p = solve_params(0.7, 0.8, SIN)
        w, w2 = _pattern_height(SIN, p.a, np.array([1.0, 1.0 + 0.5 * math.pi])).tolist()
        cap = p.b * p.c + (1.0 - p.c) * w
        lam = HiddenVariable(phi=1.0, r=0.5 * (w + cap))
        assert measure(lam, 0.0, DetectorSide.ONE, p) is Outcome.PLUS
        # past the quarter period the band sign flips to minus
        cap2 = p.b * p.c + (1.0 - p.c) * w2
        lam = HiddenVariable(phi=1.0 + 0.5 * math.pi, r=0.5 * (w2 + cap2))
        assert measure(lam, 0.0, DetectorSide.ONE, p) is Outcome.MINUS

    def test_unsym_sides(self):
        p = solve_params(0.7, 1.0, UNSYM)
        lam = HiddenVariable(phi=0.5 * math.pi, r=0.2)
        assert measure(lam, 0.0, DetectorSide.ONE, p) is Outcome.PLUS
        assert measure(lam, 0.0, DetectorSide.TWO, p) is Outcome.MINUS
        lam = HiddenVariable(phi=0.5 * math.pi, r=0.6)
        assert measure(lam, 0.0, DetectorSide.ONE, p) is Outcome.NO_DETECTION

    def test_anticorrelation_property(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        phi = rng.random(20000) * 2.0 * math.pi
        r = rng.random(20000)
        for kind in (SIN, LINE):
            p = solve_params(0.75, 1.0, kind)
            for angle in (0.0, 0.4, 2.0 * math.pi / 3.0):
                o1 = measure_many(phi, r, angle, DetectorSide.ONE, p)
                o2 = measure_many(phi, r, angle, DetectorSide.TWO, p)
                both = (o1 != 0) & (o2 != 0)
                assert np.all(o1[both] == -o2[both])

    def test_outcome_values(self):
        assert Outcome.PLUS.value == 1
        assert Outcome.MINUS.value == -1
        assert Outcome.NO_DETECTION.value == 0


# measure_many against the plain-Python reference measure().  Points cover
# every kind, including the frontier a == b, full efficiency and eta == 0.
_REFERENCE_POINTS = (
    (SIN, 0.7, 0.8), (LINE, 0.9, 0.75), (UNSYM, 0.7, 1.0),
    (SIN, 1.0, 2.0 / math.pi), (LINE, 1.0, 1.0 / math.sqrt(2.0)),
    (SIN, 4.0 / (2.0 + math.pi), 1.0), (LINE, 0.75, 1.0), (SIN, 0.3, 0.0),
    (LINE, 0.5, 0.5), (SIN, 0.0, 0.5), (UNSYM, 0.3, 1.0),
)
_QUARTERS = [k * 0.25 * math.pi for k in range(8)]
# Phases on every multiple of pi/4 and one ulp either side, inside [0, 2*pi).
_ADVERSARIAL_PHI = sorted(
    {x for q in _QUARTERS for x in (q, math.nextafter(q, -1.0), math.nextafter(q, 7.0))
     if 0.0 <= x < TWO_PI}
)
# Settings on multiples of pi/4, including ones beyond +-2*pi.
_ADVERSARIAL_ANGLES = [k * 0.25 * math.pi for k in range(-24, 25)]
_R_LABELS = ("0", "0.5", "w", "cap", "b", "0.5+b", "0.5+w", "0.5+cap")


def _edge_r(label, phi, angle, p):
    """The r named by label at the event's shifted phase: an edge of either half."""
    pp = (phi - angle) % TWO_PI
    w = _pattern_height(p.kind, p.a, np.array([pp if pp < TWO_PI else 0.0]))[0].item()
    cap = p.b * p.c + (1.0 - p.c) * w
    return {
        "0": 0.0, "0.5": 0.5, "w": w, "cap": cap, "b": p.b,
        "0.5+b": 0.5 + p.b, "0.5+w": 0.5 + w, "0.5+cap": 0.5 + cap,
    }[label]


def _assert_matches_reference(phis, rs, angle, side, p):
    got = measure_many(np.array(phis), np.array(rs), angle, side, p)
    want = [measure(HiddenVariable(phi, r), angle, side, p).value
            for phi, r in zip(phis, rs)]
    assert got.dtype == np.int8
    assert got.tolist() == want


@st.composite
def _reference_batches(draw):
    """(params, side, angle, phi, r): one batch of events for one station."""
    if draw(st.booleans()):
        kind, eta, v = draw(st.sampled_from(_REFERENCE_POINTS))
    else:
        kind = draw(st.sampled_from(PatternKind))
        eta = draw(st.floats(0.0, 1.0))
        v = 1.0 if kind is UNSYM else draw(st.floats(0.0, 1.0))
    assume(is_feasible(eta, v, kind))
    p = ModelParams(eta, v, kind)
    side = draw(st.sampled_from(DetectorSide))
    angle = draw(st.one_of(
        st.floats(-20.0, 20.0), st.sampled_from(_ADVERSARIAL_ANGLES),
    ))
    phis, rs = [], []
    for _ in range(draw(st.integers(1, 24))):
        phi = draw(st.one_of(
            st.floats(0.0, TWO_PI, exclude_max=True), st.sampled_from(_ADVERSARIAL_PHI),
        ))
        if draw(st.booleans()):
            r = draw(st.floats(0.0, 1.0, exclude_max=True))
        else:
            r = _edge_r(draw(st.sampled_from(_R_LABELS)), phi, angle, p)
            toward = draw(st.sampled_from((None, -1.0, 2.0)))
            if toward is not None:
                r = math.nextafter(r, toward)
            if not 0.0 <= r < 1.0:
                continue
        phis.append(phi)
        rs.append(r)
    return p, side, angle, phis, rs


def _edge_examples(test):
    """Add batches on three boundary conventions that random draws may miss.

    On each side: a staircase at v = 1, where the error band adds nothing,
    with events at shifted phase pi/4, 3*pi/4 (mod pi) and r between the two
    step levels: the inner step is open, so none is detected.  A v < 1
    pattern with events at shifted phase pi/2 and r in (w, cap]: the error
    band is + on t in (0, pi/2], closed at pi/2.  On station two: the
    unsymmetrized pattern with detected events at shifted phase pi and one
    ulp either side of it: the + half is [pi, 2*pi), closed at pi.  On
    station one: settings far beyond one turn, +-(1e6 + 0.3) and -3e17,
    whose shifted phases _shifted_phase reduces down a deep ladder.
    """
    step = ModelParams(0.75, 1.0, LINE)
    step_phis = [k * 0.25 * math.pi for k in (1, 3, 5, 7)]
    step_r = 0.5 * (step.a * (math.sqrt(2.0) - 1.0) + step.a)
    band = ModelParams(0.7, 0.8, SIN)
    cap = band.b * band.c + (1.0 - band.c) * band.a
    band_rs = [0.5 * (band.a + cap), cap]
    for side, offset in ((DetectorSide.ONE, 0.0), (DetectorSide.TWO, 0.5)):
        test = example((step, side, 0.0, step_phis, [offset + step_r] * 4))(test)
        test = example((band, side, 0.0, [0.5 * math.pi] * 2, [offset + r for r in band_rs]))(test)
    far_phis = [0.0, 0.5 * math.pi, 2.0, math.pi, 4.0, 5.5, math.nextafter(TWO_PI, 0.0)]
    far_rs = [0.01, 0.5 * band.a, band.a, 0.6, 0.5 + band.b, 0.02, 0.1]
    for angle in (1e6 + 0.3, -(1e6 + 0.3), -3e17):
        test = example((band, DetectorSide.ONE, angle, far_phis, far_rs))(test)
    unsym = ModelParams(0.7, 1.0, UNSYM)
    at_pi = [math.nextafter(math.pi, 0.0), math.pi, math.nextafter(math.pi, 4.0)]
    return example((unsym, DetectorSide.TWO, 0.0, at_pi, [0.5 * unsym.b] * 3))(test)


class TestMeasureManyMatchesReference:
    """measure_many equals the event-by-event measure() for every event."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_reference_batches())
    @_edge_examples
    def test_random_and_adversarial_events(self, batch):
        p, side, angle, phis, rs = batch
        _assert_matches_reference(phis, rs, angle, side, p)

    @pytest.mark.parametrize("kind, eta, v", _REFERENCE_POINTS)
    @pytest.mark.parametrize("side", list(DetectorSide))
    def test_every_edge_on_every_quarter(self, kind, eta, v, side):
        p = ModelParams(eta, v, kind)
        for angle in _ADVERSARIAL_ANGLES[::3] + [0.3, -7.0, 13.0]:
            events = [
                (phi, x)
                for phi in _ADVERSARIAL_PHI
                for r in (_edge_r(label, phi, angle, p) for label in _R_LABELS)
                for x in (math.nextafter(r, -1.0), r, math.nextafter(r, 2.0))
                if 0.0 <= x < 1.0
            ]
            phis, rs = zip(*events)
            _assert_matches_reference(phis, rs, angle, side, p)

    def test_math_sin_matches_numpy_sin(self):
        # The reference uses math.sin and measure_many np.sin; where the two
        # libraries disagree by an ulp an edge event could be told apart.
        x = np.concatenate([
            np.array(_ADVERSARIAL_PHI),
            np.random.Generator(np.random.Philox(key=2)).random(4096) * TWO_PI,
        ])
        assert np.sin(x).tolist() == [math.sin(v) for v in x.tolist()]

    @pytest.mark.parametrize("kind, eta, v", _REFERENCE_POINTS[:3])
    @pytest.mark.parametrize("side", list(DetectorSide))
    def test_empty_single_and_scalar_inputs(self, kind, eta, v, side):
        p = ModelParams(eta, v, kind)
        empty = measure_many(np.array([]), np.array([]), 0.4, side, p)
        assert empty.shape == (0,) and empty.dtype == np.int8
        for phi, r in ((1.0, 0.1), (4.0, 0.1), (1.0, 0.6), (4.0, 0.6), (0.0, 0.0)):
            want = measure(HiddenVariable(phi, r), 0.4, side, p).value
            one = measure_many(np.array([phi]), np.array([r]), 0.4, side, p)
            assert one.shape == (1,) and one.tolist() == [want]
            scalar = measure_many(phi, r, 0.4, side, p)
            assert scalar.shape == () and scalar.dtype == np.int8 and int(scalar) == want
            column = measure_many(np.full((3, 1), phi), r, 0.4, side, p)
            assert column.shape == (3, 1) and column.ravel().tolist() == [want] * 3

    @pytest.mark.parametrize("kind, eta, v", _REFERENCE_POINTS[:3])
    @pytest.mark.parametrize("side", list(DetectorSide))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_or_angle_is_rejected(self, kind, eta, v, side, bad):
        # HiddenVariable rejects such a phase for measure(); r = 0.01 lies in
        # station one's pattern half, where the kinds once answered -1 or 0.
        p = ModelParams(eta, v, kind)
        phi = np.array([1.0, bad, 4.0])
        r = np.full(3, 0.01)
        with pytest.raises(DomainError):
            measure_many(phi, r, 0.4, side, p)
        with pytest.raises(DomainError):
            measure_many(np.array([1.0, 4.0]), np.array([0.01, 0.6]), bad, side, p)
        with pytest.raises(DomainError):
            measure(HiddenVariable(1.0, 0.01), bad, side, p)
        with pytest.raises(DomainError):
            measure_many(bad, 0.01, 0.0, side, p)

    def test_side_and_params_must_be_their_types(self):
        # A string side once gave station two's geometry with station one's
        # signs.  The check runs once per call, so an empty call raises too.
        p = ModelParams(0.7, 0.8, SIN)
        for side, params in (
            ("one", p), (1, p), (None, p), (DetectorSide.ONE, None), (DetectorSide.TWO, SIN),
        ):
            for phi, r in (([1.0, 4.0], [0.6, 0.3]), ([], [])):
                with pytest.raises(InvalidConfig):
                    measure_many(np.array(phi), np.array(r), 0.0, side, params)
            with pytest.raises(InvalidConfig):
                measure(HiddenVariable(1.0, 0.6), 0.0, side, params)

    @pytest.mark.parametrize("bad", [
        np.array([0.0, 3.0]), [0.0], 1j, complex(0.3, 0.0), None, "0.3", True,
    ], ids=["vector", "list", "imaginary", "complex", "none", "string", "bool"])
    def test_setting_must_be_a_real_scalar(self, bad):
        # A vector setting was once applied element by element, and a complex
        # one answered as if it were real.  The check runs once per call.
        p = ModelParams(0.7, 0.8, SIN)
        for side in DetectorSide:
            for phi, r in (([1.0, 2.0], [0.1, 0.6]), ([], [])):
                with pytest.raises(InvalidConfig):
                    measure_many(np.array(phi), np.array(r), bad, side, p)
            with pytest.raises(InvalidConfig):
                measure(HiddenVariable(1.0, 0.1), bad, side, p)

    @pytest.mark.parametrize("which", ["phi", "r"])
    @pytest.mark.parametrize("value", [complex(1.0, 0.0), complex(0.3, 0.2)])
    def test_complex_phase_or_r_is_rejected(self, which, value):
        # measure_many once dropped the imaginary part with a ComplexWarning.
        p = ModelParams(0.7, 0.8, SIN)
        events = {"phi": [1.0, 4.0], "r": [0.3, 0.1]}
        events[which][0] = value
        for side in DetectorSide:
            with pytest.raises(InvalidConfig):
                measure_many(np.array(events["phi"]), np.array(events["r"]), 0.4, side, p)
            with pytest.raises(InvalidConfig):
                measure_many(events["phi"][0], events["r"][0], 0.4, side, p)
            with pytest.raises(InvalidConfig):
                measure(HiddenVariable(events["phi"][0], events["r"][0]), 0.4, side, p)


class TestHeightFilter:
    """The sinusoidal kinds decide from a polynomial height and fall back near an edge."""

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_polynomial_error_is_a_quarter_of_the_margin(self, a):
        # Every float phase on a dense grid of [0, 2*pi), both half-periods.
        pp = np.linspace(0.0, TWO_PI, 1 << 20, endpoint=False)
        got = model._sin_height_estimate(model._half_phase(pp), a)
        err = np.abs(got - _pattern_height(SIN, a, pp)).max()
        assert 4.0 * err <= model._MARGIN
        assert model._MARGIN < 2.0**-36 == _STRADDLE[1]

    @pytest.mark.parametrize("kind, eta, v", [(SIN, 0.7, 0.8), (SIN, 0.3, 0.0), (UNSYM, 0.7, 1.0)])
    @pytest.mark.parametrize("side", list(DetectorSide))
    @pytest.mark.parametrize("angle", [0.3, -(1e6 + 0.3)])
    def test_edge_events_match_reference_through_the_fallback(
        self, monkeypatch, kind, eta, v, side, angle
    ):
        # r on the exact w and cap of each event and one ulp either side;
        # for station two, on 0.5 + w and 0.5 + cap, whose offsets lie
        # within 2**-54 of them.  Only the fallback calls _pattern_height.
        p = ModelParams(eta, v, kind)
        fallback = []

        def counting(*args, **kwargs):
            fallback.append(args[2].size)
            return _pattern_height(*args, **kwargs)

        monkeypatch.setattr(model, "_pattern_height", counting)
        phis = np.concatenate([
            _ADVERSARIAL_PHI, np.random.Generator(np.random.Philox(key=28)).random(400) * TWO_PI,
        ]).tolist()
        labels = ("w", "cap") if kind is not UNSYM or side is DetectorSide.ONE else ("b",)
        if side is DetectorSide.TWO and kind is not UNSYM:
            labels = ("0.5+w", "0.5+cap")
        events = [
            (phi, x)
            for phi in phis
            for r in (_edge_r(label, phi, angle, p) for label in labels)
            for x in (math.nextafter(r, -1.0), r, math.nextafter(r, 2.0))
            if 0.0 <= x < 1.0
        ]
        phi, r = zip(*events)
        _assert_matches_reference(phi, r, angle, side, p)
        if kind is SIN or side is DetectorSide.ONE:
            assert sum(fallback) >= len(phis)


def _mod_reference(x):
    """np.mod(x, 2*pi) with a result of 2*pi mapped to 0."""
    want = np.mod(x, TWO_PI)
    want[want >= TWO_PI] = 0.0
    return want


class TestShiftedPhase:
    """_shifted_phase's ladder equals np.mod bit for bit, far beyond one turn."""

    @staticmethod
    def _assert_matches_mod(x):
        x = np.array(x, dtype=float)
        got = _shifted_phase(x, 0.0)
        assert got.view(np.int64).tolist() == _mod_reference(x).view(np.int64).tolist()

    def test_multiples_of_two_pi_and_their_neighbours(self):
        ks = {2**j + d for j in range(41) for d in (-1, 0, 1)} | {3, 5, 7, 1000, 2**40}
        ks |= set(np.random.Generator(np.random.Philox(key=25)).integers(1, 2**40, 64).tolist())
        turns = np.array(sorted(k * TWO_PI for k in ks if 1 <= k <= 2**40))
        turns = np.concatenate([turns, -turns])
        self._assert_matches_mod(np.concatenate([
            turns, np.nextafter(turns, -np.inf), np.nextafter(turns, np.inf),
        ]))

    def test_zeros_subnormals_and_huge_values(self):
        self._assert_matches_mod([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
        for x in (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300):
            self._assert_matches_mod([x])

    def test_tile_beyond_two_pi_on_both_signs(self):
        u = np.random.Generator(np.random.Philox(key=26)).random(_TILE)
        self._assert_matches_mod(100.0 * (2.0 * u - 1.0))
        self._assert_matches_mod(np.ldexp(2.0 * u - 1.0, np.arange(_TILE) % 64))

    @pytest.mark.parametrize("far", [3e17, -3e17, 2.0 * TWO_PI, -TWO_PI])
    def test_one_element_out_of_range(self, far):
        x = np.linspace(-6.0, 6.0, 101)
        x[37] = far
        self._assert_matches_mod(x)


class TestTiles:
    """Inputs on either side of _TILE events match measure() event by event."""

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 5])
    def test_matches_reference_across_tile_edges(self, n):
        u = np.random.Generator(np.random.Philox(key=n)).random((n, 2))
        phis, rs = (TWO_PI * u[:, 0]).tolist(), u[:, 1].tolist()
        for kind, eta, v in _REFERENCE_POINTS[:3]:
            p = ModelParams(eta, v, kind)
            # The second angle lies beyond two turns, so every slice is reduced.
            for angle, side in ((0.3, DetectorSide.ONE), (2.0 + 4.0 * math.pi, DetectorSide.TWO)):
                _assert_matches_reference(phis, rs, angle, side, p)

    def test_broadcast_input_spanning_tiles_keeps_shape(self):
        p = ModelParams(0.9, 0.75, LINE)
        phi = np.linspace(0.0, TWO_PI, 7, endpoint=False)[:, None]
        r = (np.arange(_TILE // 3) + 0.5)[None, :] / (_TILE // 3)
        got = measure_many(phi, r, 0.3, DetectorSide.TWO, p)
        assert got.shape == (7, _TILE // 3) and got.size > 2 * _TILE
        want = [
            measure(HiddenVariable(x, y), 0.3, DetectorSide.TWO, p).value
            for x, y in zip(*(a.ravel().tolist() for a in np.broadcast_arrays(phi, r)))
        ]
        assert got.ravel().tolist() == want

    def test_reduction_needed_in_one_tile_only(self):
        # With the setting at -1, phi - angle reaches 2*pi only where
        # phi >= 2*pi - 1, and only the second slice holds such phases.
        p = ModelParams(0.7, 0.8, SIN)
        u = np.random.Generator(np.random.Philox(key=5)).random((3 * _TILE + 5, 2))
        phi = (TWO_PI - 1.5) * u[:, 0]
        phi[_TILE:2 * _TILE] += 1.5
        assert (phi[_TILE:2 * _TILE] + 1.0 >= TWO_PI).any()
        assert (np.delete(phi, np.s_[_TILE:2 * _TILE]) + 1.0 < TWO_PI).all()
        for side in DetectorSide:
            _assert_matches_reference(phi.tolist(), u[:, 1].tolist(), -1.0, side, p)

    @pytest.mark.parametrize("kind, eta, v", _REFERENCE_POINTS[:3])
    def test_nan_in_last_tile_is_rejected(self, kind, eta, v):
        p = ModelParams(eta, v, kind)
        phi = np.full(3 * _TILE + 5, 1.0)
        phi[-1] = math.nan
        for side in DetectorSide:
            with pytest.raises(DomainError):
                measure_many(phi, np.full(phi.size, 0.01), 0.4, side, p)


class TestTransientMemory:
    """measure_many's temporaries stay near 17 bytes per event of a slice.

    The largest are _shifted_phase's, 17 bytes, and for a setting beyond
    one turn the 64 KiB cast buffer of its ladder; the kernels free the
    whole-slice arrays before they work on the gathered events.  On
    3 * _TILE + 5 events the peak, with the int8 result, reads 6.68 bytes
    per event at setting 0.3 and 7.36 beyond one turn (numpy 2.4).  Kernels
    that keep the whole-slice phases alive read 10.7 to 13.1 at this slice
    size, and push the quadrature oracle's heap past glibc's trim threshold,
    so that every oracle call faults its pages back in.
    """

    BYTES_PER_EVENT = 8.5

    @pytest.mark.parametrize("side", list(DetectorSide))
    @pytest.mark.parametrize("kind, eta, v", _REFERENCE_POINTS)
    def test_peak_per_event(self, kind, eta, v, side):
        n = 3 * _TILE + 5
        u = np.random.Generator(np.random.Philox(key=n)).random((2, n))
        phi, r = TWO_PI * u[0], u[1]
        p = ModelParams(eta, v, kind)
        for angle in (0.3, 2.0 + 4.0 * math.pi):
            tracemalloc.start()
            try:
                measure_many(phi, r, angle, side, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / n <= self.BYTES_PER_EVENT


class TestHiddenVariable:
    def test_domain(self):
        with pytest.raises(DomainError):
            HiddenVariable(phi=-0.1, r=0.5)
        with pytest.raises(DomainError):
            HiddenVariable(phi=2.0 * math.pi, r=0.5)
        with pytest.raises(DomainError):
            HiddenVariable(phi=1.0, r=1.0)


def test_unsymmetrized_marginals():
    m1, m2 = unsymmetrized_marginals(0.38484510006474965, 0.455)
    assert m1 == pytest.approx(0.245, rel=1e-14)
    assert m2 == 0.455
    with pytest.raises(DomainError):
        unsymmetrized_marginals(-0.1, 0.4)


@pytest.mark.parametrize("a, b", [
    (math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, math.inf), (0.1, -0.1),
])
def test_unsymmetrized_marginals_rejects_nan_and_inf(a, b):
    with pytest.raises(DomainError):
        unsymmetrized_marginals(a, b)
