import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singlet_lhv import (
    DegeneratePoint,
    DetectorSide,
    DomainError,
    HiddenVariable,
    InfeasibleParameters,
    ModelParams,
    Outcome,
    PatternKind,
    boundary,
    classify_region,
    is_feasible,
    measure,
    measure_many,
    solve_params,
    unsymmetrized_marginals,
)
from singlet_lhv.model import FRONTIER_TOL, TWO_PI

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
    def test_sinusoidal_heights(self):
        assert boundary(SIN, 0.2, 0.5 * math.pi) == 0.2
        assert boundary(SIN, 0.2, 0.0) == 0.0
        assert boundary(SIN, 0.3, math.pi / 6.0) == pytest.approx(0.15, rel=1e-15)

    def test_staircase_levels(self):
        inner = boundary(LINE, 0.4, 0.5 * math.pi)
        outer = boundary(LINE, 0.4, 0.1)
        assert inner == 0.4
        assert outer == 0.16568542494923807
        assert outer == pytest.approx(0.4 * (math.sqrt(2.0) - 1.0), rel=1e-15)

    def test_staircase_edges_take_low_level(self):
        # the inner step is an open interval
        low = 0.4 * (math.sqrt(2.0) - 1.0)
        assert boundary(LINE, 0.4, 0.0) == pytest.approx(low, rel=1e-15)
        assert boundary(LINE, 0.4, 0.25 * math.pi) == pytest.approx(low, rel=1e-15)
        assert boundary(LINE, 0.4, math.pi) == pytest.approx(low, rel=1e-15)

    def test_half_period_symmetry(self):
        phis = np.linspace(0.0, math.pi, 101)[:-1]
        lo = np.asarray(boundary(SIN, 0.37, phis))
        hi = np.asarray(boundary(SIN, 0.37, phis + math.pi))
        np.testing.assert_allclose(lo, hi, rtol=0.0, atol=1e-15)
        # staircase levels are flat inside each step; stay away from the
        # step edges, where adding pi can land the reduced phase on the
        # other side of the discontinuity
        for t in (0.1, 0.7, 0.9, 1.6, 2.3, 3.0):
            assert boundary(LINE, 0.37, t) == boundary(LINE, 0.37, t + math.pi)

    def test_array_input(self):
        out = boundary(SIN, 1.0, np.array([0.0, 0.5 * math.pi, 1.5 * math.pi]))
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
        w = boundary(SIN, p.a, 1.0)
        cap = p.b * p.c + (1.0 - p.c) * w
        lam = HiddenVariable(phi=1.0, r=0.5 * (w + cap))
        assert measure(lam, 0.0, DetectorSide.ONE, p) is Outcome.PLUS
        # past the quarter period the band sign flips to minus
        w2 = boundary(SIN, p.a, 1.0 + 0.5 * math.pi)
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
    w = boundary(p.kind, p.a, pp if pp < TWO_PI else 0.0)
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


class TestMeasureManyMatchesReference:
    """measure_many equals the event-by-event measure() for every event."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_reference_batches())
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
