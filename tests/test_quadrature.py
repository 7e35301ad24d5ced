import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_lhv import (
    DetectorSide,
    DomainError,
    InvalidConfig,
    PatternKind,
    SingletLhvError,
    joint_table,
    nonideal_probs,
    solve_params,
)
from singlet_lhv import quadrature
from singlet_lhv.quadrature import outcome_probabilities

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE
UNSYM = PatternKind.UNSYMMETRIZED_SINUSOIDAL


class TestAgainstClosedForms:
    def test_sinusoidal_cells(self):
        p = solve_params(0.7, 0.8, SIN)
        pi = outcome_probabilities(p, 0.3, 0.3 + math.pi / 3.0)
        q = nonideal_probs(math.pi / 3.0, 0.7, 0.8, SIN)
        got = pi.prob_quad()
        np.testing.assert_allclose(got.as_tuple(), q.as_tuple(), rtol=0.0, atol=1e-9)

    def test_staircase_cells(self):
        p = solve_params(0.7, 0.8, LINE)
        pi = outcome_probabilities(p, 0.1, 2.1)
        q = nonideal_probs(2.0, 0.7, 0.8, LINE)
        np.testing.assert_allclose(
            pi.prob_quad().as_tuple(), q.as_tuple(), rtol=0.0, atol=1e-9
        )

    def test_marginals_and_mass(self):
        p = solve_params(0.7, 0.8, SIN)
        pi = outcome_probabilities(p, 0.3, 0.3 + math.pi / 3.0)
        assert pi.total() == pytest.approx(1.0, abs=1e-12)
        assert pi.prob_quad().total() == pytest.approx(0.49, abs=1e-9)
        for side in (DetectorSide.ONE, DetectorSide.TWO):
            plus, minus, none = pi.marginal(side)
            assert plus == pytest.approx(0.35, abs=1e-9)
            assert minus == pytest.approx(0.35, abs=1e-9)
            assert none == pytest.approx(0.3, abs=1e-9)

    def test_angle_wraparound(self):
        p = solve_params(0.7, 0.8, SIN)
        pi = outcome_probabilities(p, 5.0, 5.0 + math.pi / 3.0 - 2.0 * math.pi)
        q = nonideal_probs(math.pi / 3.0, 0.7, 0.8, SIN)
        np.testing.assert_allclose(
            pi.prob_quad().as_tuple(), q.as_tuple(), rtol=0.0, atol=1e-9
        )

    def test_cell_symmetries(self):
        p = solve_params(0.6, 0.7, LINE)
        pi = outcome_probabilities(p, 0.0, 1.0)
        q = pi.prob_quad()
        assert q.p_pp == pytest.approx(q.p_mm, abs=1e-10)
        assert q.p_pm == pytest.approx(q.p_mp, abs=1e-10)


class TestUnsymmetrized:
    def setup_method(self):
        self.p = solve_params(0.7, 1.0, UNSYM)
        self.pi = outcome_probabilities(self.p, 0.0, math.pi / 3.0)

    def test_coincidence_cells(self):
        a = self.p.a
        ct = math.cos(math.pi / 3.0)
        scale = a / (2.0 * math.pi)
        assert self.pi.joint(1, 1) == pytest.approx(scale * (1.0 - ct), abs=1e-10)
        assert self.pi.joint(-1, -1) == pytest.approx(scale * (1.0 - ct), abs=1e-10)
        assert self.pi.joint(1, -1) == pytest.approx(scale * (1.0 + ct), abs=1e-10)
        assert self.pi.joint(-1, 1) == pytest.approx(scale * (1.0 + ct), abs=1e-10)

    def test_asymmetric_marginals(self):
        a, b = self.p.a, self.p.b
        plus1, minus1, none1 = self.pi.marginal(DetectorSide.ONE)
        assert plus1 == pytest.approx(a / math.pi, abs=1e-10)
        assert minus1 == pytest.approx(a / math.pi, abs=1e-10)
        assert none1 == pytest.approx(1.0 - 2.0 * a / math.pi, abs=1e-9)
        plus2, minus2, none2 = self.pi.marginal(DetectorSide.TWO)
        assert plus2 == pytest.approx(0.5 * b, abs=1e-10)
        assert minus2 == pytest.approx(0.5 * b, abs=1e-10)

    def test_station_one_never_fires_alone(self):
        # the core lies strictly inside the other station's detection band
        assert self.pi.joint(1, 0) == 0.0
        assert self.pi.joint(-1, 0) == 0.0

    def test_conditional_correlation_is_full(self):
        q = self.pi.prob_quad()
        corr = (q.p_pp - q.p_pm - q.p_mp + q.p_mm) / q.total()
        assert corr == pytest.approx(-math.cos(math.pi / 3.0), abs=1e-9)


class TestJointTable:
    """The closed-form 3x3 table against the integrated one, every kind."""

    POINTS = ((SIN, 0.7, 0.8), (LINE, 0.7, 0.8), (UNSYM, 0.7, 1.0), (SIN, 0.3, 0.2))
    ANGLES = (
        (0.3, 0.3 + math.pi / 3.0),
        (1.1, 1.1),
        (2.0 * math.pi, math.pi / 3.0 + 4.0 * math.pi),
        (0.2, -2.0),
    )

    @pytest.mark.parametrize("kind,eta,v", POINTS)
    def test_matches_quadrature(self, kind, eta, v):
        p = solve_params(eta, v, kind)
        for a1, a2 in self.ANGLES:
            got = outcome_probabilities(p, a1, a2).table
            np.testing.assert_allclose(joint_table(p, a2 - a1), got, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("kind,eta,v", POINTS)
    def test_mass_and_station_rates(self, kind, eta, v):
        p = solve_params(eta, v, kind)
        if kind is UNSYM:
            rate_1, rate_2 = 2.0 * p.a / math.pi, p.b
        else:
            rate_1 = rate_2 = eta
        for theta in (0.0, 1.0, math.pi, 5.0):
            t = joint_table(p, theta)
            assert t.sum() == pytest.approx(1.0, abs=1e-15)
            # Row o1 = 0 and column o2 = 0 hold the no-detection outcomes.
            assert 1.0 - t[1].sum() == pytest.approx(rate_1, abs=1e-15)
            assert 1.0 - t[:, 1].sum() == pytest.approx(rate_2, abs=1e-15)
            assert (t >= 0.0).all()

    def test_non_finite_angles(self):
        p = solve_params(0.7, 0.8, SIN)
        for kind, v in ((SIN, 0.8), (UNSYM, 1.0)):
            with pytest.raises(DomainError):
                joint_table(solve_params(0.7, v, kind), math.nan)
        for a1, a2 in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(InvalidConfig):
                outcome_probabilities(p, a1, a2)


class TestInterface:
    def setup_method(self):
        self.p = solve_params(0.7, 0.8, SIN)

    def test_table_shape(self):
        pi = outcome_probabilities(self.p, 0.0, 0.5, r_probes=64, gl_order=8)
        assert pi.table.shape == (3, 3)
        assert (pi.angle_1, pi.angle_2) == (0.0, 0.5)

    def test_marginal_accepts_plain_side_numbers(self):
        pi = outcome_probabilities(self.p, 0.0, 0.5, r_probes=64, gl_order=8)
        assert pi.marginal(1) == pi.marginal(DetectorSide.ONE)
        assert pi.marginal(2) == pi.marginal(DetectorSide.TWO)
        with pytest.raises(InvalidConfig):
            pi.marginal(3)

    def test_joint_rejects_bad_outcomes(self):
        pi = outcome_probabilities(self.p, 0.0, 0.5, r_probes=64, gl_order=8)
        with pytest.raises(InvalidConfig):
            pi.joint(2, 0)
        with pytest.raises(InvalidConfig):
            pi.joint(0, -2)

    def test_knob_validation(self):
        for knob, bad in (
            ("r_probes", 8), ("r_probes", 100.5), ("r_probes", 64.0), ("r_probes", True),
            ("gl_order", 1), ("gl_order", 4.5), ("gl_order", "8"),
        ):
            with pytest.raises(InvalidConfig):
                outcome_probabilities(self.p, 0.0, 0.5, **{knob: bad})

    def test_integer_knobs_accept_numpy_integers(self):
        knobs = {"r_probes": 64, "gl_order": 4}
        want = outcome_probabilities(self.p, 0.0, 0.5, **knobs).table
        got = outcome_probabilities(
            self.p, 0.0, 0.5, **{k: np.int64(n) for k, n in knobs.items()}
        ).table
        assert got.tobytes() == want.tobytes()

    def test_coarse_knobs_still_close(self):
        pi = outcome_probabilities(self.p, 0.3, 0.3 + 1.0, r_probes=256, gl_order=10)
        q = nonideal_probs(1.0, 0.7, 0.8, SIN)
        np.testing.assert_allclose(
            pi.prob_quad().as_tuple(), q.as_tuple(), rtol=0.0, atol=1e-6
        )


@st.composite
def _points(draw):
    """A feasible (kind, eta, v): inside, on the frontier, at eta = 0 or at v = 0."""
    kind = draw(st.sampled_from((SIN, LINE, UNSYM)))
    k = kind.amplitude_constant
    where = draw(st.sampled_from(("inside", "frontier", "eta-zero", "v-zero")))
    if kind is UNSYM:
        # v = 1 always; the frontier is then the single point eta = 4/(K + 2).
        eta = {"frontier": 4.0 / (k + 2.0), "eta-zero": 0.0}.get(
            where, draw(st.floats(0.0, 4.0 / (k + 2.0)))
        )
        return kind, eta, 1.0
    if where == "eta-zero":
        return kind, 0.0, draw(st.floats(0.0, 1.0))
    if where == "v-zero":
        return kind, draw(st.floats(0.0, 1.0)), 0.0
    if where == "frontier":
        eta = draw(st.floats(4.0 / (k + 2.0), 1.0))
        return kind, eta, min(1.0, (4.0 / eta - 2.0) / k)
    eta = draw(st.floats(0.0, 1.0))
    v = draw(st.floats(0.0, 1.0))
    return kind, eta, min(v, (4.0 / eta - 2.0) / k) if eta > 0.0 else v


_ANGLES = st.one_of(
    st.floats(-4.0 * math.pi, 4.0 * math.pi),
    st.integers(-16, 16).map(lambda n: n * math.pi / 4.0),
)


@st.composite
def _settings(draw):
    """Setting pairs: equal, on pi/4 multiples, generic, and beyond +-2*pi."""
    a1 = draw(_ANGLES)
    return a1, draw(st.one_of(st.just(a1), _ANGLES))


class TestCutsAgainstClosedForm:
    """The cut-and-segment integral is the closed-form table to 1e-15 per cell."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(point=_points(), angles=_settings())
    def test_every_cell(self, point, angles):
        params = solve_params(*point[1:], point[0])
        a1, a2 = angles
        got = outcome_probabilities(params, a1, a2).table
        np.testing.assert_allclose(got, joint_table(params, a2 - a1), rtol=0.0, atol=1e-15)


def _band_edge_mutant(measure_many):
    """measure_many with one station's detection band cut short at 0.93*b."""

    def mutated(phi, r, angle, side, params):
        out = measure_many(phi, r, angle, side, params)
        if params.kind is UNSYM:
            band_side, offset = DetectorSide.TWO, np.asarray(r)
        else:
            band_side, offset = DetectorSide.ONE, np.asarray(r) - 0.5
        if side is band_side:
            cut = (offset >= 0.93 * params.b) & (offset < params.b)
            out = np.where(cut, np.int8(0), out)
        return out

    return mutated


class TestProbeGuard:
    @pytest.mark.parametrize("kind,eta,v", [(SIN, 0.7, 0.8), (LINE, 0.6, 0.7), (UNSYM, 0.7, 1.0)])
    def test_band_edge_mutant_is_caught(self, monkeypatch, kind, eta, v):
        params = solve_params(eta, v, kind)
        monkeypatch.setattr(quadrature, "measure_many", _band_edge_mutant(quadrature.measure_many))
        with pytest.raises(SingletLhvError, match="disagrees with the pattern cuts"):
            outcome_probabilities(params, 0.3, 1.3)

    def test_probe_on_a_cut_is_skipped(self):
        # At v = 1 the staircase cap equals its core height, and on the
        # inner steps that is a, here exactly 5/32: the third of 16 probes.
        # measure_many counts r == w into the core, which the segment above
        # the cut is not, so only the skip keeps this probe from failing.
        params = solve_params(math.sqrt(4.0 * (2.5 / 16) / LINE.amplitude_constant), 1.0, LINE)
        assert params.a == 2.5 / 16
        got = outcome_probabilities(params, 0.0, 1.0, r_probes=16).table
        np.testing.assert_allclose(got, joint_table(params, 1.0), rtol=0.0, atol=1e-15)
