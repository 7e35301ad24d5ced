import math

import numpy as np
import pytest

from singlet_lhv import (
    DetectorSide,
    DomainError,
    InvalidConfig,
    PatternKind,
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
        assert pi.coincidence() == pytest.approx(0.49, abs=1e-9)
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
            ("bisect_iters", 0), ("bisect_iters", 2.5), ("bisect_iters", -3),
        ):
            with pytest.raises(InvalidConfig):
                outcome_probabilities(self.p, 0.0, 0.5, **{knob: bad})

    def test_integer_knobs_accept_numpy_integers(self):
        knobs = {"r_probes": 64, "gl_order": 4, "bisect_iters": 20}
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


class TestRowBlocks:
    """The table does not depend on how many phi rows one block holds."""

    # With r_probes=64 a row holds 68 probes (64 plus four anchors), so these
    # give one row per block, two, an uneven mix of three and four, and one
    # block for the whole grid.
    @pytest.mark.parametrize("block", [1, 2 * 68, 3 * 68 + 5, 1 << 30])
    def test_block_size_never_moves_a_bit(self, monkeypatch, block):
        cases = [
            (solve_params(0.7, 0.8, SIN), 0.3, 1.3),
            (solve_params(0.9, 0.6, LINE), 0.0, math.pi / 4.0),
            (solve_params(0.7, 1.0, UNSYM), 5.0 - 2.0 * math.pi, 0.2 + 4.0 * math.pi),
        ]
        want = [outcome_probabilities(p, a1, a2, r_probes=64, gl_order=6).table
                for p, a1, a2 in cases]
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        for (p, a1, a2), table in zip(cases, want):
            got = outcome_probabilities(p, a1, a2, r_probes=64, gl_order=6).table
            assert got.tobytes() == table.tobytes()
