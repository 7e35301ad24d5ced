import math

import numpy as np
import pytest

from singlet_lhv import (
    BELL_CRITICAL_EFFICIENCY,
    CHSH_CRITICAL_EFFICIENCY,
    FULL_EFFICIENCY_MAX_VISIBILITY,
    FULL_VISIBILITY_MAX_EFFICIENCY,
    STANDARD_CHSH_ANGLES,
    ChshAngles,
    DegeneratePoint,
    DomainError,
    InfeasibleParameters,
    PatternKind,
    bell_generalized_slack,
    chsh_bound,
    chsh_value,
    classify_region,
    correlation,
    line_g,
    marginal_prob,
    max_visibility,
    nonideal_probs,
    qm_probs,
    reduce_theta,
    solve_params,
)

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE


class TestQmProbs:
    def test_aligned(self):
        q = qm_probs(0.0)
        assert q.p_pp == 0.0
        assert q.p_pm == 0.5
        assert q.p_mp == 0.5
        assert q.p_mm == 0.0

    def test_third_pi(self):
        q = qm_probs(math.pi / 3.0)
        assert q.p_pp == 0.12499999999999997
        assert q.p_pm == 0.375
        assert q.as_tuple() == (q.p_pp, q.p_pm, q.p_mp, q.p_mm)

    def test_normalized(self):
        for theta in (0.0, 0.3, math.pi / 2.0, 2.9, math.pi):
            assert qm_probs(theta).total() == pytest.approx(1.0, rel=1e-15)

    def test_antiperiodic_swap(self):
        q = qm_probs(1.1)
        w = qm_probs(1.1 + math.pi)
        assert q.p_pp == pytest.approx(w.p_pm, rel=1e-12)
        assert q.p_pm == pytest.approx(w.p_pp, rel=1e-12)


class TestLineG:
    def test_knots(self):
        assert line_g(0.0) == 1.0
        assert line_g(math.pi) == -1.0
        assert line_g(math.pi / 4.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        assert line_g(3.0 * math.pi / 4.0) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)

    def test_odd_about_half_pi(self):
        assert line_g(math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)
        for t in (0.2, 0.6, 1.1, 1.5):
            assert line_g(math.pi / 2.0 + t) == pytest.approx(
                -line_g(math.pi / 2.0 - t), abs=1e-14
            )

    def test_even_and_periodic(self):
        assert line_g(-math.pi / 4.0) == line_g(math.pi / 4.0)
        assert line_g(math.pi / 4.0 + 2.0 * math.pi) == pytest.approx(
            line_g(math.pi / 4.0), abs=1e-14
        )

    def test_outer_to_middle_slope_ratio(self):
        outer = (line_g(0.0) - line_g(math.pi / 4.0)) / (math.pi / 4.0)
        middle = (line_g(math.pi / 4.0) - line_g(3.0 * math.pi / 4.0)) / (math.pi / 2.0)
        assert outer / middle == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)

    def test_max_deviation_from_cos(self):
        grid = np.linspace(0.0, math.pi, 100001)
        dev = np.max(np.abs(line_g(grid) - np.cos(grid)))
        assert dev == pytest.approx(0.07037762254020385, rel=1e-10)
        assert dev < 0.0704

    def test_array_in_array_out(self):
        out = line_g(np.array([0.0, math.pi]))
        np.testing.assert_allclose(out, [1.0, -1.0], atol=0.0)


class TestNonidealProbs:
    def test_sinusoidal_cell(self):
        q = nonideal_probs(math.pi / 3.0, 0.7, 1.0, SIN)
        assert q.p_pp == 0.7**2 * (1.0 - math.cos(math.pi / 3.0)) / 4.0
        assert q.p_pp == 0.06124999999999998
        assert q.p_pm == q.p_mp
        assert q.p_pp == q.p_mm

    def test_staircase_cell(self):
        q = nonideal_probs(math.pi / 4.0, 1.0, 1.0, LINE)
        assert q.p_pp == 0.07322330470336313
        assert q.p_pp == pytest.approx(0.25 * (1.0 - 1.0 / math.sqrt(2.0)), rel=1e-14)

    def test_total_is_eta_squared(self):
        for eta, v in ((0.7, 0.8), (0.5, 0.5), (1.0, 0.3)):
            for kind in (SIN, LINE):
                q = nonideal_probs(1.234, eta, v, kind)
                assert q.total() == pytest.approx(eta * eta, rel=1e-14)

    def test_visibility_flattens_cells(self):
        q = nonideal_probs(0.0, 0.8, 0.0, SIN)
        assert q.p_pp == q.p_pm == q.p_mp == q.p_mm == pytest.approx(0.16, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nonideal_probs(0.1, -0.1, 0.5, SIN)
        with pytest.raises(DomainError):
            nonideal_probs(0.1, 0.5, 1.5, SIN)

    def test_unsymmetrized_kind_is_refused(self):
        # Its cells are not eta**2 (1 -/+ v g)/4; joint_table gives them.
        with pytest.raises(DomainError, match="joint_table"):
            nonideal_probs(0.0, 0.7, 1.0, PatternKind.UNSYMMETRIZED_SINUSOIDAL)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta(self, theta):
        with pytest.raises(DomainError):
            nonideal_probs(theta, 0.5, 0.5, SIN)
        with pytest.raises(DomainError):
            nonideal_probs(np.array([0.1, theta]), 0.5, 0.5, LINE)


def test_marginal_prob():
    assert marginal_prob(0.7) == 0.35
    assert marginal_prob(0.0) == 0.0
    assert marginal_prob(1.0) == 0.5
    with pytest.raises(DomainError):
        marginal_prob(1.0000001)
    with pytest.raises(DomainError):
        marginal_prob(-0.2)


class TestCorrelation:
    def test_sinusoidal(self):
        assert correlation(0.0, 1.0, SIN) == -1.0
        assert correlation(math.pi, 0.8, SIN) == pytest.approx(0.8, rel=1e-14)
        assert correlation(math.pi / 3.0, 0.8, SIN) == pytest.approx(
            -0.8 * math.cos(math.pi / 3.0), rel=1e-14
        )

    def test_staircase(self):
        assert correlation(math.pi / 4.0, 0.8, LINE) == -0.565685424949238

    def test_no_angle_reduction_artifacts(self):
        # the sinusoidal shape feeds theta straight to cos
        assert correlation(2.0 * math.pi, 1.0, SIN) == -math.cos(2.0 * math.pi)

    def test_domain(self):
        with pytest.raises(DomainError):
            correlation(0.5, -0.1, SIN)
        for theta in (math.inf, math.nan, np.array([0.0, -math.inf])):
            with pytest.raises(DomainError):
                correlation(theta, 0.5, LINE)


class TestChsh:
    def test_standard_angles(self):
        s = STANDARD_CHSH_ANGLES
        assert (s.phi_a, s.phi_b) == (0.0, 0.5 * math.pi)
        assert (s.phi_c, s.phi_d) == (0.25 * math.pi, 0.75 * math.pi)

    def test_value_sinusoidal(self):
        assert chsh_value(1.0, SIN) == 2.82842712474619
        assert chsh_value(1.0, SIN) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert chsh_value(0.5, SIN) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_value_staircase(self):
        assert chsh_value(0.9, LINE) == pytest.approx(0.9 * 2.0 * math.sqrt(2.0), rel=1e-14)

    def test_shift_invariance(self):
        shifted = ChshAngles(
            0.1, 0.1 + 0.5 * math.pi, 0.1 + 0.25 * math.pi, 0.1 + 0.75 * math.pi
        )
        assert chsh_value(1.0, SIN, shifted) == pytest.approx(
            chsh_value(1.0, SIN), rel=1e-12
        )

    def test_bound(self):
        assert chsh_bound(0.9) == 2.4444444444444446
        assert chsh_bound(1.0) == 2.0
        assert chsh_bound(0.5) == 6.0
        with pytest.raises(DomainError):
            chsh_bound(0.0)
        with pytest.raises(DomainError):
            chsh_bound(-0.4)

    def test_bound_not_violated_below_critical_efficiency(self):
        for eta in (0.1, 0.5, CHSH_CRITICAL_EFFICIENCY):
            assert chsh_value(1.0, LINE) <= chsh_bound(eta) + 1e-12


class TestBellSlack:
    def test_negative_above_critical(self):
        s = bell_generalized_slack(
            0.95, 1.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi / 3.0
        )
        assert s == pytest.approx(-0.28947368421052655, rel=1e-12)
        assert s < 0.0

    def test_positive_below_critical(self):
        s = bell_generalized_slack(
            0.8, 1.0, math.pi / 3.0, 2.0 * math.pi / 3.0, math.pi / 3.0
        )
        assert s == pytest.approx(0.5, rel=1e-12)

    def test_reduced_visibility_relaxes(self):
        tight = bell_generalized_slack(0.9, 1.0, 0.5, 1.0, 0.5)
        loose = bell_generalized_slack(0.9, 0.7, 0.5, 1.0, 0.5)
        assert loose > tight

    def test_domain(self):
        with pytest.raises(DomainError):
            bell_generalized_slack(0.0, 1.0, 0.1, 0.2, 0.1)
        with pytest.raises(DomainError):
            bell_generalized_slack(0.9, 1.1, 0.1, 0.2, 0.1)


class TestCriticalConstants:
    def test_values(self):
        assert BELL_CRITICAL_EFFICIENCY == 8.0 / 9.0
        assert CHSH_CRITICAL_EFFICIENCY == pytest.approx(
            2.0 * (math.sqrt(2.0) - 1.0), abs=1e-15
        )
        assert FULL_VISIBILITY_MAX_EFFICIENCY == pytest.approx(
            4.0 / (2.0 + math.pi), abs=1e-15
        )
        assert FULL_EFFICIENCY_MAX_VISIBILITY == pytest.approx(
            2.0 / math.pi, abs=1e-15
        )

    def test_ordering(self):
        assert FULL_VISIBILITY_MAX_EFFICIENCY < CHSH_CRITICAL_EFFICIENCY
        assert CHSH_CRITICAL_EFFICIENCY < BELL_CRITICAL_EFFICIENCY


class TestMaxVisibility:
    def test_full_efficiency_sinusoidal(self):
        assert max_visibility(1.0, SIN) == FULL_EFFICIENCY_MAX_VISIBILITY

    def test_reference_staircase(self):
        assert max_visibility(0.9, LINE) == 0.8642416214502248
        assert max_visibility(0.9, LINE) == pytest.approx(
            (4.0 / 0.9 - 2.0) / (2.0 * math.sqrt(2.0)), rel=1e-15
        )

    def test_caps_at_one(self):
        assert max_visibility(0.5, SIN) == 1.0
        assert max_visibility(CHSH_CRITICAL_EFFICIENCY, LINE) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_monotone_in_eta(self):
        vs = [max_visibility(eta, LINE) for eta in (0.85, 0.9, 0.95, 1.0)]
        assert vs == sorted(vs, reverse=True)

    def test_domain(self):
        with pytest.raises(DomainError):
            max_visibility(0.0, SIN)


class TestClassifyRegion:
    def test_gap_point(self):
        r = classify_region(1.0, 0.65)
        assert (r.sin_feasible, r.line_feasible) == (False, True)
        assert (r.chsh_violated, r.gap) == (False, True)

    def test_interior_point(self):
        r = classify_region(0.5, 0.5)
        assert (r.sin_feasible, r.line_feasible) == (True, True)
        assert (r.chsh_violated, r.gap) == (False, False)

    def test_quantum_corner(self):
        r = classify_region(1.0, 1.0)
        assert (r.sin_feasible, r.line_feasible) == (False, False)
        assert (r.chsh_violated, r.gap) == (True, False)

    def test_violating_point_is_never_line_feasible(self):
        r = classify_region(0.9, 0.9)
        assert r.chsh_violated
        assert not r.line_feasible
        assert not r.gap

    def test_zero_efficiency(self):
        r = classify_region(0.0, 1.0)
        assert r.sin_feasible and r.line_feasible
        assert not r.chsh_violated and not r.gap

    def test_agrees_with_solver_on_grid(self):
        for eta in np.linspace(0.05, 1.0, 20):
            for v in np.linspace(0.0, 1.0, 21):
                r = classify_region(float(eta), float(v))
                for kind, flag in ((SIN, r.sin_feasible), (LINE, r.line_feasible)):
                    try:
                        solve_params(float(eta), float(v), kind)
                        solvable = True
                    except (InfeasibleParameters, DegeneratePoint):
                        solvable = False
                    assert solvable == flag

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_region(1.2, 0.5)
        with pytest.raises(DomainError):
            classify_region(0.5, -0.5)


NAN = math.nan
ANGLES = (0.1, 0.2, 0.1)


@pytest.mark.parametrize("func, args", [
    # eta past 1, where 4/eta - 2 is still a finite number
    (chsh_bound, (1.5,)),
    (max_visibility, (2.0, SIN)),
    (bell_generalized_slack, (1.5, 1.0, *ANGLES)),
    # eta = 0, wherever 4/eta appears
    (chsh_bound, (0.0,)),
    (max_visibility, (0.0, LINE)),
    (bell_generalized_slack, (0.0, 1.0, *ANGLES)),
    # NaN, which fails every comparison, and other out-of-range values
    (chsh_bound, (NAN,)),
    (max_visibility, (NAN, LINE)),
    (bell_generalized_slack, (NAN, 1.0, *ANGLES)),
    (bell_generalized_slack, (0.9, NAN, *ANGLES)),
    (nonideal_probs, (0.1, NAN, 0.5, SIN)),
    (nonideal_probs, (0.1, 0.5, NAN, SIN)),
    (marginal_prob, (NAN,)),
    (marginal_prob, (1.5,)),
    (correlation, (0.1, NAN, SIN)),
    (correlation, (0.1, 1.5, SIN)),
    (classify_region, (NAN, 0.5)),
    (classify_region, (0.5, NAN)),
], ids=lambda x: x.__name__ if callable(x) else ",".join(map(str, x)))
def test_unit_interval_domain(func, args):
    with pytest.raises(DomainError):
        func(*args)


class TestReduceTheta:
    def test_folds_into_zero_pi(self):
        assert float(reduce_theta(5.0 * math.pi / 3.0)) == pytest.approx(
            math.pi / 3.0, abs=1e-14
        )
        assert float(reduce_theta(-math.pi / 3.0)) == pytest.approx(
            math.pi / 3.0, abs=1e-14
        )
        assert float(reduce_theta(7.5)) == pytest.approx(7.5 - 2.0 * math.pi, rel=1e-12)

    def test_array(self):
        out = reduce_theta([0.5, 4.0])
        np.testing.assert_allclose(out, [0.5, 2.0 * math.pi - 4.0], rtol=1e-14)
