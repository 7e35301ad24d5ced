import dataclasses
import math

import pytest

from singlet_lhv import (
    InvalidConfig,
    PatternKind,
    STANDARD_CHSH_ANGLES,
    chsh_experiment,
    correlation,
    derive_seed,
    joint_table,
    max_visibility,
    region_scan,
    solve_params,
    sweep_gate,
    theta_sweep,
    verify_suite,
)
from singlet_lhv.experiments import MIN_VERIFY_PAIRS
from singlet_lhv.montecarlo import binomial_se, correlation_se, zscore

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE
UNSYM = PatternKind.UNSYMMETRIZED_SINUSOIDAL

#: (kind, eta, v) of the sweeps whose oracle columns and gate are tested;
#: the unsymmetrized cells are not nonideal_probs' and its coincidence rate
#: is 2a/pi, not eta**2.
SWEEP_POINTS = [(SIN, 0.7, 0.8), (UNSYM, 0.7, 1.0)]


def _sweep(kind, eta, v):
    p = solve_params(eta, v, kind)
    return p, theta_sweep(p, n_steps=5, pairs_per_step=50000, seed=11)


class TestThetaSweep:
    def setup_method(self):
        self.p = solve_params(0.7, 0.8, SIN)
        self.rows = theta_sweep(self.p, n_steps=5, pairs_per_step=50000, seed=11)

    def test_grid_is_exact(self):
        assert [r.theta for r in self.rows] == [
            0.0,
            0.7853981633974483,
            1.5707963267948966,
            2.356194490192345,
            3.141592653589793,
        ]

    def test_child_seeds(self):
        assert [r.seed for r in self.rows] == [derive_seed(11, i) for i in range(5)]
        assert self.rows[0].seed == 6976887634354325079

    @pytest.mark.parametrize("kind, eta, v", SWEEP_POINTS)
    def test_oracle_columns_match_closed_forms(self, kind, eta, v):
        p, rows = _sweep(kind, eta, v)
        for row in rows:
            t = joint_table(p, row.theta)
            assert (row.p_pp, row.p_pm, row.p_mp, row.p_mm) == (
                t[2, 2], t[2, 0], t[0, 2], t[0, 0],
            )
            assert row.corr == correlation(row.theta, v, kind)
            assert row.n_pairs == 50000

    @pytest.mark.parametrize("kind, eta, v", SWEEP_POINTS)
    def test_sampled_columns_near_oracle(self, kind, eta, v):
        p, rows = _sweep(kind, eta, v)
        gate = sweep_gate(rows, p)
        assert gate.passed
        assert gate.max_sigma <= 5.0
        assert gate.max_abs_deviation < 0.02
        for row in rows:
            for got, want in ((row.p_pp_mc, row.p_pp), (row.p_pm_mc, row.p_pm),
                              (row.p_mp_mc, row.p_mp), (row.p_mm_mc, row.p_mm)):
                assert zscore(got, want, binomial_se(want, row.n_pairs)) <= 5.0

    def test_full_visibility_endpoints_are_exact(self):
        p = solve_params(0.75, 1.0, SIN)
        rows = theta_sweep(p, n_steps=3, pairs_per_step=50000, seed=2)
        assert rows[0].corr == -1.0
        assert rows[0].corr_mc == -1.0
        assert rows[0].p_pp_mc == 0.0
        assert rows[2].corr_mc == 1.0

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            theta_sweep(self.p, n_steps=1)
        with pytest.raises(InvalidConfig):
            theta_sweep(self.p, n_steps=5, pairs_per_step=0)
        for bad in (2.5, 5.0, True):
            with pytest.raises(InvalidConfig):
                theta_sweep(self.p, n_steps=bad, pairs_per_step=10)
            with pytest.raises(InvalidConfig):
                theta_sweep(self.p, n_steps=2, pairs_per_step=bad)


class TestSweepGate:
    def setup_method(self):
        self.p = solve_params(0.7, 0.8, SIN)
        self.rows = theta_sweep(self.p, n_steps=5, pairs_per_step=50000, seed=11)

    def test_flags_shifted_correlation(self):
        bad = list(self.rows)
        bad[2] = dataclasses.replace(bad[2], corr_mc=bad[2].corr + 0.5)
        gate = sweep_gate(bad, self.p)
        assert not gate.passed
        assert gate.max_sigma > 5.0

    def test_rows_without_coincidences_are_inconclusive(self):
        empty = [dataclasses.replace(self.rows[0], corr_mc=math.nan)] + self.rows[1:]
        gate = sweep_gate(empty, self.p)
        assert (gate.passed, gate.inconclusive) == (False, True)
        assert (sweep_gate(self.rows, self.p).inconclusive) is False
        # a failed row outweighs an untested one
        empty[2] = dataclasses.replace(empty[2], corr_mc=empty[2].corr + 0.5)
        gate = sweep_gate(empty, self.p)
        assert (gate.passed, gate.inconclusive) == (False, False)

    def test_unsymmetrized_gate_expects_its_coincidence_rate(self):
        # n * 2a/pi coincidences, not n * eta**2: a row 4.5 sigma off passes
        # and one 5.5 sigma off fails.
        p, rows = _sweep(UNSYM, 0.7, 1.0)
        row = rows[2]
        se = correlation_se(row.corr, row.n_pairs * 2.0 * p.a / math.pi)
        for sigmas, passed in ((4.5, True), (5.5, False)):
            shifted = dataclasses.replace(row, corr_mc=row.corr + sigmas * se)
            assert sweep_gate([shifted], p).passed is passed

    def test_zero_variance_row_must_match_exactly(self):
        p = solve_params(0.75, 1.0, SIN)
        rows = theta_sweep(p, n_steps=3, pairs_per_step=20000, seed=2)
        assert sweep_gate(rows, p).passed
        bad = [dataclasses.replace(rows[0], corr_mc=-0.9999)] + rows[1:]
        assert not sweep_gate(bad, p).passed


class TestChshExperiment:
    def test_interior_point(self):
        rep = chsh_experiment(
            solve_params(0.7, 1.0, SIN), pairs_per_setting=100000, seed=3
        )
        assert rep.angles == STANDARD_CHSH_ANGLES
        assert [s.label for s in rep.settings] == ["ac", "ad", "bc", "bd"]
        assert [s.seed for s in rep.settings] == [derive_seed(3, i) for i in range(4)]
        assert rep.s_oracle == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert rep.bound == 3.7142857142857144
        assert abs(rep.s_mc - rep.s_oracle) <= 5.0 * rep.se_s
        assert not rep.violated_mc

    def test_setting_angles_follow_input(self):
        rep = chsh_experiment(
            solve_params(0.7, 1.0, SIN), pairs_per_setting=1000, seed=3
        )
        a = rep.angles
        assert (rep.settings[0].angle_1, rep.settings[0].angle_2) == (a.phi_a, a.phi_c)
        assert (rep.settings[3].angle_1, rep.settings[3].angle_2) == (a.phi_b, a.phi_d)

    def test_frontier_point_is_not_called_violated(self):
        # at the frontier S_oracle equals the bound, so a raw comparison of
        # the sampled S would flip a coin; the five-sigma rule must not
        v = max_visibility(0.9, LINE)
        p = solve_params(0.9, v, LINE)
        rep = chsh_experiment(p, pairs_per_setting=200000, seed=14)
        assert rep.s_oracle == pytest.approx(rep.bound, rel=1e-12)
        assert abs(rep.s_mc - rep.bound) <= 5.0 * rep.se_s
        assert not rep.violated_mc

    def test_validation(self):
        p = solve_params(0.7, 1.0, SIN)
        for bad in (0, 2.5, 10.0, True):
            with pytest.raises(InvalidConfig):
                chsh_experiment(p, pairs_per_setting=bad)


class TestRegionScan:
    def test_two_by_two(self):
        rows = region_scan(2, 2)
        seen = [
            (r.eta, r.v, r.sin_feasible, r.line_feasible, r.chsh_violated, r.gap)
            for r in rows
        ]
        assert seen == [
            (0.5, 0.0, True, True, False, False),
            (0.5, 1.0, True, True, False, False),
            (1.0, 0.0, True, True, False, False),
            (1.0, 1.0, False, False, True, False),
        ]

    def test_grid_layout(self):
        rows = region_scan(4, 5)
        assert len(rows) == 20
        assert sorted({r.eta for r in rows}) == [0.25, 0.5, 0.75, 1.0]
        assert sorted({r.v for r in rows}) == [0.0, 0.25, 0.5, 0.75, 1.0]
        # eta-major ordering
        assert [r.eta for r in rows[:5]] == [0.25] * 5
        assert [r.v for r in rows[:5]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_contains_gap_band(self):
        rows = region_scan(101, 101)
        by_point = {(r.eta, r.v): r for r in rows}
        r = by_point[(1.0, 0.65)]
        assert r.gap and r.line_feasible and not r.sin_feasible
        assert any(r.gap for r in rows)
        assert any(r.chsh_violated for r in rows)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            region_scan(1, 25)
        with pytest.raises(InvalidConfig):
            region_scan(25, 1)
        for bad in (2.5, 3.0, True):
            with pytest.raises(InvalidConfig):
                region_scan(bad, 2)
            with pytest.raises(InvalidConfig):
                region_scan(2, bad)


class TestVerifySuite:
    def test_rejects_tiny_budget(self):
        for bad in (MIN_VERIFY_PAIRS - 1, float(MIN_VERIFY_PAIRS), True):
            with pytest.raises(InvalidConfig):
                verify_suite(pairs_budget=bad)
        for bad in (-1, 2**64, 1.5, True):
            with pytest.raises(InvalidConfig):
                verify_suite(pairs_budget=MIN_VERIFY_PAIRS, seed=bad)
