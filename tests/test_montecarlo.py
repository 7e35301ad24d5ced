import math

import numpy as np
import pytest

from singlet_lhv import (
    EmptyTally,
    InvalidConfig,
    PatternKind,
    RunConfig,
    Tally,
    derive_seed,
    estimate,
    independence_check,
    nonideal_probs,
    run,
    sample_lambda,
    solve_params,
    substream,
    tally_outcomes,
)

from singlet_lhv.montecarlo import binomial_se, zscore

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE


class TestSeeding:
    def test_derive_seed_golden(self):
        # frozen: any change here silently breaks stored sweep seeds
        assert derive_seed(42, 0) == 5592132763777985307
        assert derive_seed(42, 1) == 9129838320742759465
        assert derive_seed(0, 0) == 12035550249420947055

    def test_derive_seed_decorrelates(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_derive_seed_validation(self):
        with pytest.raises(InvalidConfig):
            derive_seed(-1, 0)
        with pytest.raises(InvalidConfig):
            derive_seed(42, -3)
        with pytest.raises(InvalidConfig):
            derive_seed(1 << 64, 0)

    def test_substream_golden(self):
        u = substream(7, 3).random(4)
        np.testing.assert_array_equal(
            u,
            [
                0.16091386323260937,
                0.8229551752810966,
                0.732567180148764,
                0.7361518751759474,
            ],
        )

    def test_substream_pairs_never_collide(self):
        a = substream(7, 3).random(4)
        b = substream(7, 4).random(4)
        c = substream(8, 3).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_is_stateless(self):
        np.testing.assert_array_equal(
            substream(11, 2).random(8), substream(11, 2).random(8)
        )

    def test_sample_lambda_golden(self):
        lam = sample_lambda(substream(7, 3))
        assert lam.phi == 1.0110516211846365
        assert lam.r == 0.8229551752810966

    def test_sample_lambda_consumes_two(self):
        s = substream(7, 3)
        sample_lambda(s)
        assert s.random() == 0.732567180148764


class TestRunConfig:
    def setup_method(self):
        self.p = solve_params(0.7, 0.8, SIN)

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            RunConfig(params=self.p, angle_1=0.0, angle_2=0.0, n_pairs=0, seed=1)
        with pytest.raises(InvalidConfig):
            RunConfig(params=self.p, angle_1=0.0, angle_2=0.0, n_pairs=10, seed=-1)
        with pytest.raises(InvalidConfig):
            RunConfig(
                params=self.p, angle_1=math.inf, angle_2=0.0, n_pairs=10, seed=1
            )
        with pytest.raises(InvalidConfig):
            RunConfig(
                params=self.p, angle_1=0.0, angle_2=0.0, n_pairs=10, seed=1,
                chunk_size=0,
            )

    @pytest.mark.parametrize("field,value", [
        ("seed", 2.5),
        ("seed", True),
        ("seed", 1 << 64),
        ("seed", "7"),
        ("n_pairs", True),
        ("n_pairs", 1e5),
        ("n_pairs", np.float64(10.0)),
        ("chunk_size", 4096.0),
        ("chunk_size", False),
    ])
    def test_rejects_non_integers(self, field, value):
        kwargs = dict(params=self.p, angle_1=0.0, angle_2=0.0, n_pairs=10, seed=1)
        kwargs[field] = value
        with pytest.raises(InvalidConfig):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("seed,index", [(2.5, 0), (True, 0), (1, 1.0), (1, False)])
    def test_seed_helpers_reject_non_integers(self, seed, index):
        with pytest.raises(InvalidConfig):
            derive_seed(seed, index)
        with pytest.raises(InvalidConfig):
            substream(seed, index)

    def test_accepts_numpy_integers(self):
        cfg = RunConfig(
            params=self.p, angle_1=0.0, angle_2=0.0, n_pairs=np.int64(10),
            seed=np.uint64((1 << 64) - 1), chunk_size=np.int32(4),
        )
        assert cfg.n_chunks == 3
        assert derive_seed(np.uint64(42), np.int64(1)) == derive_seed(42, 1)
        np.testing.assert_array_equal(
            substream(np.uint64(7), np.int8(3)).random(2), substream(7, 3).random(2)
        )

    def test_chunk_count_rounds_up(self):
        cfg = RunConfig(
            params=self.p, angle_1=0.0, angle_2=0.0, n_pairs=100001, seed=1,
            chunk_size=4096,
        )
        assert cfg.n_chunks == 25


class TestTally:
    def test_conservation_enforced(self):
        with pytest.raises(InvalidConfig):
            Tally(1, 0, 0, 0, 0, 0, 0, 2)
        with pytest.raises(InvalidConfig):
            Tally(-1, 0, 0, 0, 0, 0, 1, 0)

    def test_merge(self):
        a = Tally(1, 2, 3, 4, 5, 6, 7, 28)
        b = Tally(10, 0, 0, 0, 0, 0, 0, 10)
        c = a + b
        assert c == Tally(11, 2, 3, 4, 5, 6, 7, 38)
        assert c.n_coincidences == 20
        assert c.cells == (11, 2, 3, 4)
        assert Tally.zero().n_total == 0

    def test_tally_outcomes_by_hand(self):
        o1 = np.array([1, 1, -1, -1, 1, 0, 0, -1, 0], dtype=np.int8)
        o2 = np.array([1, -1, 1, -1, 0, 1, -1, 0, 0], dtype=np.int8)
        t = tally_outcomes(o1, o2)
        assert t == Tally(
            n_pp=1, n_pm=1, n_mp=1, n_mm=1,
            n_single_1=2, n_single_2=2, n_none=1, n_total=9,
        )


class TestRun:
    def setup_method(self):
        self.p = solve_params(0.7, 0.8, SIN)
        self.cfg = RunConfig(
            params=self.p, angle_1=0.0, angle_2=math.pi / 3.0,
            n_pairs=200000, seed=123,
        )

    def test_frozen_tally(self):
        # pins the Philox stream and the geometry end to end
        t = run(self.cfg)
        assert t == Tally(
            n_pp=14631, n_pm=34494, n_mp=34034, n_mm=14648,
            n_single_1=41886, n_single_2=42309, n_none=17998, n_total=200000,
        )

    def test_repeatable(self):
        assert run(self.cfg) == run(self.cfg)

    def test_worker_count_never_changes_result(self):
        serial = run(self.cfg)
        assert run(self.cfg, workers=4) == serial
        assert run(self.cfg, workers=7) == serial

    def test_tail_chunk(self):
        cfg = RunConfig(
            params=self.p, angle_1=0.0, angle_2=0.5, n_pairs=100001, seed=9,
            chunk_size=4096,
        )
        t = run(cfg)
        assert t.n_total == 100001

    def test_estimates_track_oracle(self):
        t = run(self.cfg)
        e = estimate(t)
        q = nonideal_probs(math.pi / 3.0, 0.7, 0.8, SIN)
        for got, want, key in (
            (e.probs.p_pp, q.p_pp, "p_pp"),
            (e.probs.p_pm, q.p_pm, "p_pm"),
            (e.probs.p_mp, q.p_mp, "p_mp"),
            (e.probs.p_mm, q.p_mm, "p_mm"),
        ):
            assert abs(got - want) <= 5.0 * e.std_errors[key]
        assert abs(e.corr - (-0.8 * math.cos(math.pi / 3.0))) <= 5.0 * e.std_errors["corr"]
        assert abs(e.eta_1 - 0.7) <= 5.0 * e.std_errors["eta_1"]
        assert abs(e.eta_2 - 0.7) <= 5.0 * e.std_errors["eta_2"]
        assert abs(e.coincidence_rate - 0.49) <= 5.0 * e.std_errors["coincidence"]

    def test_exact_anticorrelation_at_full_visibility(self):
        p = solve_params(0.75, 1.0, SIN)
        cfg = RunConfig(params=p, angle_1=1.1, angle_2=1.1, n_pairs=200000, seed=5)
        t = run(cfg)
        assert t.n_pp == 0
        assert t.n_mm == 0
        assert estimate(t).corr == -1.0

    def test_staircase_runs_too(self):
        p = solve_params(0.7, 0.8, LINE)
        cfg = RunConfig(params=p, angle_1=0.2, angle_2=0.2 + math.pi / 4.0,
                        n_pairs=100000, seed=31)
        e = estimate(run(cfg))
        want = -0.8 / math.sqrt(2.0)
        assert abs(e.corr - want) <= 5.0 * e.std_errors["corr"]


class TestEstimate:
    def test_exact_arithmetic(self):
        t = Tally(n_pp=10, n_pm=20, n_mp=30, n_mm=40, n_single_1=50,
                  n_single_2=60, n_none=790, n_total=1000)
        e = estimate(t)
        assert e.probs.p_pp == 0.01
        assert e.probs.p_mm == 0.04
        assert e.corr == 0.0
        assert e.eta_1 == 0.15
        assert e.eta_2 == 0.16
        assert e.coincidence_rate == 0.1
        assert e.std_errors["p_pp"] == pytest.approx(
            math.sqrt(0.01 * 0.99 / 1000), rel=1e-15
        )
        assert e.std_errors["corr"] == pytest.approx(math.sqrt(1.0 / 100), rel=1e-15)

    def test_empty_tally(self):
        t = Tally(0, 0, 0, 0, 3, 4, 5, 12)
        with pytest.raises(EmptyTally):
            estimate(t)


class TestZscore:
    def test_zero_variance_is_exact(self):
        assert zscore(0.25, 0.25, 0.0) == 0.0
        assert zscore(0.25, 0.2500001, 0.0) == math.inf
        assert binomial_se(0.0, 1000) == 0.0
        assert binomial_se(1.0, 1000) == 0.0

    def test_scaled_deviation(self):
        assert zscore(0.3, 0.2, 0.05) == pytest.approx(2.0, rel=1e-15)
        assert zscore(0.1, 0.2, 0.05) == pytest.approx(2.0, rel=1e-15)
        assert binomial_se(0.5, 100) == 0.05


class TestIndependence:
    def test_simulated_run_passes(self):
        p = solve_params(0.7, 0.8, SIN)
        cfg = RunConfig(params=p, angle_1=0.0, angle_2=math.pi / 3.0,
                        n_pairs=200000, seed=123)
        rep = independence_check(run(cfg), p)
        assert rep.passed
        assert rep.expected == pytest.approx(0.49, rel=1e-15)
        assert rep.deviation <= rep.threshold

    def test_flags_correlated_detection(self):
        t = Tally(n_pp=500, n_pm=0, n_mp=0, n_mm=500, n_single_1=0,
                  n_single_2=0, n_none=0, n_total=1000)
        p = solve_params(0.7, 0.8, SIN)
        rep = independence_check(t, p)
        assert not rep.passed

    def test_empty(self):
        p = solve_params(0.7, 0.8, SIN)
        with pytest.raises(InvalidConfig):
            independence_check(Tally.zero(), p)
