import dataclasses
import math

import numpy as np
import pytest

from singlet_lhv import (
    EmptyTally,
    InvalidConfig,
    PatternKind,
    RunConfig,
    SingletLhvError,
    Tally,
    chsh_experiment,
    derive_seed,
    estimate,
    run,
    solve_params,
    substream,
    tally_outcomes,
    theta_sweep,
)

from singlet_lhv import montecarlo
from singlet_lhv.montecarlo import FIVE_SIGMA, binomial_se, zscore

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE
UNSYM = PatternKind.UNSYMMETRIZED_SINUSOIDAL


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

    def test_tally_outcomes_takes_any_integer_input(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        o1 = rng.integers(-1, 2, size=1000)
        o2 = rng.integers(-1, 2, size=1000)
        pairs = list(zip(o1.tolist(), o2.tolist()))
        want = Tally(
            n_pp=pairs.count((1, 1)), n_pm=pairs.count((1, -1)),
            n_mp=pairs.count((-1, 1)), n_mm=pairs.count((-1, -1)),
            n_single_1=pairs.count((1, 0)) + pairs.count((-1, 0)),
            n_single_2=pairs.count((0, 1)) + pairs.count((0, -1)),
            n_none=pairs.count((0, 0)), n_total=1000,
        )
        assert tally_outcomes(o1.astype(np.int8), o2.astype(np.int8)) == want
        assert tally_outcomes(o1.astype(np.int64), o2.astype(np.int64)) == want
        assert tally_outcomes(o1.tolist(), o2.tolist()) == want


@pytest.fixture
def pools(monkeypatch):
    """Patch in a ThreadPoolExecutor that starts no thread; return the pools it makes.

    map runs its jobs in turn on the caller's thread.  Each pool records its
    size and, per job, the chunks it takes of each config of the batch.
    """
    made = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers, self.shares = max_workers, []
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, fn, config_lists, shares, sizes):
            for configs, share, size in zip(config_lists, shares, sizes):
                self.shares.append([list(chunks) for chunks in share])
                yield fn(configs, share, size)

        @property
        def jobs(self):
            """The chunks of each job and config, flat: one list per job for one run."""
            return [chunks for share in self.shares for chunks in share]

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", FakePool)
    return made


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

    def test_workers_are_clamped_to_chunks_and_cpus(self, monkeypatch, pools):
        cfg = RunConfig(params=self.p, angle_1=0.0, angle_2=0.5, n_pairs=3 * 4096,
                        seed=9, chunk_size=4096)
        one_chunk = dataclasses.replace(cfg, n_pairs=4096)
        serial = {cfg: run(cfg), one_chunk: run(one_chunk)}
        for cpus, workers, chunk_cfg, pool_size in (
            (4, 1000, cfg, 3), (4, 2, cfg, 2), (2, 7, cfg, 2),
            (4, 8, one_chunk, None), (1, 8, cfg, None), (None, 8, cfg, None),
            (4, 0, cfg, None), (4, None, cfg, None),
        ):
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
            pools.clear()
            assert run(chunk_cfg, workers=workers) == serial[chunk_cfg]
            want = [] if pool_size is None else [pool_size]
            assert [pool.max_workers for pool in pools] == want

    def test_each_worker_gets_its_residue_class(self, monkeypatch, pools):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        cfg = RunConfig(params=self.p, angle_1=0.0, angle_2=0.5, n_pairs=20 * 1024 + 7,
                        seed=9, chunk_size=1024)
        serial = run(cfg)
        for workers in (2, 3, 4):
            pools.clear()
            assert run(cfg, workers=workers) == serial
            (pool,) = pools
            assert pool.max_workers == workers
            assert pool.jobs == [
                list(range(w, cfg.n_chunks, workers)) for w in range(workers)
            ]
            assert sorted(sum(pool.jobs, [])) == list(range(cfg.n_chunks))

    @pytest.mark.parametrize("workers", [-1, 2.5, True, "2"])
    def test_rejects_bad_worker_counts(self, workers):
        with pytest.raises(InvalidConfig):
            run(self.cfg, workers=workers)

    def test_buffer_fits_a_run_shorter_than_its_chunk(self):
        cfg = RunConfig(params=self.p, angle_1=0.0, angle_2=0.5, n_pairs=10, seed=9,
                        chunk_size=2**40)
        assert run(cfg).n_total == 10

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_run_is_the_sum_of_its_chunks(self, monkeypatch, workers):
        # The tail chunk is shorter than the buffer its worker reuses.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        cfg = RunConfig(params=self.p, angle_1=0.0, angle_2=0.5, n_pairs=3 * 4096 + 5,
                        seed=9, chunk_size=4096)
        chunks = [
            montecarlo._chunk_tally(cfg, k, buf=np.empty((2, cfg.chunk_size)))
            for k in range(cfg.n_chunks)
        ]
        assert [t.n_total for t in chunks] == [4096, 4096, 4096, 5]
        assert run(cfg, workers=workers) == sum(chunks, Tally.zero())

    def test_tail_chunk(self):
        cfg = RunConfig(
            params=self.p, angle_1=0.0, angle_2=0.5, n_pairs=100001, seed=9,
            chunk_size=4096,
        )
        t = run(cfg)
        assert t.n_total == 100001


class TestRunMany:
    def setup_method(self):
        self.batch = [
            RunConfig(params=solve_params(0.6, 0.9, LINE), angle_1=0.3, angle_2=2.0,
                      n_pairs=2000, seed=10, chunk_size=4096),
            RunConfig(params=solve_params(0.7, 0.8, SIN), angle_1=0.0, angle_2=0.5,
                      n_pairs=5 * 1024 + 3, seed=9, chunk_size=1024),
            RunConfig(params=solve_params(0.7, 1.0, UNSYM), angle_1=1.0, angle_2=-0.4,
                      n_pairs=3 * 2048, seed=11, chunk_size=2048),
            RunConfig(params=solve_params(0.7, 0.8, SIN), angle_1=2.5, angle_2=0.1,
                      n_pairs=1500, seed=12, chunk_size=512),
        ]

    @pytest.mark.parametrize("workers", [None, 1, 2, 3, 7])
    def test_each_tally_is_its_run(self, monkeypatch, workers):
        # A run shorter than its chunk, chunks of 1024 with a tail, an exact
        # fit, and chunks of 512: every worker's buffer is 2048 pairs, and
        # the run with the most chunks is not the first.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        want = [run(cfg) for cfg in self.batch]
        assert [t.n_total for t in want] == [2000, 5 * 1024 + 3, 3 * 2048, 1500]
        assert montecarlo.run_many(self.batch, workers=workers) == want

    def test_workers_share_out_every_config_by_residue(self, monkeypatch, pools):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        want = [run(cfg) for cfg in self.batch]
        assert montecarlo.run_many(self.batch, workers=3) == want
        (pool,) = pools
        assert pool.max_workers == 3
        assert pool.shares == [
            [list(range(w, cfg.n_chunks, 3)) for cfg in self.batch] for w in range(3)
        ]

    def test_empty_batch(self, pools):
        assert montecarlo.run_many([], workers=4) == []
        assert pools == []

    @pytest.mark.parametrize("workers", [-1, 2.5, True, "2"])
    def test_rejects_bad_worker_counts(self, workers):
        with pytest.raises(InvalidConfig):
            montecarlo.run_many(self.batch, workers=workers)
        with pytest.raises(InvalidConfig):
            montecarlo.run_many([], workers=workers)


class TestSweepAndChshPools:
    # theta_sweep and chsh_experiment hand all their runs to one run_many.
    def setup_method(self):
        self.p = solve_params(0.7, 0.8, SIN)

    def test_sweep_of_multi_chunk_rows_makes_one_pool(self, monkeypatch, pools):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        rows = theta_sweep(self.p, n_steps=3,
                           pairs_per_step=3 * montecarlo.DEFAULT_CHUNK_SIZE, workers=2)
        assert len(rows) == 3
        assert [pool.max_workers for pool in pools] == [2]

    def test_chsh_makes_one_pool(self, monkeypatch, pools):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        chsh_experiment(self.p, pairs_per_setting=2 * montecarlo.DEFAULT_CHUNK_SIZE + 1,
                        workers=2)
        assert [pool.max_workers for pool in pools] == [2]

    def test_sweep_of_single_chunk_rows_makes_no_pool(self, monkeypatch, pools):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        theta_sweep(self.p, n_steps=3, pairs_per_step=1000, workers=2)
        assert pools == []


class TestEstimate:
    def test_exact_arithmetic(self):
        t = Tally(n_pp=10, n_pm=20, n_mp=30, n_mm=40, n_single_1=50,
                  n_single_2=60, n_none=790, n_total=1000)
        e = estimate(t)
        assert e.corr == 0.0
        assert e.eta_1 == 0.15
        assert e.eta_2 == 0.16
        assert e.coincidence_rate == 0.1
        assert e.corr_se == pytest.approx(math.sqrt(1.0 / 100), rel=1e-15)

    def test_empty_tally(self):
        t = Tally(0, 0, 0, 0, 3, 4, 5, 12)
        with pytest.raises(EmptyTally):
            estimate(t)

    def test_empty_tally_is_a_package_error(self):
        # The CLI reports a SingletLhvError as one error: line, not a traceback.
        with pytest.raises(SingletLhvError):
            estimate(Tally.zero())


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


def _coincidence_z(tally, params):
    """The coincidence rate's z-score against eta**2."""
    p = params.eta * params.eta
    return zscore(estimate(tally).coincidence_rate, p, binomial_se(p, tally.n_total))


class TestIndependence:
    # Detection at the two stations is independent, so the coincidence count
    # of a run is binomial with success probability eta**2.
    def test_simulated_run_passes(self):
        p = solve_params(0.7, 0.8, SIN)
        cfg = RunConfig(params=p, angle_1=0.0, angle_2=math.pi / 3.0,
                        n_pairs=200000, seed=123)
        assert p.eta * p.eta == pytest.approx(0.49, rel=1e-15)
        assert _coincidence_z(run(cfg), p) <= FIVE_SIGMA

    def test_flags_correlated_detection(self):
        t = Tally(n_pp=500, n_pm=0, n_mp=0, n_mm=500, n_single_1=0,
                  n_single_2=0, n_none=0, n_total=1000)
        p = solve_params(0.7, 0.8, SIN)
        assert _coincidence_z(t, p) > FIVE_SIGMA

    def test_empty(self):
        p = solve_params(0.7, 0.8, SIN)
        with pytest.raises(EmptyTally):
            _coincidence_z(Tally.zero(), p)
