"""The benchmark's workloads: seeded inputs, the timed call, and its check.

Each workload object offers
  probe_ops             how many of its first inputs a traced run of another
                        workload replays to reach layers it lacks;
  inputs(seed)          one pass of inputs, a pure function of the seed,
                        always including the workload's fixed edge cases;
  setup(workers)        solve_params for its configs plus one cheap warm-up op;
  call(inp, workers)    the timed calls into singlet_lhv, returning a Call;
  check(inp, call)      None when the outputs are correct, else a message.
Calls go through module attributes (montecarlo.run, cli.main, ...) so the
traced run's wrappers see them.  Checks run outside the timed region and
outside tracing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from singlet_lhv import analytic, cli, experiments, model, montecarlo, quadrature

HERE = Path(__file__).resolve().parent
VERIFY_SEEDS = HERE / "verify_seeds.json"

MASK64 = (1 << 64) - 1
TWO_PI = 2.0 * math.pi
QUARTER = 0.25 * math.pi

#: (kind, eta, v) of the three pattern configs every sampler workload uses.
CONFIGS = {
    "sin": (model.PatternKind.SYMMETRIZED_SINUSOIDAL, 0.7, 0.8),
    "line": (model.PatternKind.SYMMETRIZED_STAIRCASE, 0.9, 0.75),
    "unsym": (model.PatternKind.UNSYMMETRIZED_SINUSOIDAL, 0.7, 1.0),
}


@dataclass(frozen=True)
class Call:
    """Timed result of one op, with times inside singlet_lhv only.

    pairs is the work done once at the workload's worker count, taking
    seconds_nw, and once more at one worker, taking seconds_1w.  A serial
    workload does it once and reports the same time for both.
    """

    seconds: float
    pairs: float
    seconds_nw: float
    seconds_1w: float
    value: Any


def solve_configs() -> dict[str, model.ModelParams]:
    return {name: model.solve_params(eta, v, kind) for name, (kind, eta, v) in CONFIGS.items()}


def expected_cells(params: model.ModelParams, theta: float) -> tuple[float, ...]:
    """Closed-form (p_pp, p_pm, p_mp, p_mm) at relative angle theta."""
    if params.kind is model.PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        scale = params.a / TWO_PI
        anti, corr = scale * (1.0 - math.cos(theta)), scale * (1.0 + math.cos(theta))
        return (anti, corr, corr, anti)
    return analytic.nonideal_probs(theta, params.eta, params.v, params.kind).as_tuple()


def expected_marginals(params: model.ModelParams) -> tuple[float, float]:
    """Detection probability of station one and station two."""
    if params.kind is model.PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        return (2.0 * params.a / math.pi, params.b)
    return (params.eta, params.eta)


def five_sigma_misses(pairs) -> list[str]:
    """Binomial five-sigma test of (count, n, p) triples; zero variance is exact."""
    misses = []
    for label, count, n, p in pairs:
        se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
        dev = abs(count / n - p)
        if (se == 0.0 and dev != 0.0) or (se > 0.0 and dev > 5.0 * se):
            misses.append(f"{label}: {count}/{n} vs {p!r}")
    return misses


def tally_misses(tally: montecarlo.Tally, params: model.ModelParams, theta: float) -> list[str]:
    n = tally.n_total
    cells = (tally.n_pp, tally.n_pm, tally.n_mp, tally.n_mm)
    m1, m2 = expected_marginals(params)
    return five_sigma_misses([
        *((f"cell {c}", k, n, p) for c, k, p in zip(("pp", "pm", "mp", "mm"), cells,
                                                      expected_cells(params, theta))),
        ("station one", tally.n_coincidences + tally.n_single_1, n, m1),
        ("station two", tally.n_coincidences + tally.n_single_2, n, m2),
    ])


@dataclass(frozen=True)
class BulkInput:
    config: str
    angle_1: float
    angle_2: float
    seed: int


class BulkRun:
    """Repeated 8-chunk run() calls: the sampler kernel dominates.

    One op is a round over the three configs, each run at the worker count
    and then at one worker, so op latencies share one distribution.
    """

    name = "bulk-run"
    probe_ops = 1

    def __init__(self, pairs: int = 8 * montecarlo.DEFAULT_CHUNK_SIZE, seeded_rounds: int = 2):
        self.pairs = pairs
        self.seeded_rounds = seeded_rounds
        self.params: dict[str, model.ModelParams] = {}

    def inputs(self, seed: int) -> list[tuple[BulkInput, ...]]:
        rng = random.Random(seed)
        rounds = [
            tuple(BulkInput(config, rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI),
                            rng.getrandbits(64)) for config in CONFIGS)
            for _ in range(self.seeded_rounds)
        ]
        # Wraparound edge case: setting two lies two full turns out.
        wrap = []
        for config in CONFIGS:
            a1 = rng.uniform(0.0, TWO_PI)
            wrap.append(BulkInput(config, a1, a1 + rng.uniform(0.0, math.pi) + 4.0 * math.pi,
                                  rng.getrandbits(64)))
        return rounds + [tuple(wrap)]

    def setup(self, workers: int) -> None:
        self.params = solve_configs()
        cfg = montecarlo.RunConfig(params=self.params["sin"], angle_1=0.0, angle_2=1.0,
                                   n_pairs=montecarlo.DEFAULT_CHUNK_SIZE, seed=1)
        montecarlo.run(cfg, workers=workers)

    def call(self, inp: tuple[BulkInput, ...], workers: int) -> Call:
        many, one = [], []
        seconds_nw = seconds_1w = 0.0
        for job in inp:
            t0 = perf_counter()
            cfg = montecarlo.RunConfig(params=self.params[job.config], angle_1=job.angle_1,
                                       angle_2=job.angle_2, n_pairs=self.pairs, seed=job.seed)
            many.append(montecarlo.run(cfg, workers=workers))
            t1 = perf_counter()
            one.append(montecarlo.run(cfg, workers=1))
            seconds_nw += t1 - t0
            seconds_1w += perf_counter() - t1
        return Call(seconds_nw + seconds_1w, self.pairs * len(inp), seconds_nw, seconds_1w,
                    (many, one))

    def check(self, inp: tuple[BulkInput, ...], call: Call) -> str | None:
        misses = []
        for job, many, one in zip(inp, *call.value):
            if many != one:
                misses.append(f"{job.config}: tally differs between workers: {many} vs {one}")
            misses += tally_misses(many, self.params[job.config], job.angle_2 - job.angle_1)
        return "; ".join(misses) or None

    def digest(self, calls: list[Call]) -> str:
        """sha256 of one pass of tallies, for comparison with digests.json."""
        text = json.dumps([list(vars(t).values()) for c in calls for t in c.value[0]])
        return hashlib.sha256(text.encode()).hexdigest()


class SweepSmallRows:
    """theta_sweep with single-chunk rows, at the worker count and at one worker."""

    name = "sweep-small-rows"
    probe_ops = 1

    rows = 31
    pairs = 50_000

    def __init__(self):
        self.params: model.ModelParams | None = None

    def inputs(self, seed: int) -> list[int]:
        # Master-seed edge cases: both ends of the 64-bit range.
        return [random.Random(seed).getrandbits(64), 0, MASK64]

    def setup(self, workers: int) -> None:
        self.params = solve_configs()["sin"]
        experiments.theta_sweep(self.params, n_steps=2, pairs_per_step=self.pairs,
                                seed=1, workers=workers)

    def call(self, inp: int, workers: int) -> Call:
        t0 = perf_counter()
        rows = experiments.theta_sweep(self.params, n_steps=self.rows,
                                       pairs_per_step=self.pairs, seed=inp, workers=workers)
        gate = experiments.sweep_gate(rows, self.params)
        t1 = perf_counter()
        rows_1w = experiments.theta_sweep(self.params, n_steps=self.rows,
                                          pairs_per_step=self.pairs, seed=inp, workers=1)
        t2 = perf_counter()
        return Call(t2 - t0, self.rows * self.pairs, t1 - t0, t2 - t1, (rows, gate, rows_1w))

    def check(self, inp: int, call: Call) -> str | None:
        rows, gate, rows_1w = call.value
        if not gate.passed:
            return f"sweep_gate failed: {gate}"
        if len(rows) != self.rows:
            return f"{len(rows)} rows, expected {self.rows}"
        bad = [i for i, row in enumerate(rows) if row.seed != montecarlo.derive_seed(inp, i)]
        if bad:
            return f"rows {bad} carry the wrong child seed"
        if rows != rows_1w:
            return "rows differ between worker counts"
        return None


class QuadratureOracle:
    """outcome_probabilities of one setting pair for each of the three kinds.

    Setting pairs: seeded, on the pi/4 breakpoints (seeded and fixed), and
    a wraparound pair beyond one full turn either way.
    """

    name = "quadrature-oracle"
    probe_ops = 1

    def __init__(self):
        self.params: dict[str, model.ModelParams] = {}

    def inputs(self, seed: int) -> list[tuple[float, float]]:
        rng = random.Random(seed)
        # Four generic pairs to three cheaper edge cases keep the latency
        # median inside one cost cluster.
        pairs = [(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)) for _ in range(4)]
        k, m = rng.randrange(8), rng.randrange(9)
        pairs += [(k * QUARTER, (k + m) * QUARTER), (0.0, QUARTER)]
        a1, a2 = rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)
        return pairs + [(a1 - TWO_PI, a2 + 2.0 * TWO_PI)]

    def setup(self, workers: int) -> None:
        self.params = solve_configs()
        quadrature.outcome_probabilities(self.params["sin"], 0.0, 1.0, r_probes=64, gl_order=4)

    def call(self, inp: tuple[float, float], workers: int) -> Call:
        t0 = perf_counter()
        tables = [quadrature.outcome_probabilities(p, *inp) for p in self.params.values()]
        seconds = perf_counter() - t0
        # A "pair" here is one setting pair integrated; the oracle is serial.
        return Call(seconds, len(tables), seconds, seconds, tables)

    def check(self, inp: tuple[float, float], call: Call) -> str | None:
        misses = []
        for (config, params), table in zip(self.params.items(), call.value):
            got = table.prob_quad().as_tuple()
            want = expected_cells(params, inp[1] - inp[0])
            cell_dev = max(abs(g - w) for g, w in zip(got, want))
            mass_dev = abs(table.total() - 1.0)
            if cell_dev > 1e-9 or mass_dev > 1e-12:
                misses.append(f"{config}: cell deviation {cell_dev!r}, mass deviation {mass_dev!r}")
        return "; ".join(misses) or None


class VerifyCli:
    """In-process `singlet-lhv verify --pairs 100000 --seed S`."""

    name = "verify-cli"
    probe_ops = 1
    pairs = experiments.MIN_VERIFY_PAIRS

    def inputs(self, seed: int) -> list[int]:
        # Seeds come from a pool each known to pass: verify's five-sigma gates
        # flag about one seed in several thousand by chance, and a benchmark
        # op must not fail on a correct program.  The top of the 64-bit seed
        # range is the fixed edge case.
        pool = json.loads(VERIFY_SEEDS.read_text())["seeds"]
        return [MASK64] + random.Random(seed).sample(pool, 2)

    def setup(self, workers: int) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["params", "--eta", "0.7", "--vis", "0.8"])

    def call(self, inp: int, workers: int) -> Call:
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", "--pairs", str(self.pairs), "--seed", str(inp)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - t0
        # verify runs serially (the CLI has no worker flag): one time for both.
        return Call(seconds, self.pairs, seconds, seconds, (code, out.getvalue() + err.getvalue()))

    def check(self, inp: int, call: Call) -> str | None:
        code, text = call.value
        if code != 0 or "FAIL" in text:
            failed = [line for line in text.splitlines() if "FAIL" in line]
            return f"exit {code}: {failed}"
        return None


def all_workloads() -> dict[str, Any]:
    return {w.name: w for w in (BulkRun(), SweepSmallRows(), QuadratureOracle(), VerifyCli())}
