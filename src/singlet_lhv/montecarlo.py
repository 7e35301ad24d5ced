"""Event-by-event sampling engine with reproducible parallel streams.

Reproducibility contract: a run is a pure function of its RunConfig.  Pairs
are processed in fixed-size chunks; chunk k draws from the counter-based
Philox stream keyed by (seed << 64) | k, so any chunk can be regenerated in
isolation and the tally is bit-identical no matter how many workers execute
the chunks or in what order they finish.  Each pair consumes exactly two
uniforms, phi = 2*pi*u1 and r = u2, in row order.  A chunk is drawn whole
from its own stream, measured once at each station and folded into its own
tally, so the fixed cost of a measure_many call and a fold is paid once per
chunk.  run_many() tallies a batch of runs, such as a sweep's rows, as one
list of (run, chunk) jobs: each of n workers takes every n-th job of the
batch, so single-chunk rows are dealt out like the chunks of one long run,
and keeps phi and r in one buffer for the whole batch.  The caller's thread
is one of the workers, and a pool of n - 1 threads runs the others; the
tallies are summed per run.  run() is a batch of one.

derive_seed() hands out decorrelated child seeds for higher-level drivers
(one per sweep row or CHSH setting) through a SplitMix64 mix, keeping every
row independently reproducible from its recorded seed alone.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import _MASK64, EmptyTally, InvalidConfig, _check_int, _check_setting, _check_type
from .model import TWO_PI, DetectorSide, ModelParams, measure_many

DEFAULT_CHUNK_SIZE = 1 << 16

#: Tolerance, in standard errors, of every sampled statistic against its oracle.
FIVE_SIGMA = 5.0


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated 64-bit child seed for substream index."""
    seed = _check_int("seed", seed)
    index = _check_int("index", index)
    return _splitmix64((seed ^ _splitmix64(index)) & _MASK64)


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for chunk `index` of run `seed`.

    Streams for different (seed, index) pairs never overlap: the pair is the
    Philox key itself, not a state jumped ahead from a shared origin.
    """
    key = (_check_int("seed", seed) << 64) | _check_int("index", index)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's tally."""

    params: ModelParams
    angle_1: float
    angle_2: float
    n_pairs: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        _check_int("n_pairs", self.n_pairs, lo=1)
        _check_int("chunk_size", self.chunk_size, lo=1)
        _check_int("seed", self.seed)
        _check_type("params", self.params, ModelParams)
        for name, angle in (("angle_1", self.angle_1), ("angle_2", self.angle_2)):
            _check_setting(name, angle)

    @property
    def n_chunks(self) -> int:
        return -(-self.n_pairs // self.chunk_size)


@dataclass(frozen=True)
class Tally:
    """Integer event counts for one run; merging is exact."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    n_single_1: int
    n_single_2: int
    n_none: int
    n_total: int

    def __post_init__(self) -> None:
        counts = (
            self.n_pp, self.n_pm, self.n_mp, self.n_mm,
            self.n_single_1, self.n_single_2, self.n_none,
        )
        if any(k < 0 for k in counts) or self.n_total < 0:
            raise InvalidConfig("tally counts must be nonnegative")
        if sum(counts) != self.n_total:
            raise InvalidConfig(
                f"tally categories sum to {sum(counts)}, not n_total = {self.n_total}"
            )

    @classmethod
    def zero(cls) -> "Tally":
        return cls(0, 0, 0, 0, 0, 0, 0, 0)

    @property
    def n_coincidences(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def __add__(self, other: "Tally") -> "Tally":
        if not isinstance(other, Tally):
            return NotImplemented
        return Tally(
            self.n_pp + other.n_pp,
            self.n_pm + other.n_pm,
            self.n_mp + other.n_mp,
            self.n_mm + other.n_mm,
            self.n_single_1 + other.n_single_1,
            self.n_single_2 + other.n_single_2,
            self.n_none + other.n_none,
            self.n_total + other.n_total,
        )


#: Fold code 256*o1 + o2 + 257 of each outcome pair, in the order 3*o1 + o2 + 4.
_PAIR_CODES = np.array([256 * o1 + o2 + 257 for o1 in (-1, 0, 1) for o2 in (-1, 0, 1)])


def _as_int8(o: np.ndarray) -> np.ndarray:
    """o as int8; InvalidConfig for a non-integer dtype or a value int8 cannot hold."""
    if o.dtype.kind not in "iu":
        raise InvalidConfig(f"outcomes must have an integer dtype, got {o.dtype}")
    narrow = o.astype(np.int8, copy=False)
    if narrow is not o and not np.array_equal(narrow, o):
        raise InvalidConfig("outcomes must lie in {-1, 0, +1}")
    return narrow


def tally_outcomes(o1, o2) -> Tally:
    """Fold two outcome arrays or sequences in {-1, 0, +1} into a Tally.

    Both must be one-dimensional, of one length and of an integer dtype, and
    hold no other value; anything else raises InvalidConfig.
    """
    o1, o2 = np.asarray(o1), np.asarray(o2)
    if o1.ndim != 1 or o1.shape != o2.shape:
        raise InvalidConfig(
            f"outcome arrays must be one-dimensional and of one length, "
            f"got shapes {o1.shape} and {o2.shape}"
        )
    o1, o2 = _as_int8(o1), _as_int8(o2)
    # 256*o1 + o2 + 257 is one-to-one on int8 pairs even where it wraps in
    # int16, so the fold is also the range check: a pair holding any other
    # value lands outside the nine pair codes.
    code = o1 * np.int16(256)
    code += o2
    code += np.int16(257)
    counts = np.bincount(code.view(np.uint16), minlength=_PAIR_CODES[-1] + 1)[_PAIR_CODES]
    if counts.sum() != o1.size:
        raise InvalidConfig("outcomes must lie in {-1, 0, +1}")
    return Tally(
        n_pp=int(counts[8]),
        n_pm=int(counts[6]),
        n_mp=int(counts[2]),
        n_mm=int(counts[0]),
        n_single_1=int(counts[1] + counts[7]),
        n_single_2=int(counts[3] + counts[5]),
        n_none=int(counts[4]),
        n_total=int(o1.size),
    )


def _chunk_tally(config: RunConfig, k: int, *, buf: np.ndarray) -> Tally:
    """Draw chunk k into buf, then measure it at both stations and fold it."""
    m = min(config.chunk_size, config.n_pairs - k * config.chunk_size)
    u = substream(config.seed, k).random((m, 2))
    phi, r = buf[0, :m], buf[1, :m]
    np.multiply(TWO_PI, u[:, 0], out=phi)
    np.copyto(r, u[:, 1])
    del u  # freed before measuring, so it adds nothing to a worker's peak memory
    o1 = measure_many(phi, r, config.angle_1, DetectorSide.ONE, config.params)
    o2 = measure_many(phi, r, config.angle_2, DetectorSide.TWO, config.params)
    return tally_outcomes(o1, o2)


def _tally_chunks(configs, jobs, size: int) -> list[Tally]:
    """Each config's tally over its (config index, chunk) jobs, with phi and r in one buffer.

    The buffer holds size pairs, at least the longest chunk of any config.
    """
    buf = np.empty((2, size))
    tallies = [Tally.zero()] * len(configs)
    for i, k in jobs:
        tallies[i] += _chunk_tally(configs[i], k, buf=buf)
    return tallies


def run_many(configs: Iterable[RunConfig], workers: int | None = None) -> list[Tally]:
    """Simulate each configured run and return its tally, in config order.

    Each tally equals run(config), and the batch shares one scheduler.  The
    batch's chunks form one job list, (config index, chunk) in config order,
    and go to n = min(workers, the number of jobs, cpu count) workers:
    worker w takes jobs w, w + n, w + 2n, ...  For a single run that is
    chunks k with k % n == w; a sweep of single-chunk rows deals its rows
    out the same way.  The caller's thread runs worker 0's share itself, and
    a pool of n - 1 threads runs the rest, each as one job, so a batch holds
    n - 1 futures; when n is 1 (or workers is None) no pool is made.  A
    worker draws, measures and folds each of its chunks on its own.  Each
    worker allocates one phi/r buffer that fits the batch's longest chunk,
    16 * max(min(chunk_size, n_pairs)) bytes, and reuses it for all its
    chunks; the buffers are freed when the batch returns.
    Tallies are integer sums, so the result is identical either way.
    workers, when given, must be an integer of at least 0.
    """
    configs = list(configs)
    n_workers = 1 if workers is None else _check_int("workers", workers)
    jobs = [(i, k) for i, config in enumerate(configs) for k in range(config.n_chunks)]
    n_workers = min(n_workers or 1, len(jobs) or 1, os.cpu_count() or 1)
    size = max((min(config.chunk_size, config.n_pairs) for config in configs), default=0)
    if n_workers <= 1:
        return _tally_chunks(configs, jobs, size)
    shares = [jobs[w::n_workers] for w in range(n_workers)]
    n_pooled = n_workers - 1
    with ThreadPoolExecutor(max_workers=n_pooled) as pool:
        pooled = pool.map(_tally_chunks, [configs] * n_pooled, shares[1:], [size] * n_pooled)
        per_worker = [_tally_chunks(configs, shares[0], size), *pooled]
    return [sum(tallies, Tally.zero()) for tallies in zip(*per_worker)]


def run(config: RunConfig, workers: int | None = None) -> Tally:
    """Simulate the configured pairs and return the merged tally.

    A batch of one: run_many([config], workers)[0].  See run_many for how
    chunks are scheduled and buffered.
    """
    return run_many([config], workers)[0]


def binomial_se(p: float, n: float) -> float:
    """Standard error of a rate with success probability p over n trials."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def correlation_se(corr: float, n: float) -> float:
    """Standard error of a +/-1 correlation with mean corr over n coincidences."""
    return math.sqrt(max(1.0 - corr * corr, 0.0) / n)


def zscore(got: float, want: float, se: float) -> float:
    """|got - want| in standard errors; with se == 0, 0.0 if exact and inf if not."""
    if se == 0.0:
        return 0.0 if got == want else math.inf
    return abs(got - want) / se


@dataclass(frozen=True)
class Estimates:
    """Point estimates from one tally, with the correlation's standard error."""

    corr: float
    corr_se: float
    eta_1: float
    eta_2: float
    coincidence_rate: float


def estimate(tally: Tally) -> Estimates:
    """Turn counts into rates and the coincidence-conditioned correlation.

    Rates are per emitted pair; the correlation divides by coincidences, so
    its standard error carries the 1/eta penalty.
    """
    _check_type("tally", tally, Tally)
    nc = tally.n_coincidences
    if nc == 0:
        raise EmptyTally("no coincidences in tally")
    n = tally.n_total
    corr = (tally.n_pp - tally.n_pm - tally.n_mp + tally.n_mm) / nc
    return Estimates(
        corr=corr,
        corr_se=correlation_se(corr, nc),
        eta_1=(nc + tally.n_single_1) / n,
        eta_2=(nc + tally.n_single_2) / n,
        coincidence_rate=nc / n,
    )
