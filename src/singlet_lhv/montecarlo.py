"""Event-by-event sampling engine with reproducible parallel streams.

Reproducibility contract: a run is a pure function of its RunConfig.  Pairs
are processed in fixed-size chunks; chunk k draws from the counter-based
Philox stream keyed by (seed << 64) | k, so any chunk can be regenerated in
isolation and the tally is bit-identical no matter how many workers execute
the chunks or in what order they finish.  Each pair consumes exactly two
uniforms, phi = 2*pi*u1 and r = u2, in row order.  A chunk is drawn whole,
then measured and counted in fixed tiles of _TILE pairs so that the
temporaries of one tile stay in cache; a tally is a sum of counts, so the
tiles leave the (params, angles, n_pairs, seed, chunk_size) contract as it
is.

derive_seed() hands out decorrelated child seeds for higher-level drivers
(one per sweep row or CHSH setting) through a SplitMix64 mix, keeping every
row independently reproducible from its recorded seed alone.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTally, InvalidConfig
from .model import TWO_PI, DetectorSide, ModelParams, measure_many

_MASK64 = (1 << 64) - 1

DEFAULT_CHUNK_SIZE = 1 << 16

#: Pairs measured per measure_many call inside a chunk, sized so that one
#: tile's temporaries fit in a 2 MiB L2 cache.
_TILE = 1 << 14

#: Tolerance, in standard errors, of every sampled statistic against its oracle.
FIVE_SIGMA = 5.0


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _check_int(name: str, value, lo: int = 0) -> int:
    """value as an int in [lo, 2**64 - 1]; numpy integers pass, bools and floats do not."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool) or not lo <= number <= _MASK64:
        raise InvalidConfig(
            f"{name} must be an integer at least {lo} and below 2**64, got {value!r}"
        )
    return number


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
        for name in ("angle_1", "angle_2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite")

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
    def cells(self) -> tuple[int, int, int, int]:
        """Coincidence counts (n_pp, n_pm, n_mp, n_mm), the order of ProbQuad."""
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)

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


def tally_outcomes(o1, o2) -> Tally:
    """Fold two outcome arrays or sequences in {-1, 0, +1} into a Tally."""
    o1 = np.asarray(o1).astype(np.int8, copy=False)
    o2 = np.asarray(o2).astype(np.int8, copy=False)
    code = o1 * np.int8(3)
    code += o2
    code += np.int8(4)
    counts = np.bincount(code, minlength=9)
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


def _chunk_tally(config: RunConfig, k: int) -> Tally:
    start = k * config.chunk_size
    m = min(config.chunk_size, config.n_pairs - start)
    u = substream(config.seed, k).random((m, 2))
    phi = TWO_PI * u[:, 0]
    r = np.ascontiguousarray(u[:, 1])
    total = Tally.zero()
    for lo in range(0, m, _TILE):
        tile = slice(lo, lo + _TILE)
        o1 = measure_many(phi[tile], r[tile], config.angle_1, DetectorSide.ONE, config.params)
        o2 = measure_many(phi[tile], r[tile], config.angle_2, DetectorSide.TWO, config.params)
        total = total + tally_outcomes(o1, o2)
    return total


def run(config: RunConfig, workers: int | None = None) -> Tally:
    """Simulate the configured pairs and return the merged tally.

    Chunks go to a thread pool of min(workers, chunks, cpu count) threads;
    when that is 1 (or workers is None) they run serially on the caller's
    thread and no pool is made.  The result is identical either way.
    """
    indices = range(config.n_chunks)
    n_workers = min(workers or 1, config.n_chunks, os.cpu_count() or 1)
    if n_workers <= 1:
        tallies = (_chunk_tally(config, k) for k in indices)
    else:
        pool = ThreadPoolExecutor(max_workers=n_workers)
        try:
            tallies = list(pool.map(lambda k: _chunk_tally(config, k), indices))
        finally:
            pool.shutdown(wait=True)
    total = Tally.zero()
    for t in tallies:
        total = total + t
    return total


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
