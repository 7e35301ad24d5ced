"""Deterministic integration of the detector patterns, no sampling involved.

Computes the full 3x3 joint outcome table for one pair of settings by
integrating the pattern geometry directly, giving an oracle for Monte Carlo
results that shares no code path with the sampling engine beyond the
measurement function itself.

Method.  For fixed phi the joint outcome is piecewise constant in r, and
the geometry names every cut: station one changes at its core height w1,
its error-band cap1, the half split 1/2 and its band edge 1/2 + b; station
two at its band edge b and at 1/2 + w2 and 1/2 + cap2.  The unsymmetrized
kind cuts only at w1 and b.  Each phi node's cuts are sorted into at most
eight r-segments, measure_many labels every segment once at its midpoint,
and the segment lengths are summed by joint label, exactly.  Inside a
pattern half w <= cap <= b, so the cuts never cross within a phi piece,
and in phi the per-label lengths are analytic except where either
station's shifted phase crosses a multiple of pi/4.  The outer integral
therefore splits [0, 2*pi) at angle_i + k*pi/4 and applies Gauss-Legendre
on each piece.  The table matches the closed forms to a few 1e-16.

The cuts restate the geometry that measure_many implements, so a probe
guard checks them against measure_many itself.  The segment midpoints are
labelled in one measure_many call per station, and one flat probe list in
another: each phi node's r grid, then every inner cut from both sides at
cut -+ 2**-36.  The straddles catch a cut off by more than 2**-36, and the
grid a missing cut or a mislabelled segment wider than one grid step.  A
probe off a cut whose label is not its segment's, or cuts out of order,
raise SingletLhvError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import ProbQuad
from .errors import SingletLhvError, _check_int, _check_setting, _check_type
from .model import TWO_PI, DetectorSide, ModelParams, PatternKind, measure_many
from .model import _pattern_height, _shifted_phase

#: A straddle probe's offsets from its cut: far above the rounding of
#: 1/2 + w, 2**-54 or less, and far below verify's 1e-9 cell tolerance, so
#: a cut the straddles pass moves no cell by more than about 1.5e-11.
_STRADDLE = np.array([-(2.0**-36), 2.0**-36])

#: The largest float below 1, the top of measure_many's range of r.
_BELOW_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class PatternIntegral:
    """Joint outcome probabilities: table[o1 + 1, o2 + 1] is P(o1, o2), as in joint_table."""

    table: np.ndarray
    angle_1: float
    angle_2: float

    def prob_quad(self) -> ProbQuad:
        (p_mm, _, p_mp), _, (p_pm, _, p_pp) = self.table.tolist()
        return ProbQuad(p_pp=p_pp, p_pm=p_pm, p_mp=p_mp, p_mm=p_mm)

    def total(self) -> float:
        return float(self.table.sum())


def _breakpoints(angle_1: float, angle_2: float) -> np.ndarray:
    """0, 2*pi and every angle_i + k*pi/4 taken mod 2*pi, sorted and unique."""
    pts = np.mod(np.add.outer((angle_1, angle_2), np.arange(8) * (0.25 * math.pi)), TWO_PI)
    return np.unique(np.concatenate([pts.ravel(), [0.0, TWO_PI]]))


def _labels(
    phi: np.ndarray, r: np.ndarray, angle_1: float, angle_2: float, params: ModelParams
) -> np.ndarray:
    """The joint label 3*o1 + o2 + 4 in 0..8, folded in int8."""
    label = measure_many(phi, r, angle_1, DetectorSide.ONE, params) * np.int8(3)
    label += measure_many(phi, r, angle_2, DetectorSide.TWO, params)
    label += np.int8(4)
    return label


def _segments(
    phi: np.ndarray, angle_1: float, angle_2: float, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each phi node's r-segments, one row per node.

    Cuts are sorted as offsets into their pattern half, so that no length
    is a difference of r values that 1/2 + w has already rounded.
    """
    a, b, c = params.a, params.b, params.c
    w1 = _pattern_height(params.kind, a, _shifted_phase(phi, angle_1))
    if params.kind is PatternKind.UNSYMMETRIZED_SINUSOIDAL:
        halves = ((0.0, 1.0, (w1, b)),)
    else:
        w2 = _pattern_height(params.kind, a, _shifted_phase(phi, angle_2))
        # The error-band caps in measure()'s float operations, which
        # measure_many's exact path repeats near every cut.
        cap1, cap2 = w1 * (1.0 - c) + b * c, w2 * (1.0 - c) + b * c
        halves = ((0.0, 0.5, (w1, cap1, b)), (0.5, 0.5, (w2, cap2, b)))
    starts, lengths = [], []
    for base, size, cuts in halves:
        edges = np.sort(np.stack(np.broadcast_arrays(0.0, size, *cuts), axis=1), axis=1)
        starts.append(base + edges[:, :-1])
        lengths.append(np.diff(edges, axis=1))
    return np.hstack(starts), np.hstack(lengths)


def _expected_labels(
    grid: np.ndarray, straddle: np.ndarray, rows: np.ndarray,
    cuts: np.ndarray, segment_label: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's segment label, and whether it is compared.

    The probes are every row's grid, then the straddles, the k-th in row
    rows[k]; cuts holds each row's inner cuts in ascending order.  Each
    cut's count of grid probes below it, from searchsorted, bounds the grid
    probes of each segment, and one repeat of the segment labels lays them
    out; a running maximum keeps the counts nonnegative if a row's cuts are
    out of order, so that the row fails the compare.  A straddle's segment
    is the number of its own row's cuts below it; row offsets would round.
    A probe exactly on a cut, where either label may hold, is not compared.
    """
    n_phi, r_probes = cuts.shape[0], grid.size
    left, right = (np.searchsorted(grid, cuts, side=side) for side in ("left", "right"))
    counts = np.diff(np.maximum.accumulate(left, axis=1), axis=1, prepend=0, append=r_probes)
    # Each straddle's own cuts as a column: the reductions add whole rows.
    own = np.take(cuts.T, rows, axis=1)
    want = np.concatenate([
        np.repeat(segment_label.ravel(), counts.ravel()),
        segment_label[rows, (own < straddle).sum(axis=0)],
    ])
    compared = np.ones(want.size, dtype=bool)
    compared[(r_probes * np.arange(n_phi)[:, None] + left)[right > left]] = False
    compared[n_phi * r_probes:] = (own != straddle).all(axis=0)
    return want, compared


def _check_segments(
    phi: np.ndarray, cuts: np.ndarray, segment_label: np.ndarray, r_probes: int,
    angle_1: float, angle_2: float, params: ModelParams,
) -> None:
    """Raise unless measure_many labels every probe off a cut as its segment.

    One _labels call labels each row's probes: a grid of r_probes evenly
    spaced r values, and each inner cut at cut -+ _STRADDLE, less any
    straddle outside [0, 1).
    """
    n_phi, n_grid = phi.size, phi.size * r_probes
    grid = (np.arange(r_probes) + 0.5) / r_probes
    straddle = (cuts[:, :, None] + _STRADDLE).reshape(n_phi, -1)
    rows, cols = np.nonzero((straddle >= 0.0) & (straddle < 1.0))
    # Every row's grid, then the straddles, written once into the arrays
    # measure_many reads.
    r, phi_r = np.empty((2, n_grid + rows.size))
    r[:n_grid].reshape(n_phi, r_probes)[:] = grid
    r[n_grid:] = straddle[rows, cols]
    phi_r[:n_grid].reshape(n_phi, r_probes)[:] = phi[:, None]
    phi_r[n_grid:] = phi[rows]
    got = _labels(phi_r, r, angle_1, angle_2, params)
    want, compared = _expected_labels(grid, r[n_grid:], rows, cuts, segment_label)
    bad = (got != want) & compared
    if bad.any():
        k = bad.argmax()
        o_got, o_want = (tuple(o - 1 for o in divmod(int(x[k]), 3)) for x in (got, want))
        raise SingletLhvError(
            f"measure_many disagrees with the pattern cuts at phi = {float(phi_r[k])!r}, "
            f"r = {float(r[k])!r}: it gives outcomes {o_got}, the segment {o_want}"
        )


@functools.lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only; the last 8 orders are kept."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def outcome_probabilities(
    params: ModelParams,
    angle_1: float,
    angle_2: float,
    *,
    # 160 is the smallest round grid whose probe call on a generic setting
    # pair (408 phi nodes) holds at least 65,536 elements for every kind,
    # the size the benchmark's traced run counts as the oracle's bulk call;
    # revisit it once the harness splits calls by caller (ROADMAP item 15).
    r_probes: int = 160,
    gl_order: int = 24,
) -> PatternIntegral:
    """Integrate the joint outcome table for one setting pair.

    gl_order is the Gauss-Legendre order on each phi piece; the default
    sits at the floating-point floor.  The r integral is exact: each phi
    node's r-segments come from the pattern cuts and are labelled at their
    midpoints.  r_probes sets the grid of the probe guard: per phi node,
    r_probes evenly spaced r values and both sides of every inner cut are
    labelled by measure_many as one probe list and checked against their
    segments, and a mismatch or cuts out of order raise SingletLhvError.
    The straddles catch any cut off by more than 2**-36; the grid catches a
    missing cut or a mislabelled segment wider than 1/r_probes, 1/160 by
    default.  Each setting passes errors' setting rule, _check_setting, so a
    non-finite one raises DomainError.
    """
    r_probes = _check_int("r_probes", r_probes, lo=16)
    gl_order = _check_int("gl_order", gl_order, lo=2)
    _check_type("params", params, ModelParams)
    for name, angle in (("angle_1", angle_1), ("angle_2", angle_2)):
        _check_setting(name, angle)

    edges = _breakpoints(angle_1, angle_2)
    x, wts = _gauss_legendre(gl_order)
    half = 0.5 * np.diff(edges)[:, None]
    phi_nodes = (half * x + 0.5 * (edges[1:] + edges[:-1])[:, None]).ravel()
    # A node of the last piece can round up to 2*pi, the same phase as 0.
    phi_nodes[phi_nodes >= TWO_PI] -= TWO_PI
    phi_weights = (half * wts).ravel()
    n_phi = phi_nodes.size

    start, seg = _segments(phi_nodes, angle_1, angle_2, params)
    n_seg = seg.shape[1]
    # A segment of length 0 on top of station two's half has its midpoint at
    # r = 1, outside measure_many's [0, 1); its label carries no weight.
    # Clipped midpoints also let the guard below report cuts moved out of
    # the unit interval.
    mid = np.clip((start + 0.5 * seg).ravel(), 0.0, _BELOW_ONE)
    label = _labels(
        np.repeat(phi_nodes, n_seg), mid, angle_1, angle_2, params
    ).reshape(n_phi, n_seg)
    _check_segments(phi_nodes, start[:, 1:], label, r_probes, angle_1, angle_2, params)

    # Label-major, so that each label's row over the phi nodes is contiguous
    # and numpy sums it pairwise; a dot product strays by several ulps.
    index = n_phi * label.astype(np.intp) + np.arange(n_phi)[:, None]
    length = np.bincount(index.ravel(), weights=seg.ravel(), minlength=9 * n_phi)
    integral = (length.reshape(9, n_phi) * phi_weights).sum(axis=1) / TWO_PI
    return PatternIntegral(table=integral.reshape(3, 3), angle_1=angle_1, angle_2=angle_2)
