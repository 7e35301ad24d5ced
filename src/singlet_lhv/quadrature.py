"""Deterministic integration of the detector patterns, no sampling involved.

Computes the full 3x3 joint outcome table for one pair of settings by
integrating the pattern geometry directly, giving an oracle for Monte Carlo
results that shares no code path with the sampling engine beyond the
measurement function itself.

Method.  For fixed phi the joint outcome is piecewise constant in r, with a
handful of region boundaries (core height, error-band cap, the half split,
and the detection-band edge on each station).  Those boundaries are
recovered per phi node by probing a dense r grid, then bisecting every
probe interval whose endpoints disagree; each probe then owns the r-length
between the refined edges around it, which sums segment lengths into one
length per joint label, exactly.  In phi the per-label lengths are analytic
except at kinks located where either station's shifted phase crosses a
multiple of pi/4, so the outer integral splits [0, 2*pi) at
angle_i + k*pi/4 and applies Gauss-Legendre on each piece.  The result
carries roughly 1e-11 absolute accuracy at the default knobs, far below the
tolerances it is used to certify.

The dense scan and the length sums run over near-equal blocks of whole phi
rows, about _BLOCK probes each, so a block's temporaries stay in cache;
only one int8 label per probe is kept for the whole grid.  The bisection is
one batched pass over the gaps of every row.  Labels are elementwise and
each length is a sum over one contiguous row, so the table is bit-identical
for every block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ProbQuad
from .errors import InvalidConfig
from .model import TWO_PI, DetectorSide, ModelParams, measure_many
from .montecarlo import _check_int

_ANCHOR_EPS = 1e-12

#: Elements per block of whole phi rows in the dense label scan and the
#: length sums, so that one block's temporaries stay in cache.  Timings are
#: flat from 32Ki to 64Ki; at 64Ki and the default knobs every dense
#: measure_many call holds at least 64Ki elements, the size that perfbench's
#: traced run counts as "bulk" apart from the bisection's small calls.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class PatternIntegral:
    """Joint outcome probabilities as a 3x3 table indexed by outcome sign."""

    table: np.ndarray
    angle_1: float
    angle_2: float

    def joint(self, o1: int, o2: int) -> float:
        """Probability of outcome pair (o1, o2), each in {-1, 0, +1}."""
        if o1 not in (-1, 0, 1) or o2 not in (-1, 0, 1):
            raise InvalidConfig(f"outcomes must be in {{-1, 0, 1}}, got {(o1, o2)!r}")
        return float(self.table[o1 + 1, o2 + 1])

    def prob_quad(self) -> ProbQuad:
        return ProbQuad(
            p_pp=self.joint(1, 1),
            p_pm=self.joint(1, -1),
            p_mp=self.joint(-1, 1),
            p_mm=self.joint(-1, -1),
        )

    def marginal(self, side: DetectorSide) -> tuple[float, float, float]:
        """(P(+1), P(-1), P(0)) for one station; accepts 1 or 2 as well."""
        try:
            side = DetectorSide(side)
        except ValueError:
            raise InvalidConfig(f"side must be a detector side, got {side!r}") from None
        axis = 1 if side is DetectorSide.ONE else 0
        sums = self.table.sum(axis=axis)
        return (float(sums[2]), float(sums[0]), float(sums[1]))

    def coincidence(self) -> float:
        q = self.prob_quad()
        return q.total()

    def total(self) -> float:
        return float(self.table.sum())


def _breakpoints(angle_1: float, angle_2: float) -> np.ndarray:
    pts = []
    for alpha in (angle_1, angle_2):
        for k in range(8):
            pts.append(math.fmod(alpha + k * 0.25 * math.pi, TWO_PI))
    pts = np.mod(np.array(pts, dtype=float), TWO_PI)
    pts = np.unique(np.concatenate([pts, [0.0, TWO_PI]]))
    return pts


def _labels(
    phi: np.ndarray, r: np.ndarray, angle_1: float, angle_2: float, params: ModelParams
) -> np.ndarray:
    """The joint label 3*o1 + o2 + 4 in 0..8, folded in int8 as tally_outcomes does."""
    label = measure_many(phi, r, angle_1, DetectorSide.ONE, params) * np.int8(3)
    label += measure_many(phi, r, angle_2, DetectorSide.TWO, params)
    label += np.int8(4)
    return label


def outcome_probabilities(
    params: ModelParams,
    angle_1: float,
    angle_2: float,
    *,
    r_probes: int = 4096,
    gl_order: int = 24,
    bisect_iters: int = 60,
) -> PatternIntegral:
    """Integrate the joint outcome table for one setting pair.

    The knobs trade accuracy for time; the defaults already sit near the
    floating-point floor.  r_probes controls how fine the initial r scan
    is (regions thinner than 1/r_probes next to another boundary can be
    missed, which the default makes irrelevant for solved parameters).
    """
    r_probes = _check_int("r_probes", r_probes, lo=16)
    gl_order = _check_int("gl_order", gl_order, lo=2)
    bisect_iters = _check_int("bisect_iters", bisect_iters, lo=1)
    if not (math.isfinite(angle_1) and math.isfinite(angle_2)):
        raise InvalidConfig(f"angles must be finite, got {(angle_1, angle_2)!r}")

    edges = _breakpoints(angle_1, angle_2)
    x, wts = np.polynomial.legendre.leggauss(gl_order)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 1e-15:
            continue
        half = 0.5 * (hi - lo)
        nodes.append(half * x + 0.5 * (hi + lo))
        weights.append(half * wts)
    phi_nodes = np.concatenate(nodes)
    phi_weights = np.concatenate(weights)
    n_phi = phi_nodes.size

    probes = (np.arange(r_probes) + 0.5) / r_probes
    anchors = np.array(
        [_ANCHOR_EPS, 0.5 - _ANCHOR_EPS, 0.5 + _ANCHOR_EPS, 1.0 - _ANCHOR_EPS]
    )
    probes = np.unique(np.concatenate([probes, anchors]))
    n_probe = probes.size
    # Near-equal blocks of whole rows, about _BLOCK elements each, so that
    # no short tail block is left over.
    n_blocks = min(n_phi, max(1, n_phi * n_probe // _BLOCK))
    cuts = [k * n_phi // n_blocks for k in range(n_blocks + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    rows = -(-n_phi // n_blocks)

    labels = np.empty((n_phi, n_probe), dtype=np.int8)
    for blk in blocks:
        nb = blk.stop - blk.start
        labels[blk] = _labels(
            np.repeat(phi_nodes[blk], n_probe), np.tile(probes, nb),
            angle_1, angle_2, params,
        ).reshape(nb, n_probe)

    # Refine every probe interval whose endpoints carry different labels.
    ii, jj = np.nonzero(labels[:, :-1] != labels[:, 1:])
    lo = probes[jj].copy()
    hi = probes[jj + 1].copy()
    lab_lo = labels[ii, jj]
    phi_gap = phi_nodes[ii]
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        lab_mid = _labels(phi_gap, mid, angle_1, angle_2, params)
        take = lab_mid == lab_lo
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    cut = 0.5 * (lo + hi)

    # Each probe owns the r-length between the edges around it: the probe
    # midpoints, or the refined cut where a gap was bisected.  Gaps come in
    # row-major order, so each block's gaps are one slice of them.
    midpoints = 0.5 * (probes[:-1] + probes[1:])
    grid = np.empty((rows, n_probe + 1))
    grid[:, 0] = 0.0
    grid[:, -1] = 1.0
    seg = np.empty((rows, n_probe))
    length_by_label = np.zeros((n_phi, 9))
    for blk in blocks:
        nb = blk.stop - blk.start
        g, s = grid[:nb], seg[:nb]
        g[:, 1:-1] = midpoints
        first, last = np.searchsorted(ii, (blk.start, blk.stop))
        g[ii[first:last] - blk.start, jj[first:last] + 1] = cut[first:last]
        np.subtract(g[:, 1:], g[:, :-1], out=s)
        lab_blk = labels[blk]
        for lab in range(9):
            length_by_label[blk, lab] = np.where(lab_blk == lab, s, 0.0).sum(axis=1)

    integral = phi_weights @ length_by_label / TWO_PI
    return PatternIntegral(
        table=integral.reshape(3, 3), angle_1=angle_1, angle_2=angle_2
    )
