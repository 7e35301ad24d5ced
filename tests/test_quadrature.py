import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlet_lhv import (
    DetectorSide,
    DomainError,
    InvalidConfig,
    PatternKind,
    SingletLhvError,
    joint_table,
    measure_many,
    nonideal_probs,
    solve_params,
)
from singlet_lhv import quadrature
from singlet_lhv.quadrature import outcome_probabilities

SIN = PatternKind.SYMMETRIZED_SINUSOIDAL
LINE = PatternKind.SYMMETRIZED_STAIRCASE
UNSYM = PatternKind.UNSYMMETRIZED_SINUSOIDAL


class TestUnsymmetrized:
    def setup_method(self):
        self.p = solve_params(0.7, 1.0, UNSYM)
        self.pi = outcome_probabilities(self.p, 0.0, math.pi / 3.0)

    def test_coincidence_cells(self):
        a = self.p.a
        ct = math.cos(math.pi / 3.0)
        scale = a / (2.0 * math.pi)
        t = self.pi.table
        assert t[2, 2] == pytest.approx(scale * (1.0 - ct), abs=1e-10)
        assert t[0, 0] == pytest.approx(scale * (1.0 - ct), abs=1e-10)
        assert t[2, 0] == pytest.approx(scale * (1.0 + ct), abs=1e-10)
        assert t[0, 2] == pytest.approx(scale * (1.0 + ct), abs=1e-10)

    def test_asymmetric_marginals(self):
        a, b = self.p.a, self.p.b
        minus1, none1, plus1 = self.pi.table.sum(axis=1)
        assert plus1 == pytest.approx(a / math.pi, abs=1e-10)
        assert minus1 == pytest.approx(a / math.pi, abs=1e-10)
        assert none1 == pytest.approx(1.0 - 2.0 * a / math.pi, abs=1e-9)
        minus2, _, plus2 = self.pi.table.sum(axis=0)
        assert plus2 == pytest.approx(0.5 * b, abs=1e-10)
        assert minus2 == pytest.approx(0.5 * b, abs=1e-10)

    def test_station_one_never_fires_alone(self):
        # the core lies strictly inside the other station's detection band
        assert self.pi.table[2, 1] == 0.0
        assert self.pi.table[0, 1] == 0.0

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
            with pytest.raises(DomainError):
                outcome_probabilities(p, a1, a2)
        for a1, a2 in (
            ("0", 1.0), (None, 1.0), (0.0, 1j),
            # Finite, but no setting measure_many takes.
            (True, 1.0), (0.0, np.bool_(False)), (Fraction(1, 3), 1.0), (0.0, Fraction(1, 3)),
        ):
            with pytest.raises(InvalidConfig):
                outcome_probabilities(p, a1, a2)
        with pytest.raises(InvalidConfig):
            outcome_probabilities(None, 0.0, 1.0)


class TestInterface:
    def setup_method(self):
        self.p = solve_params(0.7, 0.8, SIN)

    def test_table_shape(self):
        pi = outcome_probabilities(self.p, 0.0, 0.5, r_probes=64, gl_order=8)
        assert pi.table.shape == (3, 3)
        assert (pi.angle_1, pi.angle_2) == (0.0, 0.5)

    def test_knob_validation(self):
        for knob, bad in (
            ("r_probes", 8), ("r_probes", 100.5), ("r_probes", 64.0), ("r_probes", True),
            ("gl_order", 1), ("gl_order", 4.5), ("gl_order", "8"),
        ):
            with pytest.raises(InvalidConfig):
                outcome_probabilities(self.p, 0.0, 0.5, **{knob: bad})

    def test_integer_knobs_accept_numpy_integers(self):
        knobs = {"r_probes": 64, "gl_order": 4}
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


@st.composite
def _points(draw):
    """A feasible (kind, eta, v): inside, on the frontier, at eta = 0 or at v = 0."""
    kind = draw(st.sampled_from((SIN, LINE, UNSYM)))
    k = kind.amplitude_constant
    where = draw(st.sampled_from(("inside", "frontier", "eta-zero", "v-zero")))
    if kind is UNSYM:
        # v = 1 always; the frontier is then the single point eta = 4/(K + 2).
        eta = {"frontier": 4.0 / (k + 2.0), "eta-zero": 0.0}.get(
            where, draw(st.floats(0.0, 4.0 / (k + 2.0)))
        )
        return kind, eta, 1.0
    if where == "eta-zero":
        return kind, 0.0, draw(st.floats(0.0, 1.0))
    if where == "v-zero":
        return kind, draw(st.floats(0.0, 1.0)), 0.0
    if where == "frontier":
        eta = draw(st.floats(4.0 / (k + 2.0), 1.0))
        return kind, eta, min(1.0, (4.0 / eta - 2.0) / k)
    eta = draw(st.floats(0.0, 1.0))
    v = draw(st.floats(0.0, 1.0))
    return kind, eta, min(v, (4.0 / eta - 2.0) / k) if eta > 0.0 else v


_ANGLES = st.one_of(
    st.floats(-4.0 * math.pi, 4.0 * math.pi),
    st.integers(-16, 16).map(lambda n: n * math.pi / 4.0),
)


@st.composite
def _settings(draw):
    """Setting pairs: equal, on pi/4 multiples, generic, and beyond +-2*pi."""
    a1 = draw(_ANGLES)
    return a1, draw(st.one_of(st.just(a1), _ANGLES))


class TestCutsAgainstClosedForm:
    """The cut-and-segment integral is the closed-form table to 1e-15 per cell."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(point=_points(), angles=_settings())
    def test_every_cell(self, point, angles):
        params = solve_params(*point[1:], point[0])
        a1, a2 = angles
        got = outcome_probabilities(params, a1, a2).table
        np.testing.assert_allclose(got, joint_table(params, a2 - a1), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("k1, k2", [(-13, -13), (-15, -13)])
    @pytest.mark.parametrize("kind, eta, v", [
        (SIN, 0.7, 0.8), (LINE, 0.9, 0.75), (UNSYM, 0.7, 1.0),
    ])
    def test_node_rounded_up_to_two_pi(self, kind, eta, v, k1, k2):
        # At these pi/4 settings a Gauss-Legendre node of the last phi piece
        # rounds up to 2*pi, outside measure_many's [0, 2*pi); the oracle
        # takes it as the same phase 0.
        a1, a2 = k1 * math.pi / 4.0, k2 * math.pi / 4.0
        edges = quadrature._breakpoints(a1, a2)
        x, _ = quadrature._gauss_legendre(24)
        top = 0.5 * (edges[-1] - edges[-2]) * x[-1] + 0.5 * (edges[-1] + edges[-2])
        assert top == 2.0 * math.pi
        params = solve_params(eta, v, kind)
        got = outcome_probabilities(params, a1, a2).table
        np.testing.assert_allclose(got, joint_table(params, a2 - a1), rtol=0.0, atol=1e-15)


class TestMeasureManyCalls:
    """Per station, one small call for the midpoints and one bulk call for the probes.

    The benchmark's traced run needs an oracle measure_many call of at least
    65,536 elements on a generic setting pair.  Drop this pin once the
    harness splits its calls by caller instead (ROADMAP item 15).
    """

    @pytest.mark.parametrize("kind,eta,v,n_seg", [
        (SIN, 0.7, 0.8, 8), (LINE, 0.9, 0.75, 8), (UNSYM, 0.7, 1.0, 3),
    ])
    def test_midpoint_and_probe_calls(self, monkeypatch, kind, eta, v, n_seg):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return measure_many(*args, **kwargs)

        monkeypatch.setattr(quadrature, "measure_many", counting)
        # Two generic settings split [0, 2*pi) into 17 pieces of 24 nodes.
        outcome_probabilities(solve_params(eta, v, kind), 0.3, 1.3)
        assert len(calls) == 4
        for args, kwargs in calls:
            phi, r, _angle, _side, _params = args
            assert not kwargs and isinstance(phi, np.ndarray) and isinstance(r, np.ndarray)
            assert phi.size == r.size
        sizes = [args[0].size for args, _ in calls]
        assert sizes[:2] == [408 * n_seg] * 2
        assert sizes[2] == sizes[3] >= 1 << 16
        assert [args[3] for args, _ in calls] == [DetectorSide.ONE, DetectorSide.TWO] * 2


def _band_edge_mutant(measure_many):
    """measure_many with one station's detection band cut short at 0.93*b."""

    def mutated(phi, r, angle, side, params):
        out = measure_many(phi, r, angle, side, params)
        if params.kind is UNSYM:
            band_side, offset = DetectorSide.TWO, np.asarray(r)
        else:
            band_side, offset = DetectorSide.ONE, np.asarray(r) - 0.5
        if side is band_side:
            cut = (offset >= 0.93 * params.b) & (offset < params.b)
            out = np.where(cut, np.int8(0), out)
        return out

    return mutated


#: Each kind's inner cuts, with the column of _segments' start that holds them.
_INNER_CUTS = (
    *((kind, cut, column) for kind in (SIN, LINE) for column, cut in enumerate(
        ("w1", "cap1", "b", "1/2", "1/2+w2", "1/2+cap2", "1/2+b"), start=1
    )),
    (UNSYM, "w1", 1), (UNSYM, "b", 2),
)


def _cut_shifted(segments, column, shift):
    """_segments with every row's inner cut in start column `column` moved up by shift."""

    def shifted(*args):
        start, seg = (x.copy() for x in segments(*args))
        start[:, column] += shift
        seg[:, column - 1] += shift
        seg[:, column] -= shift
        return start, seg

    return shifted


class TestProbeGuard:
    @pytest.mark.parametrize("kind,eta,v", [(SIN, 0.7, 0.8), (LINE, 0.6, 0.7), (UNSYM, 0.7, 1.0)])
    def test_band_edge_mutant_is_caught(self, monkeypatch, kind, eta, v):
        params = solve_params(eta, v, kind)
        monkeypatch.setattr(quadrature, "measure_many", _band_edge_mutant(quadrature.measure_many))
        with pytest.raises(SingletLhvError, match="disagrees with the pattern cuts"):
            outcome_probabilities(params, 0.3, 1.3)

    def test_probe_on_a_cut_is_skipped(self):
        # At v = 1 the staircase cap equals its core height, and on the
        # inner steps that is a, here exactly 5/32: the third of 16 probes.
        # measure_many counts r == w into the core, which the segment above
        # the cut is not, so only the skip keeps this probe from failing.
        params = solve_params(math.sqrt(4.0 * (2.5 / 16) / LINE.amplitude_constant), 1.0, LINE)
        assert params.a == 2.5 / 16
        got = outcome_probabilities(params, 0.0, 1.0, r_probes=16).table
        np.testing.assert_allclose(got, joint_table(params, 1.0), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("r_probes", (160, 16))
    @pytest.mark.parametrize(
        "kind,cut,column", _INNER_CUTS, ids=[f"{k.value}-{c}" for k, c, _ in _INNER_CUTS]
    )
    def test_cut_moved_by_1e_6_is_caught(self, monkeypatch, kind, cut, column, r_probes):
        # The grid alone passes a cut this close at either size; the
        # straddles at cut -+ 2**-36 see it.
        params = solve_params(0.7, 1.0 if kind is UNSYM else 0.8, kind)
        monkeypatch.setattr(quadrature, "_segments", _cut_shifted(quadrature._segments, column, 1e-6))
        with pytest.raises(SingletLhvError, match="disagrees with the pattern cuts"):
            outcome_probabilities(params, 0.3, 1.3, r_probes=r_probes)

    @pytest.mark.parametrize("shift", (1e-2, -1e-2, 0.3, -0.3))
    def test_cut_out_of_order_is_caught(self, monkeypatch, shift):
        # A cut moved past a neighbour leaves its row's cuts out of order,
        # which the guard must report as a mismatch, not fail on inside numpy.
        params = solve_params(0.7, 0.8, SIN)
        segments = quadrature._segments
        for column in range(1, 8):
            monkeypatch.setattr(quadrature, "_segments", _cut_shifted(segments, column, shift))
            with pytest.raises(SingletLhvError, match="disagrees with the pattern cuts"):
                outcome_probabilities(params, 0.3, 1.3)

    def test_straddle_on_a_neighbouring_cut_is_skipped(self):
        # At eta = 1 - 2**-17.5 the band edge b is exactly 1/2 - 2**-36, so
        # the straddle above b lies on the half cut 1/2.  measure_many puts
        # r = 1/2 in the upper half, which the segment below 1/2 is not, so
        # only the skip keeps this straddle from failing.
        params = solve_params(1.0 - math.sqrt(2.0**-35), 0.5, SIN)
        assert params.b + 2.0**-36 == 0.5
        got = outcome_probabilities(params, 0.0, 1.0).table
        np.testing.assert_allclose(got, joint_table(params, 1.0), rtol=0.0, atol=1e-15)


def _reference_mismatches(got, probes, cuts, segment_label):
    """The guard's earlier formula: each probe's segment from cumulative cut counts."""
    n_phi, r_probes = got.shape
    start = (r_probes + 1) * np.arange(n_phi)[:, None]
    segment, segment_below = (
        np.bincount(
            (start + np.searchsorted(probes, cuts, side=side)).ravel(),
            minlength=n_phi * (r_probes + 1),
        ).reshape(n_phi, r_probes + 1)[:, :-1].cumsum(axis=1)
        for side in ("left", "right")
    )
    want = np.take_along_axis(segment_label, segment, axis=1)
    return want, (got != want) & (segment == segment_below)


def _guard_case(rng, family):
    """(got, probes, cuts, segment_label): sorted cuts of one family, labels mostly right."""
    r_probes = int(rng.integers(16, 48))
    n_phi = int(rng.integers(1, 6))
    n_cuts = int(rng.choice((2, 7)))
    probes = (np.arange(r_probes) + 0.5) / r_probes
    cuts = rng.random((n_phi, n_cuts))
    pick = rng.random(cuts.shape) < 0.5
    if family == "on-probes":
        cuts[pick] = rng.choice(probes, size=int(pick.sum()))
    elif family == "edges":
        cuts[pick] = rng.choice((0.0, 0.5, 1.0), size=int(pick.sum()))
    cuts.sort(axis=1)
    if family == "duplicates":
        for i, k in zip(*np.nonzero(pick[:, 1:])):
            cuts[i, k + 1] = cuts[i, k]
    segment_label = rng.integers(0, 9, (n_phi, n_cuts + 1)).astype(np.int8)
    got, _ = _reference_mismatches(
        np.zeros((n_phi, r_probes), np.int8), probes, cuts, segment_label
    )
    flip = rng.random(got.shape) < rng.choice((0.0, 0.02, 0.3))
    got = np.where(flip, rng.integers(0, 9, got.shape), got).astype(np.int8)
    return got, probes, cuts, segment_label


def _fake_labels(got, phi, cuts, segment_label):
    """_labels as the guard calls it, giving got on the grid and each straddle its segment's label."""
    row_of = {float(x): i for i, x in enumerate(phi)}

    def labels(phi_r, r, *rest):
        rows = np.array([row_of[float(x)] for x in phi_r[got.size:]], dtype=np.intp)
        below = (cuts[rows] < r[got.size:, None]).sum(axis=1)
        return np.concatenate([got.ravel(), segment_label[rows, below]])

    return labels


_FAMILIES = ("random", "on-probes", "duplicates", "edges")


class TestProbeMismatches:
    """The guard's expected labels flag exactly the probes the reference formulas flag."""

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_matches_reference_formula(self, monkeypatch, family):
        rng = np.random.default_rng(_FAMILIES.index(family))
        params = solve_params(0.7, 0.8, SIN)
        raised = 0
        for _ in range(400):
            got, probes, cuts, segment_label = _guard_case(rng, family)
            want_ref, bad_ref = _reference_mismatches(got, probes, cuts, segment_label)
            want, compared = quadrature._expected_labels(
                probes, np.empty(0), np.empty(0, np.intp), cuts, segment_label
            )
            assert np.array_equal(want, want_ref.ravel())
            assert np.array_equal((got.ravel() != want) & compared, bad_ref.ravel())
            n_phi, r_probes = got.shape
            phi = rng.random(n_phi) * 6.0
            monkeypatch.setattr(
                quadrature, "_labels", _fake_labels(got, phi, cuts, segment_label)
            )
            if not bad_ref.any():
                quadrature._check_segments(phi, cuts, segment_label, r_probes, 0.0, 0.0, params)
                continue
            raised += 1
            i, j = np.argwhere(bad_ref)[0]
            o_got, o_want = (
                tuple(o - 1 for o in divmod(int(x[i, j]), 3)) for x in (got, want_ref)
            )
            text = (
                f"measure_many disagrees with the pattern cuts at phi = {float(phi[i])!r}, "
                f"r = {float(probes[j])!r}: it gives outcomes {o_got}, the segment {o_want}"
            )
            with pytest.raises(SingletLhvError) as err:
                quadrature._check_segments(phi, cuts, segment_label, r_probes, 0.0, 0.0, params)
            assert str(err.value) == text
        assert 100 < raised < 400

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_straddles_match_per_row_search(self, family):
        rng = np.random.default_rng(10 + _FAMILIES.index(family))
        on_cuts = 0
        for _ in range(200):
            _, _, cuts, segment_label = _guard_case(rng, family)
            # Move some cuts to 2**-36 above the one before, so that a
            # straddle lies exactly on a neighbouring cut.
            n_phi, n_cuts = cuts.shape
            for i, k in zip(*np.nonzero(rng.random((n_phi, n_cuts - 1)) < 0.2)):
                if cuts[i, k] < 0.5:
                    cuts[i, k + 1] = cuts[i, k] + 2.0**-36
            cuts.sort(axis=1)
            straddle = (cuts[:, :, None] + quadrature._STRADDLE).reshape(n_phi, -1)
            straddle[(straddle < 0.0) | (straddle >= 1.0)] = np.nan
            keep = ~np.isnan(straddle)
            want_ref = np.zeros(straddle.shape, np.int8)
            on_cut = np.zeros(straddle.shape, bool)
            for i, j in zip(*np.nonzero(keep)):
                want_ref[i, j] = segment_label[i, np.searchsorted(cuts[i], straddle[i, j])]
                on_cut[i, j] = straddle[i, j] in cuts[i]
            flip = rng.random(straddle.shape) < 0.1
            got = np.where(flip, rng.integers(0, 9, straddle.shape), want_ref).astype(np.int8)
            want, compared = quadrature._expected_labels(
                np.empty(0), straddle[keep], np.nonzero(keep)[0], cuts, segment_label
            )
            assert np.array_equal(want, want_ref[keep])
            bad_ref = (got != want_ref) & ~on_cut
            assert np.array_equal((got[keep] != want) & compared, bad_ref[keep])
            on_cuts += int(on_cut.sum())
        assert on_cuts > 0

    def test_gauss_legendre_arrays_are_cached_and_read_only(self):
        x, w = quadrature._gauss_legendre(24)
        assert quadrature._gauss_legendre(24)[0] is x
        want_x, want_w = np.polynomial.legendre.leggauss(24)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
        for array in (x, w):
            with pytest.raises(ValueError):
                array[0] = 0.0
        for order in range(2, 40):
            quadrature._gauss_legendre(order)
        assert quadrature._gauss_legendre.cache_info().currsize <= 8
