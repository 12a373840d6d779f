"""Support geometry: the on-set oracle, distance, atom weights."""

from __future__ import annotations

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projsum import (
    DegenerateGeometryError,
    TwoAtomLaw,
    atom_weights,
    dist_to_hr_many,
    make_geometry,
)
from projsum.model import _frame
from tests.conftest import P_LAW, Q_LAW

DEMO = make_geometry(P_LAW, Q_LAW)

# the distance tests' geometries: demo, B^2 > A^2, equal gaps, both gaps
# negative, and a center far from the origin
GEOMETRIES = {
    "demo": (P_LAW, Q_LAW),
    "wide_vertical_gap": (TwoAtomLaw(0.5, 0.0, 0.8), TwoAtomLaw(0.5, 0.0, 1.0)),
    "equal_gaps": (TwoAtomLaw(0.5, 0.0, 1.0), TwoAtomLaw(0.5, 0.0, 1.0)),
    "negative_gaps": (TwoAtomLaw(0.5, 1.0, 0.0), TwoAtomLaw(0.5, 1.0, -0.4)),
    "far_center": (TwoAtomLaw(0.5, -3.7, -1.3), TwoAtomLaw(0.5, 412.9, 413.45)),
}


def _atoms(geom):
    """(alpha, alpha', beta, beta') read off the exact corners."""
    return geom.corners[0].real, geom.corners[3].real, geom.corners[0].imag, geom.corners[3].imag


def _residual(geom, z) -> np.ndarray:
    """|(x - alpha)(x - alpha') - (y - beta)(y - beta')|, elementwise."""
    a0, a1, b0, b1 = _atoms(geom)
    z = np.asarray(z, dtype=np.complex128)
    return np.abs((z.real - a0) * (z.real - a1) - (z.imag - b0) * (z.imag - b1))


def _in_rectangle(geom, z) -> np.ndarray:
    """Whether z lies in the closed rectangle of atom coordinates, elementwise."""
    a0, a1, b0, b1 = _atoms(geom)
    z = np.asarray(z, dtype=np.complex128)
    return ((min(a0, a1) <= z.real) & (z.real <= max(a0, a1))
            & (min(b0, b1) <= z.imag) & (z.imag <= max(b0, b1)))


def _level_grid(geom, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-level samples s in [-min(A^2,B^2)/4, 0] with |x'|, |y'| values.

    The narrow-gap coordinate is sqrt(h^2 + s), and the wide one
    sqrt(c + narrow^2) with (c, h) from ``_arc``, so every sample keeps
    x'^2 - y'^2 = +-c to rounding even near equal gaps, where two square
    roots of rounded squares would not; at s = 0 it is the exact half gap.
    """
    c, h = _arc(geom)
    s = np.linspace(-h * h, 0.0, m)
    # the subtraction is exact at the lower endpoint, so sqrt never sees -0.0-eps
    narrow = np.sqrt(h * h + s)
    wide = np.sqrt(c + narrow * narrow)
    wide[-1] = 0.5 * max(abs(geom.gap_a), abs(geom.gap_b))
    xp, yp = (wide, narrow) if abs(geom.gap_a) >= abs(geom.gap_b) else (narrow, wide)
    return s, xp, yp


_BRANCH_SIGNS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


def hr_points(geom, m: int) -> np.ndarray:
    """On-set oracle: dense sampling of H intersect R along the shared level.

    Each of the four sign branches (sx, sy) contributes the m points
    center + sx*|x'(s)| + i*sy*|y'(s)| for s uniform in [-min(A^2,B^2)/4, 0],
    endpoints included: s = 0 gives the four rectangle corners and the lower
    endpoint gives the hyperbola vertices (shared points are repeated).  The
    result is the concatenation branch by branch, 4*m points in total, all of
    which satisfy both closed membership conditions.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"need at least 2 samples per branch, got {m!r}")
    _, xp, yp = _level_grid(geom, m)
    out = np.empty(4 * m, dtype=np.complex128)
    for i, (sx, sy) in enumerate(_BRANCH_SIGNS):
        out[i * m : (i + 1) * m] = (geom.center_x + sx * xp) + 1j * (geom.center_y + sy * yp)
    return out


def _curve_distance(geom, zs, sign, t):
    """|z - w(t)| elementwise, w(t) the curve point on the mirror side ``sign``.

    The curve is parameterized by the coordinate with the smaller gap
    (t = y' when A^2 >= B^2, else t = x'); the other coordinate is
    +-sqrt(c + t^2) with c = |A^2 - B^2|/4 >= 0.  ``sign`` is +-1, a scalar
    or one entry per point.
    """
    c, _ = _arc(geom)
    r = sign * np.sqrt(c + t * t)
    if geom.gap_a**2 >= geom.gap_b**2:
        return np.hypot(zs.real - (geom.center_x + r), zs.imag - (geom.center_y + t))
    return np.hypot(zs.real - (geom.center_x + t), zs.imag - (geom.center_y + r))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi, iters: int = 80) -> np.ndarray:
    """Elementwise golden-section minimum of f over the brackets [lo, hi].

    ``lo`` and ``hi`` are scalars or arrays that broadcast against f's values.
    A fixed iteration count shrinks every bracket below 1e-13 times its
    width unconditionally, and each element takes the steps it would take
    alone.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return np.minimum(np.minimum(fc, fd), np.minimum(f(lo), f(hi)))


def _arc(geom) -> tuple[float, float]:
    """(c, h) of the folded arc (sqrt(c + t^2), t), t in [0, h].

    c is (|A| - |B|)(|A| + |B|)/4, as in ``dist_to_hr_many``: near equal gaps
    the difference of the gaps is exact, while a difference of rounded
    squares would move c, and so the distance, far beyond the Newton
    search's own error.
    """
    a, b = abs(geom.gap_a), abs(geom.gap_b)
    return 0.25 * abs(a - b) * (a + b), 0.5 * min(a, b)


def _dist_to_hr_many_0140(geom, zs):
    """Reference: the 0.14.0 golden-section search over the whole folded arc."""
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    u, v = np.abs(zs.real - geom.center_x), np.abs(zs.imag - geom.center_y)
    if abs(geom.gap_b) > abs(geom.gap_a):
        u, v = v, u
    c, h = _arc(geom)
    return _golden_min(lambda t: np.hypot(u - np.sqrt(c + t * t), v - t), 0.0, h)


def _dist_to_hr_many_050(geom, zs, m=512):
    """Reference: the 0.5.0 search over all four branches and both mirror sides."""
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    pts = hr_points(geom, m)
    _, xp, yp = _level_grid(geom, m)
    half = 0.5 * min(abs(geom.gap_a), abs(geom.gap_b))
    a_is_wide = geom.gap_a**2 >= geom.gap_b**2
    t_abs = yp if a_is_wide else xp
    t_signs = np.array([sy if a_is_wide else sx for sx, sy in _BRANCH_SIGNS])
    win = np.empty(zs.shape, dtype=np.intp)
    coarse = np.empty(zs.shape, dtype=np.float64)
    block = 256
    for lo in range(0, zs.size, block):
        d = np.abs(zs[lo : lo + block, None] - pts[None, :])
        win[lo : lo + block] = np.argmin(d, axis=1)
        coarse[lo : lo + block] = np.min(d, axis=1)
    j = win % m
    tsign = t_signs[win // m]
    jlo = np.maximum(j - 3, 0)
    t1, t2 = tsign * t_abs[jlo], tsign * t_abs[np.minimum(j + 3, m - 1)]
    t_lo, t_hi = np.minimum(t1, t2), np.maximum(t1, t2)
    vertex = jlo == 0
    t_hi = np.where(vertex, np.maximum(np.abs(t_lo), np.abs(t_hi)), t_hi)
    t_lo = np.where(vertex, -t_hi, t_lo)
    t_lo, t_hi = np.maximum(t_lo, -half), np.minimum(t_hi, half)
    sides = [_golden_min(lambda t: _curve_distance(geom, zs, sign, t), t_lo, t_hi)
             for sign in (1.0, -1.0)]
    return np.minimum(coarse, np.minimum(*sides))


def _nudged(v: float, ulps: int) -> float:
    """v moved by |ulps| units in the last place, up for ulps > 0."""
    for _ in range(abs(ulps)):
        v = np.nextafter(v, math.copysign(math.inf, ulps))
    return float(v)


def _probe_points(g, rng) -> np.ndarray:
    """Random points, samples of the set, corners and center, and points on
    and 1-4 ulps off each center line (the fold's mirror lines)."""
    s = g.scale
    along_x = g.center_x + s * rng.standard_normal(12)
    along_y = g.center_y + s * rng.standard_normal(12)
    parts = [
        g.center + 2 * s * (rng.standard_normal(64) + 1j * rng.standard_normal(64)),
        hr_points(g, 37),
        np.array(g.corners),
        np.array([g.center]),
    ]
    for ulps in (0, 1, -1, 2, -2, 3, -3, 4, -4):
        x, y = _nudged(g.center_x, ulps), _nudged(g.center_y, ulps)
        parts += [x + 1j * along_y, along_x + 1j * y, np.array([complex(x, y)])]
    return np.concatenate(parts)


class TestMakeGeometry:
    def test_demo_geometry(self):
        assert DEMO.center_x == 0.5
        assert DEMO.center_y == 0.4
        assert DEMO.gap_a == 1.0
        assert DEMO.gap_b == pytest.approx(0.8)
        assert DEMO.corners == (0j, 0.8j, 1 + 0j, 1 + 0.8j)
        assert DEMO.scale == 1.0
        # the power-of-two frame of the larger gap, in which every closed form squares the gaps
        assert not hasattr(DEMO, "frame")
        assert _frame(max(abs(DEMO.gap_a), abs(DEMO.gap_b))) == 1.0
        tiny = make_geometry(TwoAtomLaw(0.5, 0.0, 1e-8), TwoAtomLaw(0.5, 0.0, 0.8e-8))
        assert _frame(max(abs(tiny.gap_a), abs(tiny.gap_b))) == 2.0**-27
        assert _frame(np.array([0.75, 1.0, 3.0, 2.0**-1074])).tolist() == [0.5, 1.0, 2.0, 2.0**-1074]
        # the real part (A - B)(A + B)/4 of (z - center)^2 on H, as structure_report takes it
        assert 0.25 * (DEMO.gap_a - DEMO.gap_b) * (DEMO.gap_a + DEMO.gap_b) == pytest.approx((1.0 - 0.64) / 4)
        assert DEMO.im_halfwidth == pytest.approx(0.4)

    def test_rejects_one_atom_laws(self):
        # only coincident locations make a one-atom law the geometry cannot take
        good = TwoAtomLaw(0.5, 0.0, 1.0)
        bad = TwoAtomLaw(0.5, 0.7, 0.7)
        for laws in ((bad, good), (good, bad)):
            with pytest.raises(DegenerateGeometryError, match="two distinct atom locations"):
                make_geometry(*laws)
        # a weight of 0 or 1 leaves one atom too, but the geometry reads the locations alone
        for weight in (0.0, 1.0):
            edge = TwoAtomLaw(weight, 0.0, 1.0)
            assert make_geometry(edge, Q_LAW) == make_geometry(good, Q_LAW)
            assert make_geometry(P_LAW, edge) == make_geometry(P_LAW, good)

    def test_atom_swap_leaves_support_invariant(self):
        # relabeling (loc, loc_alt) in either law flips the gap sign but
        # describes the same measure, hence the same H, R and corner set
        p_sw = TwoAtomLaw(1 - P_LAW.weight, P_LAW.loc_alt, P_LAW.loc)
        g2 = make_geometry(p_sw, Q_LAW)
        assert g2.gap_a == -DEMO.gap_a
        assert sorted(g2.corners, key=lambda c: (c.real, c.imag)) == sorted(
            DEMO.corners, key=lambda c: (c.real, c.imag)
        )
        zs = np.array([0.3 + 0.1j, -1 + 2j, 0.5 + 0.4j, 1.7 - 0.3j])
        assert np.allclose(dist_to_hr_many(DEMO, zs), dist_to_hr_many(g2, zs), atol=1e-12)


class TestMembership:
    def test_level_characterization_of_membership(self):
        # independent check of the three equivalent descriptions of a
        # hyperbola point lying in R: level s <= 0, rectangle membership,
        # and |Im((z-c)^2)| <= |A B|/2
        rng = np.random.default_rng(8)
        a2, b2 = DEMO.gap_a**2, DEMO.gap_b**2
        s = rng.uniform(-0.25 * min(a2, b2), 1.0, size=4000)
        s = s[np.abs(s) > 1e-9]
        sx = rng.choice([-1.0, 1.0], size=s.size)
        sy = rng.choice([-1.0, 1.0], size=s.size)
        z = (DEMO.center_x + sx * np.sqrt(0.25 * a2 + s)) + 1j * (
            DEMO.center_y + sy * np.sqrt(0.25 * b2 + s)
        )
        assert np.all(_residual(DEMO, z) <= 1e-12 * DEMO.scale**2)
        inside = _in_rectangle(DEMO, z)
        assert np.array_equal(inside, s <= 0)
        im_part = np.abs(np.imag((z - DEMO.center) ** 2))
        assert np.array_equal(inside, im_part <= DEMO.im_halfwidth + 1e-12)


class TestHrPoints:
    def test_all_points_are_members(self):
        pts = hr_points(DEMO, 257)
        assert pts.shape == (4 * 257,)
        assert np.all(_residual(DEMO, pts) <= 1e-12 * DEMO.scale**2)
        assert np.all(_in_rectangle(DEMO, pts))

    def test_endpoints_are_corners_and_vertices(self):
        m = 33
        pts = hr_points(DEMO, m)
        branch_ends = {pts[(i + 1) * m - 1] for i in range(4)}
        assert branch_ends == set(DEMO.corners)
        off = math.sqrt((DEMO.gap_a - DEMO.gap_b) * (DEMO.gap_a + DEMO.gap_b)) / 2
        branch_starts = {pts[i * m] for i in range(4)}
        assert branch_starts == {
            complex(0.5 - off, 0.4),
            complex(0.5 + off, 0.4),
        }

    def test_resolution_controls_gap(self):
        for m in (64, 256):
            pts = hr_points(DEMO, m)
            per = pts.reshape(4, m)
            step = np.max(np.abs(np.diff(per, axis=1)))
            assert step <= 4.0 * DEMO.scale / math.sqrt(m)

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            hr_points(DEMO, 1)


class TestDistance:
    def test_zero_on_the_set(self):
        pts = hr_points(DEMO, 97)
        d = dist_to_hr_many(DEMO, pts)
        assert np.max(d) <= 1e-13

    def test_center_distance_is_semi_axis(self):
        # nearest points to the center are the hyperbola vertices at
        # distance sqrt(|A^2 - B^2|)/2
        expect = math.sqrt(abs(DEMO.gap_a**2 - DEMO.gap_b**2)) / 2
        assert dist_to_hr_many(DEMO, [DEMO.center])[0] == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("laws", GEOMETRIES.values(), ids=GEOMETRIES.keys())
    def test_matches_bruteforce(self, laws):
        # the search over the folded arc finds the global minimum
        g = make_geometry(*laws)
        rng = np.random.default_rng(17)
        zs = g.center + g.scale * (rng.uniform(-1.5, 1.5, 60) + 1j * rng.uniform(-1.5, 1.5, 60))
        ref_pts = hr_points(g, 200_001)
        d = dist_to_hr_many(g, zs)
        tol = 1e-12 * max(g.scale, abs(g.center_x), abs(g.center_y))
        for z, di in zip(zs, d):
            ref = np.min(np.abs(z - ref_pts))
            assert di <= ref + tol
            assert di >= ref - 4.0 * g.scale / math.sqrt(200_001)

    def test_far_points(self):
        z = 100.0 + 100.0j
        bound = abs(z - DEMO.center) + 2 * DEMO.scale
        assert abs(z) - 2 * DEMO.scale <= dist_to_hr_many(DEMO, [z])[0] <= bound

    @given(
        z1=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        z2=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_lipschitz(self, z1: complex, z2: complex):
        d1 = dist_to_hr_many(DEMO, [z1])[0]
        d2 = dist_to_hr_many(DEMO, [z2])[0]
        assert abs(d1 - d2) <= abs(z1 - z2) + 1e-9

    @pytest.mark.parametrize("k", [-900, 600, 1000])
    @pytest.mark.parametrize("laws", GEOMETRIES.values(), ids=GEOMETRIES.keys())
    def test_scaled_geometry_scales_the_distances_bit_for_bit(self, laws, k):
        # the arc is solved in the power-of-two frame of the larger gap, so
        # scaling laws and points by 2^k scales every distance by 2^k exactly;
        # squared as Python floats, gaps of 2^600 raised OverflowError
        g = make_geometry(*laws)
        scaled = make_geometry(*(TwoAtomLaw(w.weight, math.ldexp(w.loc, k), math.ldexp(w.loc_alt, k)) for w in laws))
        rng = np.random.default_rng(29)
        zs = np.concatenate([hr_points(g, 41), g.center + g.scale * (rng.uniform(-1.5, 1.5, 60)
                                                                    + 1j * rng.uniform(-1.5, 1.5, 60))])
        got = dist_to_hr_many(scaled, zs * 2.0**k)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == np.ldexp(dist_to_hr_many(g, zs), k).tobytes()

    def test_far_point_of_a_tiny_geometry(self):
        # at gaps near 1e-300 a point at 1e10 overflows the frame of the gaps;
        # the set is then a point at its scale, and the distance |z - center|.
        # The center keeps its semi-axis sqrt(A^2 - B^2)/2, whose square underflows unscaled
        g = make_geometry(TwoAtomLaw(0.5, 0.0, 1e-300), TwoAtomLaw(0.5, 0.0, 0.8e-300))
        zs = np.array([1e10 + 1e10j, -3e9 + 0j, g.center])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = dist_to_hr_many(g, zs)
        assert d[:2] == pytest.approx(np.abs(zs[:2] - g.center), rel=1e-15)
        assert d[2] == pytest.approx(0.3e-300, rel=1e-12, abs=0.0)

    def test_points_on_the_arc_near_equal_gaps(self):
        # at gaps 5 and 5 (1 - 10^-10.19), c = (A^2 - B^2)/4 taken as a
        # difference of rounded squares erred by about 1e-6 of itself, and
        # the distances of points on the arc by up to 1.56e-11; the points
        # here are on the arc to 50 digits, then rounded once
        a, b = 5.0, 5.0 * (1.0 - 10.0**-10.19)
        g = make_geometry(TwoAtomLaw(0.5, -a / 2, a / 2), TwoAtomLaw(0.5, -b / 2, b / 2))
        assert (g.gap_a, g.gap_b) == (a, b)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            c = (decimal.Decimal(a) ** 2 - decimal.Decimal(b) ** 2) / 4
            ts = [0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.1, 1.0, b / 2]
            xs = [float((c + decimal.Decimal(t) ** 2).sqrt()) for t in ts]
        zs = np.array([complex(sx * x, sy * t) for x, t in zip(xs, ts) for sx in (-1, 1) for sy in (-1, 1)])
        assert np.max(dist_to_hr_many(g, zs)) <= 1e-13 * g.scale

    def test_equal_gaps_degenerate_to_lines(self):
        # A^2 = B^2 makes H the pair of diagonals through the center
        g = make_geometry(TwoAtomLaw(0.5, 0.0, 1.0), TwoAtomLaw(0.5, 0.0, 1.0))
        assert dist_to_hr_many(g, [g.center])[0] <= 1e-13
        assert dist_to_hr_many(g, [0.25 + 0.25j])[0] <= 1e-13
        # midpoint of an edge is at distance (edge/2)/sqrt(2) from a diagonal
        assert dist_to_hr_many(g, [0.5 + 0.0j])[0] == pytest.approx(0.25 * math.sqrt(2), abs=1e-9)

    def test_wide_vertical_gap(self):
        # mirror geometry with B^2 > A^2; vertices sit on the vertical axis
        g = make_geometry(TwoAtomLaw(0.5, 0.0, 0.8), TwoAtomLaw(0.5, 0.0, 1.0))
        off = math.sqrt(abs(g.gap_a**2 - g.gap_b**2)) / 2
        assert dist_to_hr_many(g, [g.center])[0] == pytest.approx(off, abs=1e-9)
        pts = hr_points(g, 50)
        assert np.max(dist_to_hr_many(g, pts)) <= 1e-13


    @pytest.mark.parametrize("q_law", [Q_LAW, TwoAtomLaw(0.5, 1.0, -0.4)])
    def test_batch_matches_single_points(self, q_law):
        # the refinement runs elementwise over arrays; no point may see its batch
        g = make_geometry(P_LAW, q_law)
        rng = np.random.default_rng(23)
        zs = np.concatenate([
            g.center + 2 * (rng.standard_normal(40) + 1j * rng.standard_normal(40)),
            hr_points(g, 31) + 1e-9j,
            [g.center, 100 + 100j],
        ])
        batch = dist_to_hr_many(g, zs)
        single = np.array([dist_to_hr_many(g, [z])[0] for z in zs])
        assert batch.tobytes() == single.tobytes()
        assert dist_to_hr_many(g, zs[::-1])[::-1].tobytes() == batch.tobytes()


class TestQuadrantSearch:
    """The folded search matches the 0.5.0 four-branch search up to rounding."""

    @staticmethod
    def _assert_matches_050(g, zs, m=512):
        atol = 1e-13 * max(g.scale, abs(g.center_x), abs(g.center_y))
        np.testing.assert_allclose(dist_to_hr_many(g, zs), _dist_to_hr_many_050(g, zs, m),
                                   rtol=0, atol=atol)

    @pytest.mark.parametrize("p_law,q_law", [
        (P_LAW, Q_LAW),
        (P_LAW, TwoAtomLaw(0.5, 1.0, -0.4)),
        (P_LAW, TwoAtomLaw(0.5, 0.0, 1.0)),
        (TwoAtomLaw(0.5, 0.1, 0.7), TwoAtomLaw(0.5, 0.33, -2.9)),
        (TwoAtomLaw(0.5, -3.7, -1.3), TwoAtomLaw(0.5, 412.9, 413.45)),
    ])
    def test_matches_four_branch_search(self, p_law, q_law):
        g = make_geometry(p_law, q_law)
        self._assert_matches_050(g, _probe_points(g, np.random.default_rng(29)))

    @given(
        center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        gaps=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
        equal_gaps=st.booleans(),
        signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
        m=st.sampled_from([2, 16, 128, 512]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_four_branch_search_over_geometries(self, center, gaps, equal_gaps, signs, m, seed):
        rng = np.random.default_rng(seed)
        # the centers hypothesis picks are mostly round numbers, at which
        # center + x' and center - x' round alike; a generic offset makes the
        # mirror images of points near a center line round differently
        (cx, cy), (ga, gb) = (v + rng.uniform(-1, 1) for v in center), gaps
        if equal_gaps:
            # multiples of 2^-10 below 2^11 make every atom and both gaps exact
            cx, cy, ga = (round(v * 1024) / 1024 for v in (cx, cy, ga))
            gb = ga
        ga, gb = signs[0] * ga, signs[1] * gb
        g = make_geometry(TwoAtomLaw(0.5, cx - ga / 2, cx + ga / 2),
                          TwoAtomLaw(0.5, cy - gb / 2, cy + gb / 2))
        if equal_gaps:
            assert abs(g.gap_a) == abs(g.gap_b)
        # m is the reference's sampling resolution only
        self._assert_matches_050(g, _probe_points(g, rng), m)

    @pytest.mark.parametrize("shape", [(3, 5), (4, 2048)])
    def test_array_input_keeps_its_shape(self, shape):
        rng = np.random.default_rng(5)
        zs = DEMO.center + rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        d = dist_to_hr_many(DEMO, zs)
        assert d.shape == shape
        assert d.tobytes() == dist_to_hr_many(DEMO, zs.ravel()).reshape(shape).tobytes()

    def test_non_finite_and_empty_input(self):
        nan, inf = math.nan, math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_nan = dist_to_hr_many(DEMO, [complex(nan, 0.3), complex(0.3, nan), complex(nan, nan),
                                           complex(DEMO.center_x, nan)])
            d_inf = dist_to_hr_many(DEMO, [complex(inf, 0.3), complex(-inf, 0.3), complex(0.3, inf),
                                           complex(0.3, -inf), complex(-inf, inf)])
            empty = dist_to_hr_many(DEMO, [])
        assert np.all(np.isnan(d_nan))
        assert np.all(d_inf == inf)
        assert empty.shape == (0,) and empty.dtype == np.float64
        assert math.isnan(dist_to_hr_many(DEMO, [complex(nan, 0.0)])[0])


def _unfold(geom, u, v, rng):
    """Points with folded coordinates (u, v), each reflected into a random quadrant."""
    if geom.gap_b**2 > geom.gap_a**2:
        u, v = v, u
    sx, sy = rng.choice([-1.0, 1.0], u.size), rng.choice([-1.0, 1.0], u.size)
    return (geom.center_x + sx * u) + 1j * (geom.center_y + sy * v)


def _hard_points(geom, rng, m=64) -> np.ndarray:
    """Points in the regions where a search along the folded arc is hardest.

    Near v = 0 around the vertex's center of curvature u = 2 sqrt(c), on and
    near the arc's evolute (where f has a double root), on the set and
    within 1e-9 of it, on the center lines, and out to 1e6 * scale.
    """
    c, h = _arc(geom)
    s = geom.scale
    rc = math.sqrt(c)
    t = h * rng.uniform(0, 1, m)
    x = np.sqrt(c + t * t)
    # the evolute: G(t) plus its radius of curvature along the inward normal
    k = np.hypot(1.0, t / x)
    radius = k**3 * x**3 / c if c > 0 else np.zeros(m)
    jitter = 1 + rng.normal(0, 1e-3, m) * rng.integers(0, 2, m)
    near = 1e-9 * s * rng.normal(0, 1, m)
    tiny = 10 ** rng.uniform(-16, -1, m) * rng.choice([-1.0, 1.0], m)
    u = np.concatenate([
        2 * rc * (1 + tiny),
        np.abs(x + radius / k) * jitter,
        x,
        np.abs(x + near),
        np.zeros(m),
        np.abs(2 * s * rng.normal(0, 1, m)),
        np.abs(1e6 * s * rng.normal(0, 1, m)),
    ])
    v = np.concatenate([
        np.abs(1e-12 * s * rng.normal(0, 1, m)) * rng.integers(0, 2, m),
        np.abs(t - radius * (t / x) / k) * jitter,
        t,
        np.abs(t - near),
        np.abs(2 * s * rng.normal(0, 1, m)),
        np.zeros(m),
        np.abs(1e6 * s * rng.normal(0, 1, m)),
    ])
    return np.concatenate([_unfold(geom, u, v, rng), [geom.center], hr_points(geom, 17)])


class TestNewtonSearch:
    """The Newton search matches the 0.14.0 golden section in the hard regions."""

    @given(
        kind=st.sampled_from(["tiny_c", "equal_gaps", "near_equal", "generic"]),
        center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        gap=st.floats(1e-7, 5.0),
        ratio=st.floats(0.0, 1.0),
        signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
        b_wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_golden_section_in_hard_regions(self, kind, center, gap, ratio, signs, b_wide, seed):
        rng = np.random.default_rng(seed)
        cx, cy = center
        wide = gap
        if kind == "tiny_c":
            # |A|, |B| up to 1e-3 keep scale at 1 while B = A (1 - rel) puts
            # c = A^2 rel (2 - rel)/4 at most 5e-21; a zero center keeps both
            # gaps exact
            cx = cy = 0.0
            wide = min(gap, 1e-3)
            rel = 2.0 ** -50 * (1e-20 / (2.0 ** -50 * wide * wide)) ** ratio
            narrow = wide * (1 - rel)
        elif kind == "equal_gaps":
            # multiples of 2^-10 below 2^11 make every atom and both gaps exact
            cx, cy, wide = (round(x * 1024) / 1024 for x in (cx, cy, max(gap, 2.0**-10)))
            narrow = wide
        elif kind == "near_equal":
            narrow = wide * (1 - 10 ** (-15 + 14 * ratio))
        else:
            narrow = wide * max(ratio, 1e-3)
        ga, gb = (narrow, wide) if b_wide else (wide, narrow)
        ga, gb = signs[0] * ga, signs[1] * gb
        g = make_geometry(TwoAtomLaw(0.5, cx - ga / 2, cx + ga / 2),
                          TwoAtomLaw(0.5, cy - gb / 2, cy + gb / 2))
        c, _ = _arc(g)
        if kind == "tiny_c":
            assert 0.0 < c <= 1e-20 * g.scale**2
        if kind == "equal_gaps":
            assert c == 0.0
        zs = _hard_points(g, rng)
        tol = 1e-13 * max(g.scale, abs(g.center_x), abs(g.center_y))
        np.testing.assert_allclose(dist_to_hr_many(g, zs), _dist_to_hr_many_0140(g, zs), rtol=0, atol=tol)

    @pytest.mark.parametrize("laws", GEOMETRIES.values(), ids=GEOMETRIES.keys())
    def test_finite_input_raises_no_warning(self, laws):
        # the equal-gap center would be 0/0 in the Newton step; the closed
        # form takes it.  Points near the float limit must not overflow.
        g = make_geometry(*laws)
        big = [1e308 + 1e308j, -1.7e308 + 3e307j, 1e308 + g.center_y * 1j, g.center_x + 1e308j]
        zs = np.concatenate([_hard_points(g, np.random.default_rng(41)), [g.center, g.center + 1e-300], big])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = dist_to_hr_many(g, zs)
        assert np.all(np.isfinite(d))
        if g.gap_a**2 == g.gap_b**2:
            assert dist_to_hr_many(g, [g.center])[0] == 0.0


class TestCornerLocations:
    # magnitudes up to 1e300 keep the gaps finite
    @given(st.lists(
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
        min_size=4, max_size=4,
    ).filter(lambda v: v[0] != v[1] and v[2] != v[3]))
    @settings(max_examples=300, deadline=None)
    def test_corners_lie_exactly_on_the_set(self, locs):
        g = make_geometry(TwoAtomLaw(0.5, locs[0], locs[1]), TwoAtomLaw(0.5, locs[2], locs[3]))
        a0, a1, b0, b1 = locs
        assert g.corners == (complex(a0, b0), complex(a0, b1), complex(a1, b0), complex(a1, b1))
        for c in g.corners:
            assert _in_rectangle(g, c)
            assert _residual(g, c) == 0.0


class TestAtomWeights:
    # the corner weights (e00, e01, e10, e11); the continuous part carries 1 - their sum
    def test_demo_values(self):
        w = atom_weights(5 / 8, 7 / 8)
        assert w == (0.5, 0.0, 0.25, 0.0)
        assert 1.0 - sum(w) == 0.25

    def test_balanced_case_has_no_atoms(self):
        w = atom_weights(0.5, 0.5)
        assert w == (0.0, 0.0, 0.0, 0.0)
        assert 1.0 - sum(w) == 1.0

    def test_extreme_weight_splits_between_two_corners(self):
        w = atom_weights(1.0, 7 / 8)
        assert w[0] == pytest.approx(7 / 8)
        assert w[1] == pytest.approx(1 / 8)
        assert 1.0 - sum(w) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            atom_weights(-0.1, 0.5)
        with pytest.raises(ValueError):
            atom_weights(0.5, 1.2)

    @given(
        a=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_weight_identities(self, a: float, b: float):
        w = atom_weights(a, b)
        parts = (*w, 1.0 - sum(w))
        assert all(0.0 <= p <= 1.0 for p in parts)
        # the four corners and the continuous part always sum to one exactly, not just approximately
        assert sum(parts) == 1.0
        assert sum(1 for p in w if p > 0) <= 2
        # swapping the roles of p and q transposes the corner grid; e00 and
        # the e01/e10 pair match exactly, e11 only up to one rounding of
        # 1 - a - b evaluated in the two orders
        wt = atom_weights(b, a)
        assert (w[0], w[1], w[2]) == (wt[0], wt[2], wt[1])
        assert w[3] == pytest.approx(wt[3], abs=1e-15)
        assert 1.0 - sum(w) == pytest.approx(1.0 - sum(wt), abs=1e-15)
