"""Hyperbola-rectangle support geometry and atom weights for the limit law.

For two-atom laws with p-atoms at alpha, alpha' and q-atoms at beta, beta',
the spectrum of the model concentrates on H intersected with R, where H is
the hyperbola (x - alpha)(x - alpha') = (y - beta)(y - beta') and R is the
closed rectangle spanned by the four corner points alpha + i*beta, ...,
alpha' + i*beta'.  Writing gaps A = alpha' - alpha, B = beta' - beta and
centering z at ((alpha + alpha')/2, (beta + beta')/2), the hyperbola reads
(x')^2 - A^2/4 = (y')^2 - B^2/4, and a point of H lies in R exactly when the
shared level s = (x')^2 - A^2/4 is nonpositive.  ``dist_to_hr_many`` folds
each point into one quadrant and finds its nearest point on the single arc
left there by a monotone Newton iteration (closed form for equal gaps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TwoAtomLaw, UsageError, _corner_law, _frame, _rectangle_corners

__all__ = [
    "DegenerateGeometryError",
    "HyperbolaRectangle",
    "make_geometry",
    "dist_to_hr_many",
    "atom_weights",
]


class DegenerateGeometryError(UsageError):
    """Raised when a law's two atom locations coincide."""


@dataclass(frozen=True)
class HyperbolaRectangle:
    """Center, signed gaps and corners of the support geometry.

    Attributes
    ----------
    center_x, center_y : float
        Midpoints (alpha + alpha')/2 and (beta + beta')/2.
    gap_a, gap_b : float
        Signed gaps alpha' - alpha and beta' - beta; never zero.
    corners : tuple of complex
        The four points alpha + i*beta, alpha + i*beta', alpha' + i*beta,
        alpha' + i*beta', in that fixed order.
    """

    center_x: float
    center_y: float
    gap_a: float
    gap_b: float
    corners: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        if self.gap_a == 0.0 or self.gap_b == 0.0:
            raise DegenerateGeometryError("each law needs two distinct atom locations")

    @property
    def center(self) -> complex:
        return complex(self.center_x, self.center_y)

    @property
    def scale(self) -> float:
        """Length scale max(|A|, |B|, 1) used by all tolerances."""
        return max(abs(self.gap_a), abs(self.gap_b), 1.0)

    @property
    def im_halfwidth(self) -> float:
        """The bound |A*B|/2 on |Im((z - center)^2)| over H intersect R."""
        return 0.5 * abs(self.gap_a * self.gap_b)


def make_geometry(p_law: TwoAtomLaw, q_law: TwoAtomLaw) -> HyperbolaRectangle:
    """Build the hyperbola-rectangle geometry from the atom locations of two laws.

    The weights play no part: a law of weight 0 or 1 puts the spectrum on
    the corners, which lie on H intersect R.  A center coordinate halves its
    two locations first only where their sum overflows, so a finite sum keeps its bits.

    Raises
    ------
    DegenerateGeometryError
        If either law's two atom locations coincide.
    """
    a0, a1 = p_law.loc, p_law.loc_alt
    b0, b1 = q_law.loc, q_law.loc_alt
    center_x, center_y = (0.5 * (s + t) if np.isfinite(s + t) else 0.5 * s + 0.5 * t for s, t in ((a0, a1), (b0, b1)))
    return HyperbolaRectangle(
        center_x=center_x,
        center_y=center_y,
        gap_a=a1 - a0,
        gap_b=b1 - b0,
        corners=tuple(complex(x, y) for x, y in _rectangle_corners(a0, a1, b0, b1)),
    )


# Newton steps a point may take; (2/3)^90 * sqrt(2) < 2.1e-16 (see dist_to_hr_many)
_NEWTON_CAP = 90
# 16 unit roundoffs: twice the rounding bound of g, relative to t (2 + q) + v
_G_ROUNDING = 2.0**-49


def _arc_minimizer(u: np.ndarray, v: np.ndarray, c: float, h: float) -> np.ndarray:
    """Per point, the parameter t in [0, h] that Newton reaches from t = h.

    ``u`` and ``v`` are flat arrays and ``c > 0``; the iteration, its proof
    and its stopping rule are in :func:`dist_to_hr_many`.  Each round works
    on the points still moving only, so a point's iterates are the same
    alone as in any batch.
    """
    t = np.full(u.shape, h)
    idx = np.arange(u.size)
    ti, ui, vi, last = t, u, v, np.full(u.size, np.inf)
    # near the float limit q and g may overflow, g only to -inf (it is at
    # most 2h); g < 0 then holds on the whole arc, and the point rightly
    # stays at h
    with np.errstate(over="ignore"):
        for _ in range(_NEWTON_CAP):
            w = c + ti * ti
            q = ui / np.sqrt(w)
            g = ti * (2.0 - q) - vi
            dg = 2.0 - q * (c / w)
            far = g > _G_ROUNDING * (ti * (2.0 + q) + vi)
            ok = np.flatnonzero((g > 0.0) & (dg > 0.0))
            step = g[ok] / dg[ok]
            nxt = np.maximum(ti[ok] - step, 0.0)
            moved = (nxt < ti[ok]) & (step <= 2.0 * last[ok])
            t[idx[ok[moved]]] = nxt[moved]
            more = moved & far[ok]
            keep = ok[more]
            idx, ti, ui, vi, last = idx[keep], nxt[more], ui[keep], vi[keep], step[more]
            if not idx.size:
                break
    return t


def dist_to_hr_many(geom: HyperbolaRectangle, zs) -> np.ndarray:
    """Distances from each point of ``zs`` to H intersect R, in the shape of ``zs``.

    H intersect R is symmetric about both center lines, so a point's
    reflections across them all have its distance, and folding the point
    into the first quadrant, u = |x - center_x| and v = |y - center_y|, loses
    nothing; ``abs`` is exact, so points on a center line need no special
    case.  With u the wide-gap coordinate (swap u and v when |B| > |A|), the
    folded set is the single arc G(t) = (sqrt(c + t^2), t), t in [0, h], with
    c = |A^2 - B^2|/4 and h = min(|A|, |B|)/2; its speed lies between 1 and
    sqrt(2).  The constant c is taken as (|A| - |B|)(|A| + |B|)/4, which
    keeps its relative accuracy near equal gaps: there |A| - |B| is exact,
    while A^2 - B^2 would lose the bits its rounded squares share.

    The frame.  Everything below runs on u, v and the gaps divided by f =
    ``model._frame(max(|A|, |B|))``, and the distance is
    multiplied back by f.  Both are exact and every step is homogeneous, so
    the bits are those of the unscaled arithmetic wherever that neither
    overflows nor underflows, and gaps up to the float limit leave c finite.
    A finite point whose scaled coordinate overflows lies more than 2^1023 f
    from the center, and the set within 2 f of it, so its distance is
    |z - center| to rounding.

    The minimizer.  Let f(t) = |(u, v) - G(t)|^2.  Then f'(t)/2 = g(t) =
    phi(t) - v with phi(t) = t (2 - u / sqrt(c + t^2)).  phi(0) = 0, and
    phi'(t) = 2 - u c / (c + t^2)^(3/2) is nondecreasing since u >= 0, so g is
    convex with g(0) = -v <= 0.  A convex function that is <= 0 at t = 0 stays
    positive once it is positive, so f decreases up to
    r = max{t in [0, h] : g(t) <= 0} and increases after it, and r is the
    minimizer.  If g(h) <= 0, r = h.

    Newton is monotone.  Otherwise g(r) = 0 < g(t) on (r, h], and Newton runs
    from t_0 = h.  At t > r convexity gives 0 = g(r) >= g(t) - g'(t)(t - r),
    so g'(t) > 0 and the step g(t)/g'(t) is at most t - r: every iterate
    stays in [r, t_k] and the sequence decreases to r without overshooting.
    At a simple root it converges quadratically; at a double root
    (g'(r) = 0: the point lies on the arc's evolute) only linearly, but f is
    flat there, so the distance errs only to second order.

    A global rate.  Write the step as rho (t - r), where rho is the mean of
    g' over [r, t] divided by g'(t).  With psi(s) = (c + s^2)^(-3/2) and
    K = u c, g' = 2 - K psi; rho falls as K grows, and g'(r) >= 0 caps K at
    2/psi(r), so rho >= (psi(r) - mean psi)/(psi(r) - psi(t)).  That is
    >= 1/3, i.e. the integral of psi over [r, t] is at most
    (t - r)(2 psi(r) + psi(t))/3: the difference vanishes at t = r and
    grows in t, since its derivative is (2/3)(psi(r) - psi(t)) minus
    (t - r)|psi'(t)|/3, and |psi'| = 3 s (c + s^2)^(-5/2) averages at least
    |psi'(t)|/2 over [r, t] (it is concave where it rises, on [0, sqrt(c)/2],
    and falls after).  So t_k - r <= (2/3)^k h, and as the arc's speed is at
    most sqrt(2), the distance at t_k exceeds the minimum by at most
    sqrt(2) (2/3)^k h, below 2.1e-16 h at k = 90.  The same bound makes each
    step at most twice the one before: step_(k+1) <= t_(k+1) - r =
    (1 - rho_k)(t_k - r) <= 2 rho_k (t_k - r) = 2 step_k.

    The stopping rule, per point.  A point steps while its computed g and
    g' are positive.  With q = u / sqrt(c + t^2), tau = 2^-49 (t (2 + q) + v)
    is at least twice a bound on the rounding error of g.  A step taken
    from g <= tau is the point's last: the exact g(t) <= 2 tau there puts t
    within 2 tau / g'(r) of r, and f(t), which exceeds f(r) by the integral
    of 2 g over [r, t], within 4 tau (t - r) of f(r); no evaluation of g
    places the root better.  Going on while g > 0 instead would let a point
    walk down by a few units in the last place per step for thousands of
    steps: near the root c + t^2 no longer changes, and the computed g falls
    far slower than g' says.  A step is refused, and the point stops where
    it is, when it does not lower t or is more than twice the step before,
    which exact arithmetic never does; only rounding that swamps g', at the
    flat bottom of a double root, could make it so.  After 90 steps a point
    stops in any case, which by the rate above leaves the distance within
    2.1e-16 h of the minimum.  These tests see only the point's own
    iterates, so a point's bits do not depend on its batch.  Most points
    stop within ten steps; points at the vertex's center of curvature,
    u = 2 sqrt(c) and v = 0, where g has a triple root, take up to about 45.

    Equal gaps.  When c = 0, H is the two diagonals, G(t) = (t, t) and
    f = (u - t)^2 + (v - t)^2, so t* = clip(u/2 + v/2, 0, h) in closed form
    (phi'(0) would be 0/0 there; halving first keeps u + v from overflowing).

    The result is the least of |(u, v) - G(t)| at t*, 0 and h, each a point
    of the arc, so it never reads below the true distance beyond the
    rounding of ``np.hypot``.  ``np.hypot`` is libm's ``hypot``, not the
    complex ``np.abs``, whose SIMD form differs from it in the last bit for
    many inputs; so a point's distance is the same, bit for bit, alone as
    in any batch.  Points on the set return ~0 (below
    1e-13 * max(scale, |center_x|, |center_y|)); a NaN coordinate gives NaN
    and an infinite one gives inf, with no floating-point warning.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    x, y = np.abs(zs.real - geom.center_x), np.abs(zs.imag - geom.center_y)
    a, b = abs(geom.gap_a), abs(geom.gap_b)
    if b > a:
        x, y, a, b = y, x, b, a
    # the power-of-two frame of the larger gap: exact, and no square of a gap overflows
    f = _frame(a)
    with np.errstate(over="ignore"):
        u, v = x / f, y / f
    a, b = a / f, b / f
    # a - b is exact near equal gaps, where a difference of squares would cancel
    c = 0.25 * (a - b) * (a + b)
    h = 0.5 * b
    if c == 0.0:
        t = np.clip(0.5 * u + 0.5 * v, 0.0, h)
    else:
        t = _arc_minimizer(u.ravel(), v.ravel(), c, h).reshape(u.shape)

    def dist(t):
        return np.hypot(u - np.sqrt(c + t * t), v - t)

    d = np.minimum(dist(t), np.minimum(dist(0.0), dist(h))) * f
    # a finite point whose scaled coordinate overflowed lies over 2^1023 f from
    # the center, and the set within 2 f of it: its distance is |z - center|
    far = np.isinf(d) & np.isfinite(zs)
    d[far] = np.hypot(x[far], y[far])
    return d


def atom_weights(a: float, b: float) -> tuple[float, float, float, float]:
    """Corner atom weights of the limit law for p-weight a and q-weight b.

    The corner law ``model._corner_law(a, b, 1.0)``, in the corner order of
    :class:`HyperbolaRectangle`: e00 at alpha + i*beta, e01 at alpha +
    i*beta', e10 at alpha' + i*beta and e11 at alpha' + i*beta'.  At most
    two of the four are nonzero, and 1 minus their sum is the mass of the
    continuous part on H intersect R.
    """
    if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
        raise ValueError("weights must lie in [0, 1]")
    return _corner_law(a, b, 1.0)
