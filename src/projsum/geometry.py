"""Hyperbola-rectangle support geometry and atom weights for the limit law.

For two-atom laws with p-atoms at alpha, alpha' and q-atoms at beta, beta',
the spectrum of the model concentrates on H intersected with R, where H is
the hyperbola (x - alpha)(x - alpha') = (y - beta)(y - beta') and R is the
closed rectangle spanned by the four corner points alpha + i*beta, ...,
alpha' + i*beta'.  Writing gaps A = alpha' - alpha, B = beta' - beta and
centering z at ((alpha + alpha')/2, (beta + beta')/2), the hyperbola reads
(x')^2 - A^2/4 = (y')^2 - B^2/4, and a point of H lies in R exactly when the
shared level s = (x')^2 - A^2/4 is nonpositive.  ``dist_to_hr_many`` folds
each point into one quadrant and searches the single arc left there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TwoAtomLaw

__all__ = [
    "DegenerateGeometryError",
    "HyperbolaRectangle",
    "BrownAtomWeights",
    "make_geometry",
    "dist_to_hr_many",
    "atom_weights",
]


class DegenerateGeometryError(ValueError):
    """Raised when a one-atom law is passed where two atoms are required."""


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
            raise DegenerateGeometryError("gaps must be nonzero; laws must be two-atom")

    @property
    def center(self) -> complex:
        return complex(self.center_x, self.center_y)

    @property
    def scale(self) -> float:
        """Length scale max(|A|, |B|, 1) used by all tolerances."""
        return max(abs(self.gap_a), abs(self.gap_b), 1.0)

    @property
    def re_constant(self) -> float:
        """The constant value (A^2 - B^2)/4 of Re((z - center)^2) on H."""
        return 0.25 * (self.gap_a**2 - self.gap_b**2)

    @property
    def im_halfwidth(self) -> float:
        """The bound |A*B|/2 on |Im((z - center)^2)| over H intersect R."""
        return 0.5 * abs(self.gap_a * self.gap_b)


@dataclass(frozen=True)
class BrownAtomWeights:
    """Atom weights e_ij at the four corners plus the continuous remainder."""

    e00: float
    e01: float
    e10: float
    e11: float
    e_cont: float

    def __post_init__(self) -> None:
        total = self.e00 + self.e01 + self.e10 + self.e11 + self.e_cont
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    @property
    def corner_weights(self) -> tuple[float, float, float, float]:
        """Weights in the corner order of :class:`HyperbolaRectangle`."""
        return (self.e00, self.e01, self.e10, self.e11)


def make_geometry(p_law: TwoAtomLaw, q_law: TwoAtomLaw) -> HyperbolaRectangle:
    """Build the hyperbola-rectangle geometry from a pair of two-atom laws.

    Raises
    ------
    DegenerateGeometryError
        If either law is one-atom (zero gap or weight 0/1); the constant-p
        and constant-q situations need separate handling by the caller.
    """
    if not p_law.is_two_atom:
        raise DegenerateGeometryError(f"p law is not two-atom: {p_law}")
    if not q_law.is_two_atom:
        raise DegenerateGeometryError(f"q law is not two-atom: {q_law}")
    a0, a1 = p_law.loc, p_law.loc_alt
    b0, b1 = q_law.loc, q_law.loc_alt
    corners = (complex(a0, b0), complex(a0, b1), complex(a1, b0), complex(a1, b1))
    return HyperbolaRectangle(
        center_x=0.5 * (a0 + a1),
        center_y=0.5 * (b0 + b1),
        gap_a=a1 - a0,
        gap_b=b1 - b0,
        corners=corners,
    )


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi, iters: int = 80) -> np.ndarray:
    """Elementwise golden-section minimum of f over the brackets [lo, hi].

    ``lo`` and ``hi`` are scalars or arrays that broadcast against f's values.

    Library scalar minimizers stop at a sqrt(eps)*|x| relative floor, which
    is ~1e-8 here and too coarse for on-curve distances; a fixed iteration
    count shrinks every bracket below 1e-13 times its width unconditionally.
    Each element takes the steps it would take alone.
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


def dist_to_hr_many(geom: HyperbolaRectangle, zs) -> np.ndarray:
    """Distances from each point of ``zs`` to H intersect R, in the shape of ``zs``.

    H intersect R is symmetric about both center lines, so a point's
    reflections across them all have its distance, and folding the point
    into the first quadrant, u = |x - center_x| and v = |y - center_y|, loses
    nothing; ``abs`` is exact, so points on a center line need no special
    case.  With u the wide-gap coordinate (swap u and v when B^2 > A^2), the
    folded set is the single arc G(t) = (sqrt(c + t^2), t), t in [0, h], with
    c = |A^2 - B^2|/4 and h = min(|A|, |B|)/2; its speed lies between 1 and
    sqrt(2), so precision eps in t locates the distance to O(eps).  One
    golden section over the whole arc finds the global minimum:

    Let f(t) = |(u, v) - G(t)|^2.  Then f'(t)/2 = phi(t) - v with
    phi(t) = t (2 - u / sqrt(c + t^2)).  phi(0) = 0, and
    phi'(t) = 2 - u c / (c + t^2)^(3/2) is nondecreasing since u >= 0, so phi
    is convex.  A convex function that is <= 0 at t = 0 stays positive once it
    is positive, and phi(0) - v = -v <= 0; so f' changes sign at most once,
    from - to +, and f is unimodal on [0, h].  When c = 0 (equal gaps, H the
    two diagonals), f = (u - t)^2 + (v - t)^2 is a convex quadratic.

    The search takes ``np.hypot`` of the coordinate differences, not the
    complex ``np.abs``, whose SIMD form differs from libm ``hypot`` in the
    last bit for many inputs; so a point's distance is the same, bit for
    bit, alone as in any batch.  Points on the set return ~0 (below
    1e-13 * max(scale, |center_x|, |center_y|)); a NaN coordinate gives NaN
    and an infinite one gives inf.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    u, v = np.abs(zs.real - geom.center_x), np.abs(zs.imag - geom.center_y)
    if geom.gap_b**2 > geom.gap_a**2:
        u, v = v, u
    c = 0.25 * abs(geom.gap_a**2 - geom.gap_b**2)
    h = 0.5 * min(abs(geom.gap_a), abs(geom.gap_b))
    return _golden_min(lambda t: np.hypot(u - np.sqrt(c + t * t), v - t), 0.0, h)


def atom_weights(a: float, b: float) -> BrownAtomWeights:
    """Corner atom weights of the limit law for p-weight a and q-weight b.

    e00 = max(0, a + b - 1) sits at alpha + i*beta, e01 = max(0, a - b) at
    alpha + i*beta', e10 = max(0, b - a) at alpha' + i*beta, e11 =
    max(0, 1 - a - b) at alpha' + i*beta', and e_cont = 1 - sum is the mass
    of the continuous part on H intersect R.  At most two of the four corner
    weights are nonzero, and the five fields always sum to 1 exactly.
    """
    if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
        raise ValueError("weights must lie in [0, 1]")
    e00 = max(0.0, a + b - 1.0)
    e01 = max(0.0, a - b)
    e10 = max(0.0, b - a)
    e11 = max(0.0, 1.0 - a - b)
    e_cont = 1.0 - (e00 + e01 + e10 + e11)
    return BrownAtomWeights(e00=e00, e01=e01, e10=e10, e11=e11, e_cont=e_cont)
