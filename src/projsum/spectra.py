"""Dense spectral computations on model realizations.

Covers the empirical spectral distribution, the Hermitized measures nu_{n,z}
(squared singular values of z - X_n), and the structural facts that hold at
every finite n: X~^2 = (X - center)^2 is normal with constant real part
(A^2 - B^2)/4 and imaginary part bounded by |A*B|/2 in operator norm, the
eigenvalues of X_n lie on H intersect R, and sigma_min(z - X_n) is bounded
below by dist(z, H intersect R)^2 / ||z - X_n||.

A realization takes its dense spectra once: the eigenvalues of X_n
(``ModelRealization._eigenvalues``, read through ``esd``), and the c and s
of the m blocks of Pi_q = (Q_n - beta)/B against E_k1, P_n's projection, with
a Weyl bound eps (``ModelRealization._dense_spectra``; the four excess corners
of ``model._AngleSpectrum`` are counted, not measured).  ``verify_sv_bound``
reads the singular values of z - X_n off the latter in closed form, certifies
them with eps, and takes a dense SVD only where that cannot decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import dist_to_hr_many, make_geometry
from .model import ModelRealization, _U, _divide, _frame, _realize

__all__ = [
    "ComputationError",
    "WeightedPointMeasure",
    "StructureReport",
    "esd",
    "structure_report",
    "nu_n_z",
    "verify_sv_bound",
    "freeness_diagnostic",
]


class ComputationError(RuntimeError):
    """Raised when a dense eigen/singular-value solver fails to converge."""


@dataclass(frozen=True)
class WeightedPointMeasure:
    """Finite atomic measure: points (complex or real) with weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        # copies: freezing the caller's own arrays would make them read-only
        pts = np.atleast_1d(np.array(self.points))
        w = np.atleast_1d(np.array(self.weights, dtype=np.float64))
        if pts.shape != w.shape or pts.ndim != 1:
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(pts.real)) or not np.all(np.isfinite(pts.imag)):
            raise ValueError("points must be finite")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, points) -> "WeightedPointMeasure":
        pts = np.atleast_1d(np.asarray(points))
        return cls(points=pts, weights=np.ones(pts.shape) / pts.size)

    def mass_within(self, center: complex, radius: float) -> float:
        """Total weight carried by points within ``radius`` of ``center``."""
        return float(self.weights[np.abs(self.points - center) <= radius].sum())


@dataclass(frozen=True)
class StructureReport:
    """Deviations from the structural identities of one realization.

    Residuals of W = X~^2 = c + iK, c = (A^2 - B^2)/4, K Hermitian; each
    bounds from above its eigenvalue form, so no check on it is looser.
    re_deviation: ||Re W - c||_F, Re W = (W + W*)/2; for W v = rho v, |v| = 1,
        |Re(rho) - c| = |v*(Re W - c)v| <= ||Re W - c||_2 <= re_deviation.
    im_norm: max(||K11||_2, ||K22||_2) + ||K12||_F >= ||K||_2, K = Im W = (W - W*)/2i split
        at k1, P_n's rank; theory bounds ||K||_2 by |A*B|/2.  Tight for the model, whose
        K = {P~, Q~} is block diagonal when P~ is diagonal, as it is in P_n's eigenbasis.
    normality_residual: 4 im_norm re_deviation / max(|c| - re_deviation, ||K11||_2, ||K22||_2,
        ||K12||_F / sqrt(n))^2 >= ||[W, W*]||_F / ||W||_2^2, as [W, W*] = 2i[K, R] with R = Re W
        - c, so ||[W, W*]||_F <= 4 ||K||_2 ||R||_F, and ||W|| >= |c| - re_deviation and ||W|| >=
        ||K||_2, which is at least each of the other three; 0 if the denominator is (K = 0 then,
        so W = c + R is Hermitian, hence normal).
    support_deviation: max distance of ESD points from H intersect R.
    """

    re_deviation: float
    im_norm: float
    normality_residual: float
    support_deviation: float


def esd(realization: ModelRealization) -> WeightedPointMeasure:
    """Empirical spectral distribution of X_n: eigenvalues with weight 1/n each.

    The eigenvalues are the realization's cached ``_eigenvalues``, so every
    call on one realization reads one dense ``eigvals``.
    """
    x = realization.x_matrix
    try:
        return WeightedPointMeasure.uniform(realization._eigenvalues)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolver failed on x_matrix: n={x.shape[0]}, max|entry|={np.abs(x).max():.3e} ({exc})"
        ) from exc


def structure_report(realization: ModelRealization) -> StructureReport:
    """Evaluate the structural identities on one realization.

    The geometry is that of the realized laws; its center and gaps (A, B)
    define X~ = X - center.  The support deviation is the largest
    :func:`dist_to_hr_many` over the points of ``esd(realization)``.
    W = X~^2 = c + iK is checked as an operator identity, from one n x n product
    and one ``eigvalsh`` per diagonal block of Im W, split at k1 (P_n's rank), with
    no eigenvalue or SVD of W, in the frame f = ``model._frame(max(|A|, |B|))``, as in
    :func:`dist_to_hr_many`: from X~ / f, with re_deviation and im_norm multiplied back
    by f^2, both exact, so no bit moves unless the unscaled W over- or underflows.
    See :class:`StructureReport`.
    """
    geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    n, k1 = realization.n, _realize(realization.realized_p_law, realization.n)[0]
    f, eye = float(_frame(max(abs(geom.gap_a), abs(geom.gap_b)))), np.eye(n)
    a, b = geom.gap_a / f, geom.gap_b / f
    c = 0.25 * (a - b) * (a + b)  # (A^2 - B^2)/4: near equal gaps A - B is exact, where rounded squares cancel
    xt = _divide(realization.x_matrix - geom.center * eye, f)
    w = xt @ xt
    wh = w.conj().T
    re_dev = float(np.linalg.norm((w + wh) / 2 - c * eye))
    k = (w - wh) / 2j
    diag = max(float(np.max(np.abs(np.linalg.eigvalsh(block)))) for block in (k[:k1, :k1], k[k1:, k1:]) if block.size)
    off = float(np.linalg.norm(k[:k1, k1:]))
    im_norm = diag + off
    floor = max(abs(c) - re_dev, diag, off / math.sqrt(n))
    support_dev = float(np.max(dist_to_hr_many(geom, esd(realization).points)))
    # each norm divided by floor on its own, so that floor^2 cannot underflow
    normality = 4.0 * (im_norm / floor) * (re_dev / floor) if floor > 0.0 else 0.0
    return StructureReport(re_dev * f * f, im_norm * f * f, normality, support_dev)


def nu_n_z(realization: ModelRealization, z: complex) -> WeightedPointMeasure:
    """Spectral measure of (z - X_n)*(z - X_n): squared singular values, sorted."""
    shifted = z * np.eye(realization.n) - realization.x_matrix
    h = shifted.conj().T @ shifted
    try:
        vals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"Hermitian eigensolver failed at z={z!r} ({exc})") from exc
    # eigvalsh can return -1e-16 for an exact kernel; the measure lives on [0, inf)
    return WeightedPointMeasure.uniform(np.maximum(vals, 0.0))


# a block margin stands in for the dense one only when certified this close to it, times
# scale: the allowance `check` gives a margin
_MARGIN_ACCURACY = 1e-8


def _certified_sigmas(realization: ModelRealization, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, eps) for each z in ``zs``: the smallest and largest singular
    values of z - Y, and a bound eps on their distance from those of z - X_n:
    the cached ``_dense_spectra.eps`` plus the rounding of z's closed forms.

    Y = alpha + i*beta + A*Pi_p + iB*Pi_q on the blocks of the realization's
    cached angle core, with the computed c and s; see ``verify_sv_bound`` for
    the proof.  Real arithmetic only, so each z gives the same bits in any
    array shape.  Each z runs in the frame ``model._frame(max(|A|, |B|, |Re z - alpha|,
    |Im z - beta|))``, so no fourth power overflows; lo and hi are multiplied back, exactly."""
    spectra = realization._dense_spectra
    p_law, q_law = realization.realized_p_law, realization.realized_q_law
    c, s = spectra.angles.c, spectra.angles.s
    x = (zs.real - p_law.loc)[..., None]
    y = (zs.imag - q_law.loc)[..., None]
    f = _frame(np.maximum(max(abs(p_law.gap), abs(q_law.gap)), np.maximum(abs(x), abs(y))))
    x, y, a, b = x / f, y / f, p_law.gap / f, q_law.gap / f
    # M = w - N with w = x + iy and N = [[A + iBc^2, iBt], [iBt, iBs^2]], t = cs:
    # entries (ar + i ai, -i t, -i t, x + i di)
    t = b * c * s
    ar, ai, di = x - a, y - b * c * c, y - b * s * s
    p = ar * ar + ai * ai + t * t  # row norms of M, squared
    q = t * t + x * x + di * di
    cross = t * t * ((ai + di) ** 2 + a * a)  # |<row 1, row 2>|^2
    # sigma_max^2 = (F + sqrt(F^2 - 4 det^2))/2 with F^2 - 4 det^2 = (p - q)^2 + 4 cross,
    # which does not cancel when the two singular values are close
    smax = np.sqrt(0.5 * (p + q + np.sqrt((p - q) ** 2 + 4.0 * cross)))
    det_re, det_im = ar * x - ai * di + t * t, ar * di + ai * x
    smin = np.sqrt(det_re * det_re + det_im * det_im) / smax
    # the excess corners, at their offsets (cx, cy) from (alpha, beta)
    dc = [np.sqrt((x - cx) ** 2 + (y - cy) ** 2) for (cx, cy), e in spectra.angles.corners(a, b) if e]
    lo = np.concatenate([smin, *dc], axis=-1).min(axis=-1) * f[..., 0]
    hi = np.concatenate([smax, *dc], axis=-1).max(axis=-1) * f[..., 0]
    # rounding of the shift to w and of the closed forms
    size = hi + np.hypot(zs.real, zs.imag) + math.hypot(p_law.loc, q_law.loc)
    return lo, hi, spectra.eps + 16.0 * _U * size


def verify_sv_bound(realization: ModelRealization, z) -> np.ndarray:
    """Signed margin of sigma_min(z - X_n) >= dist(z, H n R)^2 / ||z - X_n||.

    Nonnegative in exact arithmetic for every z and every realization; when
    z is an eigenvalue both sides vanish.  Returns
    sigma_min - dist^2 / opnorm, which tests compare against a small
    negative floating-point allowance, as an array in the shape of ``z``
    (0-d for a scalar; one distance call for all points).  H n R is the
    geometry of the realized laws, and the angle spectrum and eps are the
    realization's cached ``_dense_spectra``.

    The singular values come from the two-subspace theorem (Halmos, 1969),
    in O(n) per z.  Let X^ = alpha + A*E_k1 + i(beta + B*Pi_q^), where
    E_k1 is P_n's exact projection in the eigenbasis the realization is taken
    in, and Pi_q^ the exact projection nearest to Pi_q (round each eigenvalue
    to 0 or 1).  X^ is alpha + i*beta + A*diag(1, 0) + iB*v v^T, v = (c, s), on
    each of the m blocks of ``model._AngleSpectrum``, and a corner on each
    excess dimension, counted from n, k1, k2.  The singular values of z - X^ are
    |z - corner| on the excess corners and those of one 2 x 2 matrix M per
    block, with sigma_max^2 = (F + sqrt(F^2 - 4|det M|^2))/2, F = ||M||_F^2,
    and sigma_min = |det M| / sigma_max, which avoids cancellation.  F^2 -
    4|det M|^2 is evaluated as (p - q)^2 + 4|r|^2 from the Gram matrix
    [[p, r], [r*, q]] of M's rows, which does not cancel when the two
    singular values are close (far from the spectrum).  lo and hi are the
    minimum and maximum over all pieces.

    Certificate.  By Weyl's inequality each singular value of z - X_n lies
    within ||X_n - Y|| of the matching one of z - Y, where Y is the matrix
    whose pieces are evaluated (the blocks with the computed c and s), and
    ||X_n - Y|| <= eps, the sum of three terms taken once, with the angles, in
    ``model._projection_spectra``, and a fourth per z:

    * the computed ||X_n - (alpha + A*E_k1) - i(beta + B*Pi_q)||_F, which
      is ||P_n - (alpha + A*E_k1)||_F up to rounding (Pi_q is read off X_n),
      plus 4u times the norms it subtracts;
    * |B|*||Pi_q - Pi_q^|| <= 2|B|I, with I the computed ||Pi_q^2 - Pi_q||_F
      plus (n + 3)u ||Pi_q||_F max_i sum_j |Pi_q,ij|, which bounds its
      rounding: an eigenvalue lambda at distance d < 1/2 from {0, 1} has
      |lambda^2 - lambda| >= d/2;
    * ||X^ - Y|| <= |B| * max_j ||v v^T - v^ v^^T|| <= |B|*sqrt2*delta*(2
      + sqrt2*delta), where delta bounds |c - c^| and |s - s^| at each
      sorted index.  c and s are singular values of the rows E_k1 Pi_q and
      (I - E_k1) Pi_q, c^ and s^ those of the same rows of Pi_q^, so by
      Weyl's inequality for singular values they differ by at most ||Pi_q -
      Pi_q^|| <= 2I, plus LAPACK's backward error of ``gesdd``, modelled as
      n u ||Pi_q||_2 <= 2nu (||Pi_q||_2 <= 1 + 2I < 2), which 4(n + 1)u covers;
    * the rounding of the shift z - (alpha + i*beta) and of the closed
      forms, 16u(hi + |z| + |alpha + i*beta|), added per z by ``_certified_sigmas``,
      whose closed forms run in a per-z power-of-two frame, which is exact.

    The layout needs Pi_q^ to have rank k2: 2 sqrt(n) I + |tr Pi_q - k2| <
    1/4 puts every eigenvalue of Pi_q within 1/8 of 0 or 1, and tr Pi_q
    within 1/4 of rank Pi_q^ (|tr Pi_q - rank Pi_q^| <= sqrt(n) * 2I);
    otherwise eps is infinite.  P_n needs no layout: one far from alpha +
    A*E_k1 gives a large residual, so a large eps and the dense SVD.  Where
    hi > eps and (lo - eps) - dist^2/(hi - eps) >= 0, the dense margin is
    provably nonnegative; it also lies within
    eps * (1 + dist^2/(hi (hi - eps))) of the block margin lo - dist^2/hi.
    Where both hold and that distance is at most 1e-8 * scale (the allowance
    ``check`` gives a margin), the block margin is returned: it is
    nonnegative, so at every tolerance >= 0 its verdict is the dense
    verdict.  At every other z, a perturbed X_n's included, the dense SVD
    gives the margin.
    """
    geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    zs = np.asarray(z, dtype=np.complex128)
    dist = dist_to_hr_many(geom, zs).reshape(zs.shape)
    lo, hi, eps = _certified_sigmas(realization, zs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        margins = np.array(lo - dist**2 / hi)
        slack = hi - eps
        certified = (
            (slack > 0.0)
            & (lo - eps - dist**2 / slack >= 0.0)
            & (eps * (1.0 + dist**2 / (hi * slack)) <= _MARGIN_ACCURACY * geom.scale)
        )
    for idx, ok in np.ndenumerate(certified):
        if ok:
            continue
        shifted = zs[idx] * np.eye(realization.n) - realization.x_matrix
        try:
            svals = np.linalg.svd(shifted, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise ComputationError(f"SVD failed at z={complex(zs[idx])!r} ({exc})") from exc
        margins[idx] = float(svals[-1]) - float(dist[idx]) ** 2 / float(svals[0])
    return margins


def freeness_diagnostic(realization: ModelRealization, order: int) -> float:
    """|normalized trace of the alternating centered word of given length|.

    The word alternates trace-centered factors starting from P: with
    Ac = A - (tr(A)/n) I, order=2 gives tr(Pc Qc)/n and order=4 gives
    tr(Pc Qc Pc Qc)/n.  Asymptotic freeness drives this to 0 as n grows;
    without the Haar rotations it generally stays bounded away from 0.
    """
    if type(order) is not int or order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order!r}")
    n = realization.n
    p, q = (m - (np.trace(m) / n) * np.eye(n) for m in (realization.p_matrix, realization.q_matrix))
    word = p
    for k in range(1, order):
        word = word @ (q if k % 2 else p)
    return abs(complex(np.trace(word))) / n
