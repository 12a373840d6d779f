"""Dense spectral computations on model realizations.

Covers the empirical spectral distribution, the Hermitized measures nu_{n,z}
(squared singular values of z - X_n), and the structural facts that hold at
every finite n: X~^2 = (X - center)^2 is normal with constant real part
(A^2 - B^2)/4 and imaginary part bounded by |A*B|/2 in operator norm, the
eigenvalues of X_n lie on H intersect R, and sigma_min(z - X_n) is bounded
below by dist(z, H intersect R)^2 / ||z - X_n||.

A realization takes its dense spectra once: the eigenvalues of X_n
(``ModelRealization._eigenvalues``, read through ``esd``), and the
projections Pi_p = (P_n - alpha)/A and Pi_q = (Q_n - beta)/B with the c and
s of their m blocks (``ModelRealization._dense_spectra``; the four excess
corners of ``model._AngleSpectrum`` are counted, not measured).
``verify_sv_bound`` reads the singular values of z - X_n off the latter in
closed form, certifies them by Weyl's inequality, and takes a dense SVD only
where that cannot decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import dist_to_hr_many, make_geometry
from .model import ModelRealization, _divide, _frame

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
        return cls(points=pts, weights=np.full(pts.shape, 1.0 / pts.size))

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
    im_norm: operator norm of Im W = (W - W*)/2i; theory bounds it by |A*B|/2.
    normality_residual: ||[W, W*]||_F / max(|c| - re_deviation, im_norm)^2 >=
        ||[W, W*]||_2 / ||W||_2^2, as ||W|| >= ||Re W|| >= |c| - re_deviation
        and ||W|| >= ||Im W||; 0 if the denominator is (W is Hermitian then).
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
    W = X~^2 = c + iK is checked as an operator identity, with no eigenvalue
    or SVD of W (one ``eigvalsh``, of Im W), in the power-of-two frame f =
    ``model._frame(max(|A|, |B|))``, as in :func:`dist_to_hr_many`: from X~ / f,
    with re_deviation and im_norm multiplied back by f^2, both exact, so no bit
    moves unless the unscaled W over- or underflows.  See :class:`StructureReport`.
    """
    geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    f, eye = float(_frame(max(abs(geom.gap_a), abs(geom.gap_b)))), np.eye(realization.n)
    a, b = geom.gap_a / f, geom.gap_b / f
    c = 0.25 * (a - b) * (a + b)  # (A^2 - B^2)/4: near equal gaps A - B is exact, where rounded squares cancel
    xt = _divide(realization.x_matrix - geom.center * eye, f)
    w = xt @ xt
    wh = w.conj().T
    re_dev = float(np.linalg.norm((w + wh) / 2 - c * eye))
    im_norm = float(np.max(np.abs(np.linalg.eigvalsh((w - wh) / 2j))))
    comm = float(np.linalg.norm(w @ wh - wh @ w))
    floor = max(abs(c) - re_dev, im_norm)
    support_dev = float(np.max(dist_to_hr_many(geom, esd(realization).points)))
    # divided twice, so that floor^2 cannot underflow
    return StructureReport(re_dev * f * f, im_norm * f * f, comm / floor / floor if floor > 0.0 else 0.0, support_dev)


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


# unit roundoff of float64
_U = np.finfo(np.float64).eps / 2
# a block margin stands in for the dense one only when certified this close to it, times
# scale: the allowance `check` gives a margin
_MARGIN_ACCURACY = 1e-8


def _certified_sigmas(realization: ModelRealization, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, eps) for each z in ``zs``: the smallest and largest singular
    values of z - Y, and a bound eps on their distance from those of z - X_n.

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
    return lo, hi, _certificate_eps(realization) + 16.0 * _U * size


def _certificate_eps(realization: ModelRealization) -> float:
    """Bound on ||X_n - X^|| + ||X^ - Y|| (see ``verify_sv_bound``); inf when
    the projections are too far from exact ones of ranks k1, k2 to certify."""
    n, spectra = realization.n, realization._dense_spectra
    p_law, q_law = realization.realized_p_law, realization.realized_q_law
    a, b = abs(p_law.gap), abs(q_law.gap)
    idem = []
    for pi, k in zip((spectra.pi_p, spectra.pi_q), (spectra.angles.k1, spectra.angles.k2)):
        # ||Pi^2 - Pi||_F plus its rounding, (n + 3)u || |Pi| |Pi| ||_F at most;
        # || |Pi| |Pi| ||_F <= ||Pi||_F times the largest row sum of |Pi|
        rounding = (n + 3) * _U * float(np.abs(pi).sum(axis=1).max()) * float(np.linalg.norm(pi))
        bound = float(np.linalg.norm(pi @ pi - pi)) + rounding
        # every eigenvalue within 1/8 of 0 or 1, and the nearest projection of rank k
        if not 2.0 * math.sqrt(n) * bound + abs(float(np.trace(pi).real) - k) < 0.25:
            return math.inf
        idem.append(bound)
    i_p, i_q = idem
    # the residual and its norms in the frame f of the larger gap, multiplied back: both exact
    f = float(_frame(max(a, b)))
    resid, center = _divide(realization.x_matrix, f), complex(p_law.loc, q_law.loc) / f
    norms = (np.linalg.norm(resid), a / f * np.linalg.norm(spectra.pi_p), b / f * np.linalg.norm(spectra.pi_q))
    resid -= (p_law.gap / f) * spectra.pi_p  # in place: X_n / f is the one n x n copy
    resid -= 1j * ((q_law.gap / f) * spectra.pi_q)
    resid.flat[:: n + 1] -= center
    resid_bound = f * (float(np.linalg.norm(resid)) + 4.0 * _U * (float(sum(norms)) + math.sqrt(n) * abs(center)))
    delta = 2.0 * (i_p + i_q) + 4.0 * (n + 1) * _U
    return resid_bound + 2.0 * (a * i_p + b * i_q) + b * math.sqrt(2.0) * delta * (2.0 + math.sqrt(2.0) * delta)


def verify_sv_bound(realization: ModelRealization, z) -> np.ndarray:
    """Signed margin of sigma_min(z - X_n) >= dist(z, H n R)^2 / ||z - X_n||.

    Nonnegative in exact arithmetic for every z and every realization; when
    z is an eigenvalue both sides vanish.  Returns
    sigma_min - dist^2 / opnorm, which tests compare against a small
    negative floating-point allowance, as an array in the shape of ``z``
    (0-d for a scalar; one distance call for all points).  H n R is the
    geometry of the realized laws, and the angle spectrum is the
    realization's cached ``_dense_spectra``.

    The singular values come from the two-subspace theorem (Halmos, 1969),
    in O(n) per z.  Let X^ = alpha + A*Pi_p^ + i(beta + B*Pi_q^), where
    Pi^ is the exact projection nearest to Pi (round each eigenvalue to 0
    or 1).  X^ is alpha + i*beta + A*diag(1, 0) + iB*v v^T, v = (c, s), on
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
    ||X_n - Y|| <= eps, the sum of:

    * the computed ||X_n - (alpha + A*Pi_p) - i(beta + B*Pi_q)||_F, which
      covers an X_n that is not P_n + iQ_n, plus 4u times the norms it
      subtracts;
    * |A|*||Pi_p - Pi_p^|| + |B|*||Pi_q - Pi_q^||, each at most 2I with I
      the computed ||Pi^2 - Pi||_F plus (n + 3)u ||Pi||_F max_i sum_j
      |Pi_ij|, which bounds its rounding: an eigenvalue lambda at distance
      d < 1/2 from {0, 1} has |lambda^2 - lambda| >= d/2;
    * ||X^ - Y|| <= |B| * max_j ||v v^T - v^ v^^T|| <= |B|*sqrt2*delta*(2
      + sqrt2*delta), where delta bounds |c - c^| and |s - s^| at each
      sorted index: by Weyl again, the two distances 2I to the nearest
      projections, plus LAPACK's backward error of ``eigvalsh`` (n u ||S||)
      and the rounding of the sum, of the difference and of the shift by 1,
      together 4(n + 1)u;
    * the rounding of the shift z - (alpha + i*beta) and of the closed
      forms, 16u(hi + |z| + |alpha + i*beta|) per z.  The closed forms run
      in a per-z power-of-two frame (``_certified_sigmas``), which is exact.

    The layout needs each Pi^ to have rank k: 2 sqrt(n) I + |tr Pi - k| <
    1/4 puts every eigenvalue of Pi within 1/8 of 0 or 1, and tr Pi within
    1/4 of rank Pi^ (|tr Pi - rank Pi^| <= sqrt(n) * 2I).  Otherwise eps is
    infinite.  Where hi > eps and (lo - eps) - dist^2/(hi - eps) >= 0, the
    dense margin is provably nonnegative; it also lies within
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
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order!r}")
    n = realization.n
    eye = np.eye(n)
    p = realization.p_matrix - (np.trace(realization.p_matrix) / n) * eye
    q = realization.q_matrix - (np.trace(realization.q_matrix) / n) * eye
    word = p
    for k in range(1, order):
        word = word @ (q if k % 2 else p)
    return abs(complex(np.trace(word))) / n
