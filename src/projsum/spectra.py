"""Dense spectral computations on model realizations.

Covers the empirical spectral distribution, the Hermitized measures nu_{n,z}
(squared singular values of z - X_n), and the structural facts that hold at
every finite n: X~^2 = (X - center)^2 is normal with constant real part
(A^2 - B^2)/4 and imaginary part bounded by |A*B|/2 in operator norm, the
eigenvalues of X_n lie on H intersect R, and sigma_min(z - X_n) is bounded
below by dist(z, H intersect R)^2 / ||z - X_n||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import HyperbolaRectangle, dist_to_hr_many, make_geometry
from .model import ModelRealization

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

    re_deviation: max |Re(rho) - (A^2 - B^2)/4| over eigenvalues rho of X~^2.
    im_norm: operator norm of Im(X~^2); theory bounds it by |A*B|/2.
    normality_residual: ||[X~^2, (X~^2)*]|| / ||X~^2||^2; 0 for a normal matrix.
    support_deviation: max distance of ESD points from H intersect R.
    """

    re_deviation: float
    im_norm: float
    normality_residual: float
    support_deviation: float


def _eigvals(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolver failed on {what}: n={mat.shape[0]}, "
            f"max|entry|={np.abs(mat).max():.3e} ({exc})"
        ) from exc


def esd(realization: ModelRealization) -> WeightedPointMeasure:
    """Empirical spectral distribution of X_n: eigenvalues with weight 1/n each."""
    return WeightedPointMeasure.uniform(_eigvals(realization.x_matrix, "x_matrix"))


def _opnorm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def structure_report(
    realization: ModelRealization,
    geom: HyperbolaRectangle | None = None,
    measure: WeightedPointMeasure | None = None,
) -> StructureReport:
    """Evaluate the structural identities on one realization.

    ``geom`` must be the geometry of the realized laws, and is built from
    them when omitted; its center and gaps (A, B) define X~ = X - center.
    ``measure`` defaults to ``esd(realization)``; its support deviation is
    the largest :func:`dist_to_hr_many` over its points.
    """
    if geom is None:
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    xt = realization.x_matrix - geom.center * np.eye(realization.n)
    w = xt @ xt
    rho = _eigvals(w, "centered square")
    re_dev = float(np.max(np.abs(rho.real - geom.re_constant)))
    im_part = (w - w.conj().T) / 2j
    im_norm = float(np.max(np.abs(np.linalg.eigvalsh(im_part))))
    comm = w @ w.conj().T - w.conj().T @ w
    normality = float(np.max(np.abs(np.linalg.eigvalsh(comm)))) / _opnorm(w) ** 2
    if measure is None:
        measure = esd(realization)
    support_dev = float(np.max(dist_to_hr_many(geom, measure.points)))
    return StructureReport(
        re_deviation=re_dev,
        im_norm=im_norm,
        normality_residual=normality,
        support_deviation=support_dev,
    )


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


def verify_sv_bound(realization: ModelRealization, geom: HyperbolaRectangle, z) -> np.ndarray | float:
    """Signed margin of sigma_min(z - X_n) >= dist(z, H n R)^2 / ||z - X_n||.

    Nonnegative in exact arithmetic for every z and every realization; when
    z is an eigenvalue both sides vanish.  Returns
    sigma_min - dist^2 / opnorm, which tests compare against a small
    negative floating-point allowance, elementwise for an array ``z`` (one
    distance call for all points) and as a float for a scalar ``z``.
    """
    zs = np.asarray(z, dtype=np.complex128)
    dist = dist_to_hr_many(geom, zs).reshape(zs.shape)
    margins = np.empty(zs.shape)
    for idx, zi in np.ndenumerate(zs):
        shifted = zi * np.eye(realization.n) - realization.x_matrix
        try:
            svals = np.linalg.svd(shifted, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise ComputationError(f"SVD failed at z={complex(zi)!r} ({exc})") from exc
        margins[idx] = float(svals[-1]) - float(dist[idx]) ** 2 / float(svals[0])
    return margins if margins.ndim else float(margins)


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
