"""Dense spectral computations on model realizations.

Covers the empirical spectral distribution, the Hermitized measures nu_{n,z}
(squared singular values of z - X_n), and the structural facts that hold at
every finite n: X~^2 = (X - center)^2 is normal with constant real part
(A^2 - B^2)/4 and imaginary part bounded by |A*B|/2 in operator norm, the
eigenvalues of X_n lie on H intersect R, and sigma_min(z - X_n) is bounded
below by dist(z, H intersect R)^2 / ||z - X_n||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HyperbolaRectangle, dist_to_hr_many, make_geometry
from .model import ModelRealization

__all__ = [
    "ComputationError",
    "WeightedPointMeasure",
    "StructureReport",
    "ClusterPairing",
    "PairingReport",
    "esd",
    "centered_model",
    "structure_report",
    "nu_n_z",
    "min_singular_value",
    "verify_sv_bound",
    "eigenspace_pairing_check",
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
        pts = np.atleast_1d(np.asarray(self.points))
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
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


def centered_model(realization: ModelRealization) -> tuple[np.ndarray, float, float]:
    """X~ = X - center together with the realized gaps (A, B).

    Requires both realized laws to be two-atom; the center is the midpoint
    of the atom coordinates, so P~^2 and Q~^2 are scalar matrices.
    """
    geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    xt = realization.x_matrix - geom.center * np.eye(realization.n)
    return xt, geom.gap_a, geom.gap_b


def _opnorm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def structure_report(
    realization: ModelRealization,
    geom: HyperbolaRectangle | None = None,
    measure: WeightedPointMeasure | None = None,
) -> StructureReport:
    """Evaluate the structural identities on one realization.

    ``geom`` defaults to the geometry of the realized laws and ``measure``
    to ``esd(realization)``.  The support distances sample each branch at
    the default resolution of :func:`dist_to_hr_many`.
    """
    if geom is None:
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    xt, gap_a, gap_b = centered_model(realization)
    w = xt @ xt
    rho = _eigvals(w, "centered square")
    re_dev = float(np.max(np.abs(rho.real - 0.25 * (gap_a**2 - gap_b**2))))
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


def min_singular_value(realization: ModelRealization, z: complex) -> float:
    """sigma_min(z - X_n) by singular value decomposition."""
    shifted = z * np.eye(realization.n) - realization.x_matrix
    try:
        return float(np.linalg.svd(shifted, compute_uv=False)[-1])
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"SVD failed at z={z!r} ({exc})") from exc


def verify_sv_bound(realization: ModelRealization, geom: HyperbolaRectangle, z) -> np.ndarray | float:
    """Signed margin of sigma_min(z - X_n) >= dist(z, H n R)^2 / ||z - X_n||.

    Nonnegative in exact arithmetic for every z and every realization; when
    z is an eigenvalue both sides vanish.  Returns
    sigma_min - dist^2 / opnorm, which tests compare against a small
    negative floating-point allowance, elementwise for an array ``z`` (one
    distance call for all points, at its default branch resolution) and as
    a float for a scalar ``z``.
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


@dataclass(frozen=True)
class ClusterPairing:
    """Pairing data for one eigenvalue cluster rho of X~^2.

    The X_n eigenvalues attached to the cluster all equal
    center + sqrt(rho) or center - sqrt(rho); n_plus and n_minus count the
    two signs.  ``at_im_bound`` marks clusters with |Im rho| at the extreme
    |A*B|/2 (corner clusters), where the two signs are the two opposite
    rectangle corners and need not balance.  Interior clusters come in
    reflected pairs, so there n_plus == n_minus.
    """

    rho: complex
    dim: int
    n_plus: int
    n_minus: int
    at_im_bound: bool
    residual: float


@dataclass(frozen=True)
class PairingReport:
    clusters: tuple[ClusterPairing, ...]
    conclusive: bool
    pairing_ok: bool
    interior_symmetric: bool
    max_residual: float


_CLUSTER_TOL = 1e-8  # clustering radius of rho, relative to scale^2
_PAIR_TOL = 1e-6  # allowed |lambda - (center +- sqrt(rho))|, relative to scale


def _cluster_means(values: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clustering of complex values at the given radius."""
    order = np.argsort(values.real, kind="stable")
    labels = np.full(values.size, -1, dtype=np.int64)
    means: list[complex] = []
    counts: list[int] = []
    for idx in order:
        v = values[idx]
        assigned = -1
        for ci, mu in enumerate(means):
            if abs(v - mu) <= radius:
                assigned = ci
                break
        if assigned < 0:
            means.append(v)
            counts.append(1)
            assigned = len(means) - 1
        else:
            counts[assigned] += 1
            means[assigned] += (v - means[assigned]) / counts[assigned]
        labels[idx] = assigned
    return np.asarray(means, dtype=np.complex128), labels


def eigenspace_pairing_check(realization: ModelRealization) -> PairingReport:
    """Check the eigenspace pairing between X~^2 and X_n.

    Eigenvalues rho of X~^2 are clustered at radius 1e-8 * max(A^2, B^2, 1);
    each cluster must absorb exactly dim(cluster) eigenvalues of X_n, all of
    the form center +- sqrt(rho) within 1e-6 * scale.  When two cluster
    means sit closer than 10x the clustering radius the report is flagged
    inconclusive instead of failing.
    """
    xt, gap_a, gap_b = centered_model(realization)
    scale2 = max(gap_a**2, gap_b**2, 1.0)
    scale = math.sqrt(scale2)
    rho_vals = _eigvals(xt @ xt, "centered square")
    radius = _CLUSTER_TOL * scale2
    means, labels = _cluster_means(rho_vals, radius)
    conclusive = True
    for i in range(means.size):
        for j in range(i + 1, means.size):
            if abs(means[i] - means[j]) < 10.0 * radius:
                conclusive = False
    lam = _eigvals(xt, "centered model")
    # each X~ eigenvalue goes to the cluster its square is closest to
    assign = np.argmin(np.abs(lam[:, None] ** 2 - means[None, :]), axis=1)
    im_bound = 0.5 * abs(gap_a * gap_b)
    clusters = []
    pairing_ok = True
    interior_symmetric = True
    max_residual = 0.0
    for ci, mu in enumerate(means):
        dim = int(np.sum(labels == ci))
        mine = lam[assign == ci]
        root = np.sqrt(mu)
        if abs(root) <= _CLUSTER_TOL * scale:
            n_plus = n_minus = 0
            residual = float(np.max(np.abs(mine))) if mine.size else 0.0
        else:
            plus = np.abs(mine - root) <= np.abs(mine + root)
            n_plus = int(np.sum(plus))
            n_minus = int(mine.size - n_plus)
            residual = 0.0
            if mine.size:
                residual = float(np.max(np.minimum(np.abs(mine - root), np.abs(mine + root))))
        at_bound = abs(abs(mu.imag) - im_bound) <= 1e-6 * scale2
        if mine.size != dim or residual > _PAIR_TOL * scale:
            pairing_ok = False
        if not at_bound and abs(root) > _CLUSTER_TOL * scale and n_plus != n_minus:
            interior_symmetric = False
        max_residual = max(max_residual, residual)
        clusters.append(
            ClusterPairing(
                rho=complex(mu),
                dim=dim,
                n_plus=n_plus,
                n_minus=n_minus,
                at_im_bound=at_bound,
                residual=residual,
            )
        )
    return PairingReport(
        clusters=tuple(clusters),
        conclusive=conclusive,
        pairing_ok=pairing_ok,
        interior_symmetric=interior_symmetric,
        max_residual=max_residual,
    )


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
