"""Hermitization pipeline: log potentials, grid evaluation, measure recovery.

The logarithmic potential of an atomic measure mu is
L(z) = sum_i w_i log|z - p_i|.  For the ESD of X_n this equals
log|det(z - X_n)|^(1/n), which in turn is half the mean log of the squared
singular values of z - X_n; distributionally, mu = (1/2pi) Laplacian(L), and
the 5-point stencil on a square grid recovers the measure cell by cell.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .model import GRID, ModelSpec, pooled_eigenvalues
from .spectra import WeightedPointMeasure

__all__ = [
    "InvalidGridError",
    "PerturbedNode",
    "PotentialGrid",
    "LaplacianRecovery",
    "log_potential",
    "potential_grid",
    "sample_potential_grid",
    "laplacian_recover",
    "brown_pipeline",
    "worker_count",
]

# node x atom pairs per chunk: a function of the input alone, so results do not
# depend on the worker count, and chunk memory does not grow with the atom count
_PAIR_BUDGET = 2**16


class InvalidGridError(ValueError):
    """Raised for non-square cells or otherwise unusable grids."""


def worker_count() -> int:
    """Parallelism cap: PROJSUM_THREADS if set, else the CPU count."""
    env = os.environ.get("PROJSUM_THREADS")
    if env is not None:
        try:
            k = int(env)
        except ValueError as exc:
            raise ValueError(f"PROJSUM_THREADS must be an integer, got {env!r}") from exc
        if k < 1:
            raise ValueError(f"PROJSUM_THREADS must be >= 1, got {k}")
        return k
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PerturbedNode:
    """Record of one grid node nudged off an atom of the measure."""

    ix: int
    iy: int
    original: complex
    used: complex


@dataclass(frozen=True)
class PotentialGrid:
    """Rectangular grid of log-potential values, row index ix along x.

    ``values[ix, iy]`` is L at x0 + ix*hx + i*(y0 + iy*hy).  ``mass`` is
    absent until :func:`laplacian_recover` fills it with the stencil output
    times cell area for every interior node.
    """

    x0: float
    y0: float
    hx: float
    hy: float
    nx: int
    ny: int
    values: np.ndarray
    mass: np.ndarray | None = None
    perturbations: tuple[PerturbedNode, ...] = ()

    @property
    def x_nodes(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def y_nodes(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def nodes(self) -> np.ndarray:
        """All node positions as an (nx, ny) complex array."""
        return self.x_nodes[:, None] + 1j * self.y_nodes[None, :]

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[1:-1, 1:-1]


def log_potential(measure: WeightedPointMeasure, z: complex) -> float:
    """L(z) = sum_i w_i log|z - p_i|; -inf if z hits an atom exactly."""
    d = np.abs(z - measure.points)
    if np.any(d == 0.0):
        return -math.inf
    return float(np.log(d) @ measure.weights)


def _eval_chunks(
    zs: np.ndarray, points: np.ndarray, weights: np.ndarray, radius: float, shift: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Potential values on a flat node array, chunked and thread-mapped.

    A chunk holds ``_PAIR_BUDGET // len(points)`` nodes, at least one.  A
    node closer than ``radius`` to an atom is evaluated at node + ``shift``
    instead; collisions are rare, so a chunk is recomputed only when it has
    one.  Returns the values and the flat indices of the moved nodes.
    """
    chunk = max(1, _PAIR_BUDGET // points.size)

    def one(lo: int) -> tuple[np.ndarray, np.ndarray]:
        zc = zs[lo : lo + chunk]
        d = np.abs(zc[:, None] - points[None, :])
        hit = np.flatnonzero(np.min(d, axis=1) < radius)
        if hit.size:
            zc = zc.copy()
            zc[hit] += shift
            d = np.abs(zc[:, None] - points[None, :])
        return np.log(d) @ weights, lo + hit

    starts = range(0, zs.size, chunk)
    workers = worker_count()
    if workers == 1 or zs.size <= chunk:
        parts = [one(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, starts))
    return np.concatenate([v for v, _ in parts]), np.concatenate([h for _, h in parts])


def _grid_steps(window: tuple[float, float, float, float], nx: int, ny: int) -> tuple[float, float]:
    """Node spacings (hx, hy) of the grid; InvalidGridError for an unusable one."""
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) for v in window):
        raise InvalidGridError(f"window bounds must be finite numbers, got {window!r}")
    xmin, xmax, ymin, ymax = map(float, window)
    if not (xmax > xmin and ymax > ymin):
        raise InvalidGridError(f"window must be nondegenerate, got {window!r}")
    if nx < 3 or ny < 3:
        raise InvalidGridError(f"need at least 3 nodes per axis, got {nx}x{ny}")
    return (xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1)


def _require_square(hx: float, hy: float) -> None:
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise InvalidGridError(f"recovery stencil needs square cells, got hx={hx!r}, hy={hy!r}")


def potential_grid(
    measure: WeightedPointMeasure,
    window: tuple[float, float, float, float],
    nx: int,
    ny: int,
) -> PotentialGrid:
    """Evaluate the log potential of ``measure`` on a node grid over ``window``.

    ``window`` is (xmin, xmax, ymin, ymax); nodes are the nx * ny points of
    the inclusive linspace grid.  A node closer than 1e-13 * scale to an
    atom is moved half a cell diagonally before evaluation (the potential is
    defined almost everywhere; node collisions are a gridding artifact) and
    the move is recorded in ``perturbations``.  Exactly equal atoms are
    merged first, their weights summed, so each distinct atom costs one
    log per node: the two-projection kernel repeats its corner atoms
    hundreds of times, and a pooled ESD repeats them in every sample.  By
    linearity the potential is the same up to roundoff, and the nudged
    nodes depend only on the set of atoms; each is recorded once.
    """
    hx, hy = _grid_steps(window, nx, ny)
    xmin, ymin = float(window[0]), float(window[2])
    xs = xmin + hx * np.arange(nx)
    ys = ymin + hy * np.arange(ny)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()

    points, inverse = np.unique(measure.points, return_inverse=True)
    weights = np.bincount(inverse, weights=measure.weights)
    scale = max(1.0, float(np.max(np.abs(points))))
    shift = 0.5 * hx + 0.5j * hy
    values, hits = _eval_chunks(zs, points, weights, 1e-13 * scale, shift)
    perturbed = [
        PerturbedNode(*divmod(int(flat), ny), original=complex(zs[flat]), used=complex(zs[flat] + shift))
        for flat in hits
    ]
    return PotentialGrid(
        x0=xmin,
        y0=ymin,
        hx=hx,
        hy=hy,
        nx=nx,
        ny=ny,
        values=values.reshape(nx, ny),
        perturbations=tuple(perturbed),
    )


@dataclass(frozen=True)
class LaplacianRecovery:
    """Measure recovered from a potential grid by the 5-point stencil.

    ``grid`` carries the raw signed masses; ``measure`` holds the clamped,
    renormalized atomic measure on interior nodes (None when everything
    clamps to zero, e.g. a harmonic window).  ``raw_total`` is the signed
    mass sum before clamping and ``negative_mass`` the amount clamped away.
    """

    grid: PotentialGrid
    measure: WeightedPointMeasure | None
    raw_total: float
    negative_mass: float


def laplacian_recover(grid: PotentialGrid) -> LaplacianRecovery:
    """Recover the measure as (1/2pi) times the discrete Laplacian of L.

    Per interior node the stencil mass is
    (L_east + L_west + L_north + L_south - 4 L_center) / (2 pi); the h^2 of
    the Laplacian cancels against the cell area.  Square cells are required.
    Negative entries are clamped to zero in the returned measure but kept in
    the raw grid and totals, since they diagnose under-resolution.
    """
    _require_square(grid.hx, grid.hy)
    v = grid.values
    raw = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2] - 4.0 * v[1:-1, 1:-1]) / (2.0 * math.pi)
    clamped = np.maximum(raw, 0.0)
    total = float(clamped.sum())
    measure = None
    if total > 1e-15:
        measure = WeightedPointMeasure(
            points=grid.interior_nodes().ravel(),
            weights=(clamped / total).ravel(),
        )
    return LaplacianRecovery(
        grid=replace(grid, mass=raw),
        measure=measure,
        raw_total=float(raw.sum()),
        negative_mass=float(-raw[raw < 0.0].sum()),
    )


def sample_potential_grid(
    spec: ModelSpec,
    window: tuple[float, float, float, float],
    nx: int,
    ny: int,
    samples: int,
) -> PotentialGrid:
    """Log-potential grid of the ESD pooled over independent realizations.

    The pool is ``pooled_eigenvalues(spec, samples, GRID)``: sample i uses
    the child seed ``substream_seed(spec.seed, GRID, i)``, so the draws are
    independent of each other and of anything else derived from the seed.
    The log potential is linear in the measure, so the potential of the
    pooled ESD is the mean of the per-sample potentials; it is evaluated
    once, by one :func:`potential_grid` call on the uniform measure over
    the pooled points, and each nudged node is recorded once.  The window
    and node counts are checked before any draw.
    """
    _grid_steps(window, nx, ny)
    points = pooled_eigenvalues(spec, samples, GRID)
    return potential_grid(WeightedPointMeasure.uniform(points), window, nx, ny)


def brown_pipeline(
    spec: ModelSpec,
    window: tuple[float, float, float, float],
    nx: int,
    ny: int,
    samples: int,
) -> LaplacianRecovery:
    """Full measure-recovery pipeline on the potential of a pooled ESD.

    Evaluates the log potential of the ESD pooled over ``samples``
    independent realizations of ``spec`` on the grid
    (:func:`sample_potential_grid`) and applies the Laplacian stencil
    (:func:`laplacian_recover`).  The grid, square cells included, is
    checked before any draw.  Deterministic: identical arguments give
    identical results.
    """
    _require_square(*_grid_steps(window, nx, ny))
    return laplacian_recover(sample_potential_grid(spec, window, nx, ny, samples))
