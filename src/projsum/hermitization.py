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
from dataclasses import dataclass

import numpy as np

from .model import GRID, ModelSpec, UsageError, pooled_eigenvalues
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
]

# node x atom pairs per buffer (an atom tile, a chunk of directly evaluated
# nodes), so buffer memory does not grow with the atom count
_PAIR_BUDGET = 2**16
# equal-weight atoms whose squared gaps share one log (see _tile_sums)
_GROUP = 8


class InvalidGridError(UsageError):
    """Raised for non-square cells or otherwise unusable grids."""


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

    ``values[ix, iy]`` is L at x0 + ix*hx + i*(y0 + iy*hy).  The node counts
    ``nx`` and ``ny`` are integers read off ``values.shape``.
    """

    x0: float
    y0: float
    hx: float
    hy: float
    values: np.ndarray
    perturbations: tuple[PerturbedNode, ...] = ()

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    def nodes(self) -> np.ndarray:
        """All node positions as an (nx, ny) complex array."""
        xs, ys = _node_axes(self.x0, self.y0, self.hx, self.hy, self.nx, self.ny)
        return xs[:, None] + 1j * ys[None, :]

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[1:-1, 1:-1]


def log_potential(measure: WeightedPointMeasure, z: complex) -> float:
    """L(z) = sum_i w_i log|z - p_i|; -inf if z hits an atom exactly."""
    d = np.abs(z - measure.points)
    if np.any(d == 0.0):
        return -math.inf
    return float(np.log(d) @ measure.weights)


def _tile_sums(
    xs: np.ndarray, ys: np.ndarray, px: np.ndarray, py: np.ndarray, w: np.ndarray, limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of w_j log((x - px_j)^2 + (y - py_j)^2) over the atoms, per node of xs x ys, and the near nodes.

    The coordinates must lie below 1 in magnitude (the frame of
    :func:`potential_grid`).  The nodes form a product grid, so a squared
    gap along x depends only on (ix, atom) and one along y only on (iy,
    atom).  The loop runs over the lines of nodes, one per node of xs, each
    holding the ys nodes of that x, and over tiles of atoms; per tile each
    axis gets one table of squared gaps, and each line adds the two into one
    reused tile x len(ys) buffer.

    Atoms of equal weight share their logs.  In each run of equal weights
    (a stable sort by weight) every full group of ``_GROUP`` = 8 consecutive
    atoms goes to the grouped pass, which multiplies the group's eight
    squared gaps and takes one log of the product, so a node-atom pair costs
    one add and one eighth of a log.  A squared gap is below 8, so a product
    is below 2^24.  At every node the caller keeps, each squared gap is at
    least ``limit``, four times the squared scaled collision radius (a
    radius of at least 5e-14), 1e-26, so a product is at least 1e-208: it
    neither overflows nor underflows, and loses no bits to a subnormal.  A
    group of 16 could reach 1e-416.  The other atoms, fewer than 8 per run,
    go through the per-atom pass in their input order, one log per pair, so
    a measure with all-distinct weights gets the bits of a per-atom sum.
    Tiles hold ``_PAIR_BUDGET // len(ys)`` atoms, at least one, in the
    per-atom pass and a multiple of 8 within that budget, at least 8, in the
    grouped pass.

    The mask marks each node with dy2 + dx2 < ``limit`` for some atom, where
    a log may be -inf or a product may have lost bits: the caller recomputes
    those nodes.  A computed sum of two squares is at least each of them, so
    per atom only the box of nodes with dx2 and dy2 below ``limit`` is tested.
    """
    order = np.argsort(w, kind="stable")
    start = np.flatnonzero(np.r_[True, w[order[1:]] != w[order[:-1]]])
    run = np.diff(np.r_[start, w.size])
    full = np.arange(w.size) - np.repeat(start, run) < np.repeat(run - run % _GROUP, run)
    grouped, single = order[full], np.sort(order[~full])
    tile = max(1, _PAIR_BUDGET // ys.size)
    passes = (
        (px[single], py[single], w[single], 1, tile),
        (px[grouped], py[grouped], w[grouped[::_GROUP]], _GROUP, max(1, tile // _GROUP) * _GROUP),
    )

    sums = np.zeros((xs.size, ys.size))
    near = np.zeros((xs.size, ys.size), dtype=bool)
    # the logs of an atom on a node divide by zero, and the products at nodes
    # near an atom may underflow: the caller recomputes those nodes
    with np.errstate(divide="ignore", under="ignore"):
        for ax, ay, aw, group, size in passes:
            for lo in range(0, ax.size, size):
                dx2 = np.square(ax[lo : lo + size, None] - xs[None, :])
                dy2 = np.square(ay[lo : lo + size, None] - ys[None, :])
                for a in np.flatnonzero((dx2 < limit).any(axis=1) & (dy2 < limit).any(axis=1)):
                    ix, iy = np.flatnonzero(dx2[a] < limit), np.flatnonzero(dy2[a] < limit)
                    near[np.ix_(ix, iy)] |= np.add.outer(dx2[a, ix], dy2[a, iy]) < limit
                wt = aw[lo // group : (lo + size) // group]
                buf = np.empty_like(dy2)
                terms = buf if group == 1 else np.empty((wt.size, ys.size))
                for i in range(xs.size):
                    np.add(dy2, dx2[:, i, None], out=buf)
                    if group > 1:
                        np.multiply.reduce(buf.reshape(wt.size, group, ys.size), axis=1, out=terms)
                    np.log(terms, out=terms)
                    sums[i] += wt @ terms
    return sums, near


def _direct_values(
    zs: np.ndarray, points: np.ndarray, weights: np.ndarray, radius: float, shift: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Potential at the nodes ``zs`` from complex distances, in chunks of ``_PAIR_BUDGET // len(points)``.

    A node closer than ``radius`` to an atom is evaluated instead at one of
    its four half-cell diagonals, node + ``shift`` with the signs of its
    parts in the order (+, +), (-, +), (+, -), (-, -): the first that lies
    at least ``radius`` from every atom, or, if none does, the one farthest
    from its nearest atom.  Returns the values and the points used.
    """
    chunk = max(1, _PAIR_BUDGET // points.size)
    diagonals = np.array([shift, -shift.conjugate(), shift.conjugate(), -shift])
    values = np.empty(zs.size)
    used = zs.copy()
    for lo in range(0, zs.size, chunk):
        zc = used[lo : lo + chunk]
        d = np.abs(zc[:, None] - points[None, :])
        hit = np.flatnonzero(np.min(d, axis=1) < radius)
        if hit.size:
            moves = zc[hit, None] + diagonals
            dm = np.abs(moves[:, :, None] - points)
            gap = np.min(dm, axis=2)
            # argmax takes the first maximum: the first clear diagonal, else the farthest
            pick = np.arange(hit.size), np.argmax(np.where(gap >= radius, np.inf, gap), axis=1)
            zc[hit], d[hit] = moves[pick], dm[pick]
        values[lo : lo + chunk] = np.log(d) @ weights
    return values, used


def _grid_steps(window: tuple[float, float, float, float], nx: int, ny: int) -> tuple[float, float, float, float]:
    """First node and node spacings (x0, y0, hx, hy) of the grid; InvalidGridError for an unusable one."""
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) for v in window):
        raise InvalidGridError(f"window bounds must be finite numbers, got {window!r}")
    xmin, xmax, ymin, ymax = map(float, window)
    if not (xmax > xmin and ymax > ymin):
        raise InvalidGridError(f"window must be nondegenerate, got {window!r}")
    if type(nx) is not int or type(ny) is not int or nx < 3 or ny < 3:
        raise InvalidGridError(f"need integer node counts, at least 3 nodes per axis, got {nx!r}x{ny!r}")
    hx, hy = (xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1)
    last = (xmin + hx * (nx - 1), ymin + hy * (ny - 1))
    # a width past the float range makes a step or a last node infinite; a subnormal step has lost bits
    if min(hx, hy) < np.finfo(np.float64).tiny or not all(map(math.isfinite, last)):
        raise InvalidGridError(f"window {window!r} gives steps ({hx!r}, {hy!r}) or nodes outside the float range")
    return xmin, ymin, hx, hy


def _node_axes(x0: float, y0: float, hx: float, hy: float, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates x0 + ix*hx along x and y0 + iy*hy along y."""
    return x0 + hx * np.arange(nx), y0 + hy * np.arange(ny)


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
    atom, where scale is the largest coordinate magnitude of a node or an
    atom, is moved half a cell diagonally, clear of every atom where one of
    its four diagonals is (see ``_direct_values``), before evaluation (the
    potential is defined almost everywhere; node collisions are a gridding
    artifact) and the move is recorded in ``perturbations``.  Exactly equal
    atoms are merged first, their weights summed: the two-projection kernel
    repeats its corner atoms hundreds of times, and a pooled ESD repeats
    them in every sample.  By linearity the potential is the same up to
    roundoff, and the nudged nodes depend only on the set of atoms; each is
    recorded once.

    Each term is log|z - p| = (1/2) log((x - px)^2 + (y - py)^2), taken in
    the frame 2^-e that brings the largest coordinate of a node or an atom
    below 1: scaling by a power of two is exact, no square overflows, and
    e log 2 per unit weight is added back.  The squared gaps come from one
    table per axis and atom tile, and atoms of equal weight (those of a
    pooled ESD all weigh 1/N, but for the merged ones) share one log per
    group of eight: in this frame a squared gap is below 8, so a product of
    eight is below 2^24, and at a node that is not evaluated again it is at
    least (1e-26)^8 = 1e-208 (see ``_tile_sums``).  The same tables mark
    each node whose squared gap to some atom falls below four times the
    squared radius; such a node is evaluated again from complex distances,
    in the same frame, and that pass decides the collisions, by the rule
    above.
    """
    x0, y0, hx, hy = _grid_steps(window, nx, ny)
    xs, ys = _node_axes(x0, y0, hx, hy, nx, ny)

    points, inverse = np.unique(measure.points, return_inverse=True)
    weights = np.bincount(inverse, weights=measure.weights)
    total = float(weights.sum())
    scale = max(float(np.max(np.abs(v))) for v in (xs, ys, points.real, points.imag))
    # the frame 2^-e takes every coordinate below 1 in magnitude, exactly, so
    # no squared gap overflows; log 2^e per unit weight is added back
    e = math.frexp(scale)[1]
    sx, sy, px, py = (np.ldexp(v, -e) for v in (xs, ys, points.real, points.imag))
    # the margin of twice the radius keeps a rounded square from hiding a
    # collision; the scaled radius lies in [5e-14, 1e-13)
    reach = 1e-13 * math.ldexp(scale, -e)
    sums, near = _tile_sums(sx, sy, px, py, 0.5 * weights, 4.0 * reach * reach)
    ix, iy = np.nonzero(near)
    shift = math.ldexp(0.5 * hx, -e) + 1j * math.ldexp(0.5 * hy, -e)
    zs = sx[ix] + 1j * sy[iy]
    sums[ix, iy], used = _direct_values(zs, px + 1j * py, weights, reach, shift)
    values = sums + e * math.log(2.0) * total
    moved = used != zs
    # the nudged nodes back in the window's frame, exactly
    zs, used = (np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e) for v in (zs[moved], used[moved]))
    perturbed = [
        PerturbedNode(int(i), int(j), original=complex(z), used=complex(u))
        for i, j, z, u in zip(ix[moved], iy[moved], zs, used)
    ]
    return PotentialGrid(x0, y0, hx, hy, values=values, perturbations=tuple(perturbed))


@dataclass(frozen=True)
class LaplacianRecovery:
    """Measure recovered from a potential grid by the 5-point stencil.

    ``grid`` is the grid recovered from, whose node counts are read off its
    values; ``mass`` holds the raw signed stencil masses of its interior
    nodes, (nx - 2) x (ny - 2); ``measure`` holds the clamped,
    renormalized atomic measure on the interior nodes of positive mass
    (None when everything clamps to zero, e.g. a harmonic window).
    ``raw_total`` is the signed mass sum before clamping and
    ``negative_mass`` the amount clamped away.
    """

    grid: PotentialGrid
    mass: np.ndarray
    measure: WeightedPointMeasure | None
    raw_total: float
    negative_mass: float


def laplacian_recover(grid: PotentialGrid) -> LaplacianRecovery:
    """Recover the measure as (1/2pi) times the discrete Laplacian of L.

    Per interior node the stencil mass is
    (L_east + L_west + L_north + L_south - 4 L_center) / (2 pi); the h^2 of
    the Laplacian cancels against the cell area.  Square cells are required.
    Negative entries are clamped to zero, so the measure leaves them out;
    the raw masses and totals keep them, since they diagnose under-resolution.
    """
    _require_square(grid.hx, grid.hy)
    v = grid.values
    raw = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2] - 4.0 * v[1:-1, 1:-1]) / (2.0 * math.pi)
    clamped = np.maximum(raw, 0.0)
    total = float(clamped.sum())
    measure = None
    if total > 1e-15:
        atoms = clamped > 0.0
        measure = WeightedPointMeasure(points=grid.interior_nodes()[atoms], weights=clamped[atoms] / total)
    return LaplacianRecovery(
        grid=grid,
        mass=raw,
        measure=measure,
        raw_total=float(raw.sum()),
        # 0.0 - sum, not -sum: an empty sum gives +0.0, never -0.0
        negative_mass=0.0 - float(raw[raw < 0.0].sum()),
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
    _, _, hx, hy = _grid_steps(window, nx, ny)
    _require_square(hx, hy)
    return laplacian_recover(sample_potential_grid(spec, window, nx, ny, samples))
