"""Convergence diagnostics: BL distances, corner atom masses, trend runs.

The empirical spectral distributions converge to the limit law supported on
H intersect R with corner atoms; at desk scale this module measures that
convergence with a bounded-Lipschitz distance between pooled ESDs and checks
the deterministic corner masses through an exact subspace-rank computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HyperbolaRectangle, atom_weights, dist_to_hr_many, make_geometry
from .model import (
    CONVERGE,
    InvalidDimensionError,
    ModelRealization,
    ModelSpec,
    TwoAtomLaw,
    UsageError,
    _realize,
    pooled_eigenvalues,
)
from .spectra import ComputationError, WeightedPointMeasure, esd

__all__ = [
    "CornerAtomMasses",
    "ConvergenceReport",
    "bl_distance",
    "corner_atom_masses",
    "convergence_run",
]


def _binned_difference(
    mu1: WeightedPointMeasure, mu2: WeightedPointMeasure, resolution: float
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted bins of both measures on the shared grid of spacing ``resolution``, and mu1 - mu2 on them.

    Bins are keyed by the complex index ``i + 1j*j``, whose sort order is the order of the pairs (i, j), and
    each measure is summed on its own, so identical measures differ by exactly 0.  Raises UsageError when a
    bin index does not fit in int64, i.e. when some coordinate over ``resolution`` rounds to a magnitude of
    2**63 or more (or is not finite): such a resolution is far finer than float64 resolves at those points.
    """
    pts = np.concatenate([mu1.points, mu2.points]).astype(np.complex128)
    ij = np.stack([np.round(pts.real / resolution), np.round(pts.imag / resolution)], axis=1)
    if not np.all(np.abs(ij) < 2.0**63):
        raise UsageError(
            f"grid_resolution {resolution!r} is too fine for points of magnitude up to "
            f"{np.max(np.abs(pts)):.3g}: bin indices overflow int64"
        )
    # + 0.0 turns a rounded -0.0 into 0.0, so a bin at index 0 is keyed and placed at +0.0
    keys, inverse = np.unique(ij[:, 0] + 1j * ij[:, 1] + 0.0, return_inverse=True)
    split = mu1.weights.size
    diff = np.bincount(inverse[:split], mu1.weights, keys.size) - np.bincount(inverse[split:], mu2.weights, keys.size)
    return keys * resolution, diff


def _check_resolution(grid_resolution: float) -> None:
    if not (math.isfinite(grid_resolution) and grid_resolution > 0):
        raise UsageError(f"grid_resolution must be finite and positive, got {grid_resolution!r}")


# transport edges each supply and each demand bin starts with, to its nearest bins on the other side
_NEIGHBOURS = 24
# a missing pair whose reduced cost lies below -_PRICING_TOL enters the next solve
_PRICING_TOL = 1e-12


def _two_entry_columns(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC arrays (indptr, indices, data) of columns with +1 in row ``first`` and +1 in row ``second``."""
    indices = np.stack([first, second], axis=1).astype(np.int32).ravel()
    return np.arange(0, indices.size + 1, 2, dtype=np.int32), indices, np.ones(indices.size)


class _TransportLP:
    """The restricted transport program on one HiGHS model, kept for a whole pricing loop.

    Variables: the active pairs (i, j) in row-major order at cost
    ``cost[i, j]``, then supply bin i -> hub and hub -> demand bin j at
    cost 1/2 each, then the pairs each :meth:`add` brings in.  Rows: the m
    supply bins, the k demand bins, and last the hub, whose inflow equals
    its outflow.  The program goes to HiGHS once, through SciPy's binding
    ``scipy.optimize._highspy._core``, with the options
    ``scipy.optimize.linprog(method="highs")`` sets for presolve off and
    Devex dual edge weights: dual simplex, no output, debug level none.  On
    that first program the tests hold HiGHS to ``linprog``'s objective,
    primal and duals bit for bit.  :meth:`add` appends columns and leaves
    the basis in place, so the next :meth:`solve` runs the primal simplex
    from the last optimal one.
    """

    def __init__(self, cost: np.ndarray, active: np.ndarray, b_eq: np.ndarray):
        from scipy.optimize._highspy import _core

        self._core, self._cost = _core, cost
        m, k = cost.shape
        options = _core.HighsOptions()
        # presolve costs more than it removes on these programs: about a quarter of each solve
        options.presolve = "off"
        options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        # Devex takes about a quarter fewer iterations than the default edge weights here
        options.simplex_dual_edge_weight_strategy = (
            _core.simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex
        )
        options.output_flag = options.log_to_console = False
        options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
        self._highs = _core._Highs()
        self._highs.passOptions(options)
        rows, cols = np.nonzero(active)
        e = rows.size
        c = np.concatenate([cost[rows, cols], np.full(m + k, 0.5)])
        indptr, indices, data = _two_entry_columns(
            np.concatenate([rows, np.arange(m), m + np.arange(k)]), np.concatenate([m + cols, np.full(m + k, m + k)])
        )
        # a leg out of the hub, (m + j, hub), carries +1, -1
        data[2 * (e + m) + 1 :: 2] = -1.0
        # the array form of passModel reads the buffers in place, where filling a
        # HighsLp converts them element by element; it refuses an empty
        # integrality, and an all-continuous one leaves the model an LP
        n = c.size
        self._highs.passModel(
            n, b_eq.size, data.size, _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize, 0.0,
            c, np.zeros(n), np.full(n, _core.kHighsInf), b_eq, b_eq, indptr, indices, data,
            np.zeros(n, dtype=np.int32),
        )

    def add(self, entering: np.ndarray) -> None:
        """Append the pairs marked in the m x k mask ``entering``, in row-major order."""
        rows, cols = np.nonzero(entering)
        indptr, indices, data = _two_entry_columns(rows, self._cost.shape[0] + cols)
        n = rows.size
        self._highs.addCols(
            n, self._cost[rows, cols], np.zeros(n), np.full(n, self._core.kHighsInf), data.size, indptr[:-1], indices, data
        )
        # new columns enter at 0, so the last optimal basis stays primal feasible and only its
        # reduced costs go wrong: the primal simplex re-solves from it in about half the time of
        # the dual, which would first have to repair those reduced costs
        self._highs.setOptionValue("simplex_strategy", self._core.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)

    def _run(self):
        """Run HiGHS from its current basis and return the model status."""
        self._highs.run()
        return self._highs.getModelStatus()

    def solve(self) -> tuple[float, np.ndarray]:
        """The optimum and the row duals of the program as it stands.

        Raises :class:`ComputationError` when the HiGHS model status is not optimal.
        """
        status = self._run()
        if status != self._core.HighsModelStatus.kOptimal:
            raise ComputationError(f"transport LP failed (status {int(status)}): HiGHS model status {status.name}")
        return self._highs.getInfo().objective_function_value, np.array(self._highs.getSolution().row_dual)


def bl_distance(
    mu1: WeightedPointMeasure,
    mu2: WeightedPointMeasure,
    grid_resolution: float,
) -> float:
    """Bounded-Lipschitz distance between two compactly supported measures.

    Normalization: sup of integral of f d(mu1 - mu2) over 1-Lipschitz test
    functions with values in [0, 1], so two unit atoms at distance d are
    min(d, 1) apart.  The distance of the two measures binned on a shared
    grid of the given resolution is computed exactly, as an
    optimal-transport problem with ground cost min(1, |x - y|).  That cost
    is a metric, so by Kantorovich-Rubinstein duality the optimum depends
    only on the signed difference mu1 - mu2, which is binned once
    (``_binned_difference``): mass both measures put in a bin never moves,
    and the program transports only the m bins where mu1 exceeds mu2 to the
    k bins where mu2 exceeds mu1.  The binning perturbs each measure by at
    most resolution/sqrt(2) in this metric.

    The program is solved on a restricted set of pairs, not on all m * k.
    It starts from each supply bin's 24 nearest demand bins and each demand
    bin's 24 nearest supply bins.  One hub node joins every supply bin to
    every demand bin, each leg at cost 1/2, so every restricted program is
    feasible; since every cost min(1, |x - y|) is at most 1, a route
    through the hub never beats the direct pair, and the hub cannot lower
    the optimum.  After each solve the HiGHS duals u, v of the supply and
    demand rows price all m * k pairs, and every pair with reduced cost
    c_ij - u_i - v_j below -1e-12 joins the next solve.  When no pair is
    left, u and v are feasible for the dual of the full program and their
    value equals the restricted optimum, so by LP duality that optimum is
    the full one.  The pair set grows strictly each round, so the loop
    ends; on criterion 08's ESDs it takes one to three solves.  All solves
    of one distance run on one HiGHS model (``_TransportLP``).  The first
    is a cold dual-simplex solve with Devex edge weights on the program
    ``scipy.optimize.linprog`` would hand HiGHS with those options, which
    the tests keep as the bit-for-bit reference.  Each pricing round adds
    only the entering pairs as columns and re-solves with the primal
    simplex from the last optimal basis, which stays primal feasible; the
    tests hold those re-solves to LP duality.

    The supply and demand sides are each scaled to unit mass before the
    solve and the optimum is multiplied back by the mean of the two
    surpluses, so the distance is homogeneous in the surplus however small
    it is, and neither measure is normalized on its own.  Identical binned
    measures leave no surplus and give 0.0 without a solve.  Raises
    UsageError for a resolution that is not finite and positive, and
    :class:`ComputationError` when HiGHS reports a model status other than
    optimal on any solve.
    """
    _check_resolution(grid_resolution)
    bins, diff = _binned_difference(mu1, mu2, grid_resolution)
    supply, demand = diff > 0, diff < 0
    if not supply.any() or not demand.any():
        return 0.0
    cost = np.minimum(1.0, np.abs(bins[supply][:, None] - bins[demand][None, :]))
    m, k = cost.shape
    # with at most _NEIGHBOURS bins on one side, every pair is among the nearest
    active = np.full((m, k), min(m, k) <= _NEIGHBOURS)
    if not active.all():
        for axis in (1, 0):
            near = np.argpartition(cost, _NEIGHBOURS - 1, axis=axis).take(np.arange(_NEIGHBOURS), axis=axis)
            np.put_along_axis(active, near, True, axis=axis)
    # each side scaled to unit mass: a surplus far below HiGHS's feasibility
    # tolerance would otherwise be taken as met by moving nothing (or, with
    # one common scale, the roundoff between the two sums reads as infeasible)
    surplus, deficit = diff[supply], -diff[demand]
    s, d = float(surplus.sum()), float(deficit.sum())
    b_eq = np.concatenate([surplus / s, deficit / d, [0.0]])
    lp = _TransportLP(cost, active, b_eq)
    while True:
        fun, duals = lp.solve()
        entering = (cost - duals[:m, None] - duals[None, m : m + k] < -_PRICING_TOL) & ~active
        if not entering.any():
            return max(0.0, float(fun) * 0.5 * (s + d))
        lp.add(entering)
        active |= entering


_CORNER_TOL = 1e-9


def _corner_masses(geom: HyperbolaRectangle, measure: WeightedPointMeasure) -> tuple[float, float, float, float]:
    """Mass of ``measure`` within _CORNER_TOL * max(|A|, |B|) of each corner, in corner order.  The radius is
    tiny on purpose (corner eigenvalues are exact joint eigenvalues), and has no floor: a floor of 1e-9 takes in
    the continuous part at gaps near 1e-8."""
    radius = _CORNER_TOL * max(abs(geom.gap_a), abs(geom.gap_b))
    return tuple(measure.mass_within(c, radius) for c in geom.corners)


@dataclass(frozen=True)
class CornerAtomMasses:
    """Per-corner masses, in the fixed corner order of the geometry.

    ``esd_mass`` counts ESD points near each corner (``_corner_masses``), ``intersection_mass``
    is dim(E_a(P) int E_b(Q)) / n.  They agree unless a small gap puts a block's
    roots near a corner, and both are at least max(0, a_n + b_n - 1) with the
    realized weights of the matching atoms.
    """

    corners: tuple[complex, complex, complex, complex]
    esd_mass: tuple[float, float, float, float]
    intersection_mass: tuple[float, float, float, float]


def corner_atom_masses(realization: ModelRealization) -> CornerAtomMasses:
    """Empirical and subspace corner masses of one realization: ``_corner_masses`` of ``esd(realization)``,
    and ``intersection_dims`` of its cached angle spectrum of Pi_p and Pi_q, which no gap enters."""
    geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
    return CornerAtomMasses(
        corners=geom.corners,
        esd_mass=_corner_masses(geom, esd(realization)),
        intersection_mass=tuple(k / realization.n for k in realization._dense_spectra.angles.intersection_dims()),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Distances to the reference ESD and per-n structural deviations."""

    n_schedule: tuple[int, ...]
    reference_n: int
    distances: tuple[float, ...]
    support_devs: tuple[float, ...]
    corner_mass_errors: tuple[float, ...]


def convergence_run(
    p_law: TwoAtomLaw,
    q_law: TwoAtomLaw,
    n_schedule: list[int] | tuple[int, ...],
    samples: int,
    seed: int,
    reference_n: int | None = None,
    grid_resolution: float | None = None,
) -> ConvergenceReport:
    """Pooled-ESD convergence study across a schedule of dimensions.

    For each n in the strictly increasing schedule, pools the ESD over
    ``samples`` realizations (``pooled_eigenvalues`` with key (CONVERGE, n),
    so sample i has the child seed of (seed, CONVERGE, n, i)) and reports
    the BL distance to the reference pooled ESD at ``reference_n`` (default:
    the largest schedule entry), the support deviation, and the worst
    corner-mass error against the realized atom-weight predictions.  The
    schedule, the reference dimension and ``grid_resolution`` are checked
    before any draw, each dimension by ``ModelSpec``'s rule: a positive
    Python ``int``.  Deterministic given its arguments.
    """
    schedule = tuple(n_schedule)
    for n in schedule if reference_n is None else (*schedule, reference_n):
        if type(n) is not int or n < 1:  # int() would take 16.9 as 16 and True as 1
            raise InvalidDimensionError(f"dimension must be a positive integer, got {n!r}")
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise UsageError(f"schedule must be strictly increasing, got {n_schedule!r}")
    if reference_n is None:
        reference_n = schedule[-1]
    if reference_n < schedule[-1]:
        raise UsageError("reference_n must be at least the largest schedule entry")
    geom = make_geometry(p_law, q_law)
    if grid_resolution is None:
        grid_resolution = geom.scale / 200.0
    _check_resolution(grid_resolution)

    def pool(n: int) -> WeightedPointMeasure:
        spec = ModelSpec(p_law=p_law, q_law=q_law, n=n, seed=seed)
        return WeightedPointMeasure.uniform(pooled_eigenvalues(spec, samples, CONVERGE, n))

    reference = pool(reference_n)
    distances = []
    support_devs = []
    corner_errors = []
    for n in schedule:
        pooled = reference if n == reference_n else pool(n)
        distances.append(bl_distance(pooled, reference, grid_resolution))
        support_devs.append(float(np.max(dist_to_hr_many(geom, pooled.points))))
        predicted = atom_weights(_realize(p_law, n)[1].weight, _realize(q_law, n)[1].weight)
        corner_errors.append(max(abs(e - p) for e, p in zip(_corner_masses(geom, pooled), predicted)))
    return ConvergenceReport(
        n_schedule=schedule,
        reference_n=reference_n,
        distances=tuple(distances),
        support_devs=tuple(support_devs),
        corner_mass_errors=tuple(corner_errors),
    )
