"""BL distances, corner atom masses, convergence runs."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus, MatrixFormat

from projsum import (
    ComputationError,
    DegenerateGeometryError,
    InvalidDimensionError,
    ModelSpec,
    TwoAtomLaw,
    WeightedPointMeasure,
    assemble_model,
    bl_distance,
    convergence_run,
    corner_atom_masses,
    make_geometry,
    sample_potential_grid,
)
from projsum import convergence as convergence_module
from projsum import model
from projsum.model import CONVERGE
from tests.conftest import Q_LAW, commuting_model


def _delta(z: complex) -> WeightedPointMeasure:
    return WeightedPointMeasure(points=np.array([z]), weights=np.array([1.0]))


def _measure(points, weights) -> WeightedPointMeasure:
    return WeightedPointMeasure(
        points=np.asarray(points, dtype=np.complex128),
        weights=np.asarray(weights, dtype=np.float64),
    )


def _dense_bl(mu1: WeightedPointMeasure, mu2: WeightedPointMeasure, resolution: float) -> float:
    """Reference: the full m x k transport LP between both binned supports, each normalized to unit mass."""
    ij1, w1 = _bin_measure_reference(mu1, resolution)
    ij2, w2 = _bin_measure_reference(mu2, resolution)
    cost = np.minimum(1.0, np.abs(_bin_points(ij1, resolution)[:, None] - _bin_points(ij2, resolution)[None, :]))
    m, k = cost.shape
    a_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(m, format="csr"), np.ones((1, k)), format="csr"),
            sparse.kron(np.ones((1, m)), sparse.eye(k, format="csr"), format="csr"),
        ],
        format="csr",
    )
    b_eq = np.concatenate([w1 / w1.sum(), w2 / w2.sum()])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    return max(0.0, float(res.fun))


def _bin_measure_reference(measure: WeightedPointMeasure, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """One measure binned on its own: its int64 bin index pairs, merged by ``np.unique(axis=0)``, and their weights."""
    pts = np.asarray(measure.points, dtype=np.complex128)
    ij = np.stack([np.round(pts.real / resolution), np.round(pts.imag / resolution)], axis=1)
    uniq, inverse = np.unique(ij.astype(np.int64), axis=0, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inverse, measure.weights)
    return uniq, w


def _bin_points(ij: np.ndarray, resolution: float) -> np.ndarray:
    return (ij[:, 0] + 1j * ij[:, 1]) * resolution


@st.composite
def _binned_lattices(draw):
    """Two measures on points within 0.45 of a bin centre, drawn with repeats from one list, and the resolution.

    Bin indices take either sign, 0 with a negative offset rounds to -0.0,
    and at resolution 1e-17 the indices reach about 2**62.
    """
    resolution = draw(st.sampled_from([0.05, 1.0, 1e-17]) | st.floats(min_value=1e-3, max_value=10.0))
    bound = 2**62 if resolution == 1e-17 else 60
    index = st.just(0) | st.integers(min_value=-bound, max_value=bound)
    offset = st.floats(min_value=-0.45, max_value=0.45)
    size = draw(st.integers(min_value=1, max_value=12))
    atoms = [
        complex((draw(index) + draw(offset)) * resolution, (draw(index) + draw(offset)) * resolution)
        for _ in range(size)
    ]

    def measure():
        picks = draw(st.lists(st.integers(min_value=0, max_value=size - 1), min_size=1, max_size=40))
        weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=len(picks), max_size=len(picks)))
        return _measure([atoms[i] for i in picks], np.array(weights) / sum(weights))

    return measure(), measure(), resolution


def _lattice_measure(rng, size: int, offset: complex = 0j, side: int = 6) -> WeightedPointMeasure:
    # points on a 0.1-lattice, so two such measures share some bins at resolution 0.05
    pts = offset + 0.1 * (rng.integers(0, side, size) + 1j * rng.integers(0, side, size))
    w = rng.uniform(0.1, 1.0, size)
    return _measure(pts, w / w.sum())


def _reference_pairs():
    rng = np.random.default_rng(31)
    pairs = []
    for size1, size2 in ((5, 5), (12, 30), (40, 9)):
        # shared and partially shared bins
        pairs.append((_lattice_measure(rng, size1), _lattice_measure(rng, size2)))
        # disjoint supports, all pairs closer than 1
        pairs.append((_lattice_measure(rng, size1, side=3), _lattice_measure(rng, size2, 0.5 + 0.3j, side=3)))
        # half the mass of mu2 shifted far away: truncated cost-1 pairs next to shared bins
        near, far = _lattice_measure(rng, size2), _lattice_measure(rng, size2, 2.5 - 1j)
        mixed = _measure(np.concatenate([near.points, far.points]), 0.5 * np.concatenate([near.weights, far.weights]))
        pairs.append((_lattice_measure(rng, size1), mixed))
    # single atoms: against each other, near and far, and against spread measures
    pairs.append((_delta(0.1 + 0.2j), _delta(0.4 - 0.1j)))
    pairs.append((_delta(0j), _delta(3 + 0j)))
    pairs.append((_delta(0.2 + 0.2j), _lattice_measure(rng, 20)))
    pairs.append((_lattice_measure(rng, 7, 0.7 + 0.7j), _delta(0.3j)))
    return pairs


def _intersection_masses_reference(realization) -> tuple[float, float, float, float]:
    """The 0.10.0 subspace masses: eigenvectors of P_n and Q_n, one SVD per corner.

    Each atom's eigenspace is spanned by the ``eigh`` eigenvectors whose
    eigenvalues lie within half the atom gap of it; a corner's mass counts
    the principal-angle cosines above 1 - 1e-9 between its two eigenspaces.
    """
    p_law, q_law = realization.realized_p_law, realization.realized_q_law

    def eigenspaces(matrix, law):
        vals, vecs = np.linalg.eigh(matrix)
        half_gap = 0.5 * abs(law.gap)
        return {loc: vecs[:, np.abs(vals - loc) < half_gap] for loc in (law.loc, law.loc_alt)}

    bases_p = eigenspaces(realization.p_matrix, p_law)
    bases_q = eigenspaces(realization.q_matrix, q_law)
    masses = []
    for a in (p_law.loc, p_law.loc_alt):
        for b in (q_law.loc, q_law.loc_alt):
            ba, bb = bases_p[a], bases_q[b]
            if ba.size == 0 or bb.size == 0:
                masses.append(0.0)
                continue
            cosines = np.linalg.svd(ba.conj().T @ bb, compute_uv=False)
            masses.append(int(np.sum(cosines > 1.0 - 1e-9)) / realization.n)
    return tuple(masses)


_WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _law_pairs(draw):
    """Laws with atoms up to 5e3 and gaps 0.05..3 of either sign; b may equal a or 1 - a."""

    def law(weight):
        loc = draw(st.floats(min_value=-5e3, max_value=5e3))
        gap = draw(st.floats(min_value=0.05, max_value=3.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return TwoAtomLaw(weight, loc, loc + gap)

    a = draw(_WEIGHTS)
    b = draw(st.one_of(_WEIGHTS, st.just(a), st.just(1.0 - a)))
    return law(a), law(b)


@pytest.fixture
def lp_solves(monkeypatch):
    """Every HiGHS run of the transport LP, with the program HiGHS holds at that run.

    Each record keeps the model (``lp``), whether the run is ``warm`` (a
    re-solve of a model that ran before, after its pricing round added
    pairs), the program read back from HiGHS (``c``, ``a_eq`` in CSR form,
    ``b_eq``), and the status, objective, primal x and row duals.
    """
    solves = []
    real = convergence_module._TransportLP._run

    def recording(lp):
        status = real(lp)
        held = lp._highs.getLp()
        matrix = held.a_matrix_
        assert matrix.format_ == MatrixFormat.kColwise
        a_eq = sparse.csc_matrix(
            (np.array(matrix.value_), np.array(matrix.index_), np.array(matrix.start_)),
            shape=(held.num_row_, held.num_col_),
        ).tocsr()
        optimal = status == HighsModelStatus.kOptimal
        solution = lp._highs.getSolution()
        solves.append(SimpleNamespace(
            lp=lp, warm=any(solve.lp is lp for solve in solves), c=np.array(held.col_cost_), a_eq=a_eq,
            b_eq=np.array(held.row_lower_), status=status,
            fun=lp._highs.getInfo().objective_function_value if optimal else None,
            x=np.array(solution.col_value) if optimal else None,
            duals=np.array(solution.row_dual) if optimal else None,
        ))
        return status

    monkeypatch.setattr(convergence_module._TransportLP, "_run", recording)
    return solves


def _hub_flow(solve) -> float:
    # the hub row is the last one; its inflow legs carry +1
    hub_row = solve.a_eq[-1]
    return float(solve.x[hub_row.indices[hub_row.data > 0]].sum())


class TestBlDistance:
    @pytest.mark.parametrize("pair", _reference_pairs())
    def test_matches_dense_transport_lp(self, pair):
        mu1, mu2 = pair
        expected = _dense_bl(mu1, mu2, 0.05)
        assert abs(bl_distance(mu1, mu2, 0.05) - expected) <= 1e-12
        assert abs(bl_distance(mu2, mu1, 0.05) - expected) <= 1e-12

    def test_lp_moves_only_the_surplus(self, lp_solves):
        # the shared mass at 0 stays put: one supply bin and two demand bins
        # reach HiGHS, with at most two transport edges, not four
        m1 = _measure([0j, 0.5 + 0j], [0.75, 0.25])
        m2 = _measure([0j, 0.25 + 0j], [0.9, 0.1])
        assert bl_distance(m1, m2, 0.01) == pytest.approx(_dense_bl(m1, m2, 0.01), abs=1e-12)
        assert len(lp_solves) == 1
        rows, cols = lp_solves[0].a_eq.shape
        assert rows == 1 + 2 + 1  # supply, demand, hub
        assert cols - (1 + 2) <= 2  # one hub leg per bin; the rest are transport edges

    def test_roundoff_weights_on_one_support(self, lp_solves):
        # the same atoms, listed in another order and with a zero-weight extra
        # atom, bin to weights that differ only by roundoff, with one sign,
        # both or none; HiGHS must never see an empty side
        rng = np.random.default_rng(5)
        signs = set()
        for _ in range(60):
            pts = 0.1 * (rng.integers(0, 8, 9) + 1j * rng.integers(0, 8, 9))
            w = rng.uniform(0.1, 1.0, 9)
            order = rng.permutation(9)
            mu1 = _measure(pts, w / w.sum())
            mu2 = _measure(np.append(pts[order], 5 + 5j), np.append(3.0 * w[order] / (3.0 * w).sum(), 0.0))
            _, diff = convergence_module._binned_difference(mu1, mu2, 0.05)
            signs.add((bool(np.any(diff > 0)), bool(np.any(diff < 0))))
            got = bl_distance(mu1, mu2, 0.05)
            assert 0.0 <= got <= 1e-14
        assert {(True, False), (False, True), (False, False)} <= signs
        assert all(solve.c.size > 0 for solve in lp_solves)

    def test_identical_measures(self):
        m = _measure([0j, 1 + 1j], [0.3, 0.7])
        assert bl_distance(m, m, 0.01) == 0.0

    def test_weights_a_millionth_apart_are_not_identical(self):
        # 4e-6 of mass moves from 1 to 0, at cost min(1, 1) = 1
        m1 = _measure([0j, 1 + 0j], [0.5, 0.5])
        m2 = _measure([0j, 1 + 0j], [0.500004, 0.499996])
        assert abs(bl_distance(m1, m2, 0.01) - 4.0e-6) <= 1e-12
        assert abs(bl_distance(m2, m1, 0.01) - 4.0e-6) <= 1e-12

    @pytest.mark.parametrize("t", [1e-6, 1e-9])
    def test_homogeneous_in_a_small_surplus(self, t):
        # d(mu, (1 - t) mu + t nu) = t d(mu, nu); the per-bin surpluses, of
        # order t/40, lie below HiGHS's feasibility tolerance (1e-7), and an
        # LP on the unscaled surplus met them by moving nothing: 0.0
        rng = np.random.default_rng(8)
        k = np.arange(40)
        pts = 0.01 * (k % 8 + 1j * (k // 8))
        w1, w2 = (w / w.sum() for w in rng.uniform(0.1, 1.0, (2, 40)))
        mu, nu = _measure(pts, w1), _measure(pts, w2)
        mix = _measure(np.concatenate([pts, pts]), np.concatenate([(1 - t) * w1, t * w2]))
        expected = t * bl_distance(mu, nu, 0.01)
        assert type(expected) is float
        assert bl_distance(mu, mix, 0.01) == pytest.approx(expected, rel=1e-6)
        assert bl_distance(mix, mu, 0.01) == pytest.approx(expected, rel=1e-6)

    def test_lp_failure_is_a_computation_error(self, monkeypatch):
        monkeypatch.setattr(convergence_module._TransportLP, "_run", lambda lp: HighsModelStatus.kModelError)
        with pytest.raises(ComputationError, match=r"status 2\): HiGHS model status kModelError"):
            bl_distance(_delta(0j), _delta(0.5 + 0j), 0.01)

    def test_two_deltas_cost_is_truncated_distance(self):
        for d in (0.3, 0.7, 2.5):
            got = bl_distance(_delta(0j), _delta(complex(d)), 0.01)
            assert got == pytest.approx(min(d, 1.0), abs=0.02)

    def test_partial_overlap(self):
        # only the misplaced quarter of the mass has to move, by 0.5
        m1 = _measure([0j, 0.5 + 0j], [0.75, 0.25])
        m2 = _measure([0j], [1.0])
        assert bl_distance(m1, m2, 0.01) == pytest.approx(0.125, abs=0.02)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(23)
        ms = []
        for _ in range(3):
            pts = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
            w = rng.uniform(0.1, 1.0, 8)
            ms.append(_measure(pts, w / w.sum()))
        d01 = bl_distance(ms[0], ms[1], 0.02)
        d10 = bl_distance(ms[1], ms[0], 0.02)
        assert d01 == pytest.approx(d10, abs=1e-9)
        d02 = bl_distance(ms[0], ms[2], 0.02)
        d12 = bl_distance(ms[1], ms[2], 0.02)
        # binning adds at most resolution/sqrt(2) per measure to each term
        assert d02 <= d01 + d12 + 3 * 0.02
        for d in (d01, d02, d12):
            assert 0.0 <= d <= 1.0 + 1e-9

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            bl_distance(_delta(0j), _delta(1j), 0.0)

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf")])
    def test_rejects_non_finite_resolution(self, resolution):
        # these measures are far apart, yet a NaN or infinite binning read 0.0
        mu = _measure([0, 1], [0.5, 0.5])
        nu = _measure([0.5j, 3], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite and positive"):
            bl_distance(mu, nu, resolution)

    @pytest.mark.parametrize("resolution", [1e-19, 1e-300])
    def test_rejects_bin_indices_beyond_int64(self, resolution):
        # 0.93 / 1e-19 rounds above 2**63; the int64 cast used to wrap such
        # an index onto another bin and return a wrong distance silently
        mu = _measure([0.1, 0.93 + 0.2j], [0.5, 0.5])
        nu = _measure([0.1j, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="overflow int64"):
            bl_distance(mu, nu, resolution)
        with pytest.raises(ValueError, match="overflow int64"):
            bl_distance(nu, mu, resolution)

    @given(lattice=_binned_lattices())
    @example(lattice=(_measure([-0.3, -0.2j, -0.1 - 0.4j, 0.0, -0.3], [0.1, 0.2, 0.3, 0.2, 0.2]),
                      _measure([0.0, -0.3 - 0.0j, 0.4], [0.5, 0.25, 0.25]), 1.0))
    @example(lattice=(_measure([0.9 * 2**62 * 1e-17 * (1 - 1j), -0.93 + 0.2j], [0.5, 0.5]),
                      _measure([-0.93 + 0.2j], [1.0]), 1e-17))
    @settings(max_examples=200, deadline=None)
    def test_complex_key_bins_as_the_index_pairs(self, lattice):
        # the reference: int64 index pairs binned measure by measure, merged by np.unique(axis=0)
        mu1, mu2, resolution = lattice
        points, diff = convergence_module._binned_difference(mu1, mu2, resolution)
        (ij1, w1), (ij2, w2) = _bin_measure_reference(mu1, resolution), _bin_measure_reference(mu2, resolution)
        union, inverse = np.unique(np.concatenate([ij1, ij2]), axis=0, return_inverse=True)
        sums = np.zeros((2, len(union)))
        sums[0, inverse[: len(ij1)]] = w1
        sums[1, inverse[len(ij1) :]] = w2
        assert points.tobytes() == _bin_points(union, resolution).tobytes()
        assert diff.tobytes() == (sums[0] - sums[1]).tobytes()

    def test_fine_resolution_below_int64_limit_still_bins(self):
        # at 1e-17 every index of a point within the unit square fits
        mu = _measure([0.0, 0.93 + 0.2j], [0.5, 0.5])
        nu = _measure([0.25j, 0.93 + 0.2j], [0.5, 0.5])
        assert bl_distance(mu, nu, 1e-17) == pytest.approx(0.125, abs=1e-12)


@pytest.fixture(scope="module")
def criterion_08_pools(demo_laws):
    """Criterion 08's pooled ESDs by dimension, drawn as ``convergence_run`` draws them."""
    p, q = demo_laws
    return {
        n: WeightedPointMeasure.uniform(model.pooled_eigenvalues(ModelSpec(p, q, n, seed=4000), 10, CONVERGE, n))
        for n in (50, 100, 200, 400, 800)
    }


class TestBlPricing:
    """The restricted program with its hub and pricing loop reaches the full optimum."""

    def test_one_neighbour_forces_pricing_rounds(self, monkeypatch, lp_solves):
        # one starting edge per bin leaves most of the optimal plan out, so
        # the hub carries flow on a first solve and pricing adds the rest
        monkeypatch.setattr(convergence_module, "_NEIGHBOURS", 1)
        solves_per_call = []
        for mu1, mu2 in _reference_pairs():
            expected = _dense_bl(mu1, mu2, 0.05)
            for a, b in ((mu1, mu2), (mu2, mu1)):
                first = len(lp_solves)
                assert abs(bl_distance(a, b, 0.05) - expected) <= 1e-12
                solves_per_call.append(lp_solves[first:])
        assert max(len(solves) for solves in solves_per_call) >= 3
        assert any(_hub_flow(solves[0]) > 0.5 for solves in solves_per_call)

    def test_criterion_08_distances_match_dense(self, criterion_08_pools, demo_laws, lp_solves):
        reference = criterion_08_pools[800]
        resolution = make_geometry(*demo_laws).scale / 200.0
        for n in (50, 100, 200, 400):
            got = bl_distance(criterion_08_pools[n], reference, resolution)
            assert abs(got - _dense_bl(criterion_08_pools[n], reference, resolution)) <= 1e-12
        # the full programs have 21 600 to 25 725 pairs; no final model, with
        # every pair its pricing rounds added, comes close
        final = {id(solve.lp): solve for solve in lp_solves}.values()
        assert len(final) == 4
        assert max(solve.a_eq.shape[1] for solve in final) < 10_000

    def test_fine_resolution_matches_dense(self, criterion_08_pools, lp_solves):
        # about 9.8e4 surplus pairs: 298 supply by 330 demand bins
        got = bl_distance(criterion_08_pools[400], criterion_08_pools[800], 1 / 500)
        hub_legs = lp_solves[0].a_eq[-1].data
        assert np.sum(hub_legs > 0) * np.sum(hub_legs < 0) > 90_000
        assert abs(got - _dense_bl(criterion_08_pools[400], criterion_08_pools[800], 1 / 500)) <= 1e-12

    def test_every_solve_is_status_checked(self, monkeypatch):
        # the first run succeeds and leaves pairs to price in; the warm re-solve fails
        monkeypatch.setattr(convergence_module, "_NEIGHBOURS", 1)
        runs = []
        real = convergence_module._TransportLP._run

        def failing_second(lp):
            runs.append(lp)
            if len(runs) == 2:
                return HighsModelStatus.kSolveError
            return real(lp)

        monkeypatch.setattr(convergence_module._TransportLP, "_run", failing_second)
        mu1, mu2 = _reference_pairs()[0]
        with pytest.raises(ComputationError, match="status 4"):
            bl_distance(mu1, mu2, 0.05)
        assert len(runs) == 2 and runs[1] is runs[0]


def _assert_solves_check_out(solves) -> None:
    """Each recorded run against a reference: ``linprog`` for a cold one, LP duality for a warm one.

    The first run of each model is held to ``scipy.optimize.linprog`` on the
    same program with the same options, bit for bit in objective, primal and
    duals; a SciPy whose binding or options differ fails here.  A warm
    re-solve starts from the last basis and has no ``linprog`` counterpart:
    its primal must be feasible within 1e-12 and its objective must equal
    the dual objective within 1e-12.  The duals of each model's last run
    must price every one of the m x k pairs, and every hub leg, at or above
    ``-_PRICING_TOL``.
    """
    assert solves
    for solve in solves:
        assert solve.status == HighsModelStatus.kOptimal
        if not solve.warm:
            res = linprog(
                solve.c, A_eq=solve.a_eq, b_eq=solve.b_eq, bounds=(0.0, None), method="highs",
                options={"presolve": False, "simplex_dual_edge_weight_strategy": "devex"},
            )
            assert res.status == 0, res.message
            assert float(solve.fun).hex() == float(res.fun).hex()
            assert solve.x.dtype == res.x.dtype and solve.x.tobytes() == res.x.tobytes()
            assert solve.duals.dtype == res.eqlin.marginals.dtype
            assert solve.duals.tobytes() == res.eqlin.marginals.tobytes()
            continue
        # a basic variable may sit a roundoff below its bound, as in a cold solve
        assert np.min(solve.x) >= -1e-12
        assert np.max(np.abs(solve.a_eq @ solve.x - solve.b_eq)) <= 1e-12
        assert abs(solve.fun - solve.c @ solve.x) <= 1e-12
        assert abs(solve.c @ solve.x - solve.b_eq @ solve.duals) <= 1e-12
    for solve in {id(solve.lp): solve for solve in solves}.values():
        m, k = solve.lp._cost.shape
        u, v, hub = solve.duals[:m], solve.duals[m : m + k], solve.duals[m + k]
        assert np.all(solve.lp._cost - u[:, None] - v[None, :] >= -convergence_module._PRICING_TOL)
        # a leg into the hub has +1 in the hub row, a leg out of it -1
        assert np.all(np.concatenate([0.5 - u - hub, 0.5 - v + hub]) >= -convergence_module._PRICING_TOL)


class TestHighsBinding:
    """The direct HiGHS call solves each restricted program as ``linprog`` does."""

    @pytest.mark.parametrize("neighbours", [24, 1])
    def test_reference_pairs(self, monkeypatch, lp_solves, neighbours):
        monkeypatch.setattr(convergence_module, "_NEIGHBOURS", neighbours)
        calls = 0
        for mu1, mu2 in _reference_pairs():
            for a, b in ((mu1, mu2), (mu2, mu1)):
                bl_distance(a, b, 0.05)
                calls += 1
        if neighbours == 1:
            assert len(lp_solves) > calls  # pricing rounds reach the binding too
        _assert_solves_check_out(lp_solves)

    def test_criterion_08_programs(self, criterion_08_pools, demo_laws, lp_solves):
        resolution = make_geometry(*demo_laws).scale / 200.0
        for n in (50, 100, 200, 400):
            bl_distance(criterion_08_pools[n], criterion_08_pools[800], resolution)
        assert any(solve.warm for solve in lp_solves)  # n = 50 and 100 take pricing rounds
        _assert_solves_check_out(lp_solves)

    def test_infeasible_program_returns_its_status_alone(self):
        # one supply bin of mass 1 cannot meet one demand bin of mass 0.5
        lp = convergence_module._TransportLP(np.array([[0.25]]), np.array([[True]]), np.array([1.0, 0.5, 0.0]))
        assert lp._run() == HighsModelStatus.kInfeasible
        with pytest.raises(ComputationError, match="HiGHS model status kInfeasible"):
            lp.solve()

    def test_fine_resolution_program(self, criterion_08_pools, lp_solves):
        bl_distance(criterion_08_pools[400], criterion_08_pools[800], 1 / 500)
        _assert_solves_check_out(lp_solves)


class TestCornerAtomMasses:
    def test_demo_masses_and_agreement(self, demo_laws):
        p, q = demo_laws
        for seed in (1, 2, 3):
            r = assemble_model(ModelSpec(p, q, n=80, seed=seed))
            cm = corner_atom_masses(r)
            assert cm.corners == (0j, 0.8j, 1 + 0j, 1 + 0.8j)
            # realized weights are exact here: a_n = 5/8, b_n = 7/8
            assert cm.esd_mass == pytest.approx((0.5, 0.0, 0.25, 0.0), abs=1e-12)
            assert cm.intersection_mass == pytest.approx((0.5, 0.0, 0.25, 0.0), abs=1e-12)

    def test_lower_bound_is_generically_attained(self, demo_laws):
        # dim(E_a int E_b) >= (a_n + b_n - 1) n always; Haar-generic draws
        # hit the bound exactly
        p, q = demo_laws
        r = assemble_model(ModelSpec(p, q, n=64, seed=9))
        cm = corner_atom_masses(r)
        a_n = r.realized_p_law.weight
        b_n = r.realized_q_law.weight
        assert cm.intersection_mass[0] == pytest.approx(max(0.0, a_n + b_n - 1), abs=1e-12)

    def test_balanced_weights_have_no_corner_mass(self):
        p = TwoAtomLaw(0.5, 0.0, 1.0)
        q = TwoAtomLaw(0.5, 0.0, 1.0)
        r = assemble_model(ModelSpec(p, q, n=40, seed=4))
        cm = corner_atom_masses(r)
        assert cm.esd_mass == (0.0, 0.0, 0.0, 0.0)
        assert cm.intersection_mass == (0.0, 0.0, 0.0, 0.0)

    def test_unbalanced_light_weights_fill_opposite_corners(self):
        # a = 1/4, b = 1/2: e10 = b - a and e11 = 1 - a - b are both 1/4
        p = TwoAtomLaw(0.25, 0.0, 1.0)
        q = TwoAtomLaw(0.5, 0.0, 1.0)
        r = assemble_model(ModelSpec(p, q, n=40, seed=4))
        cm = corner_atom_masses(r)
        assert cm.esd_mass == pytest.approx((0.0, 0.0, 0.25, 0.25), abs=1e-12)
        assert cm.intersection_mass == pytest.approx((0.0, 0.0, 0.25, 0.25), abs=1e-12)

    def test_one_atom_p_splits_by_q_weights(self):
        # weight-degenerate p: X = loc + i Q_n, so the ESD sits at
        # loc + i*(q atoms) with the q weights
        p = TwoAtomLaw(1.0, 0.0, 1.0)
        r = assemble_model(ModelSpec(p, Q_LAW, n=64, seed=11))
        cm = corner_atom_masses(r)
        b_n = r.realized_q_law.weight
        assert cm.esd_mass == pytest.approx((b_n, 1 - b_n, 0.0, 0.0), abs=1e-12)
        assert cm.intersection_mass == pytest.approx((b_n, 1 - b_n, 0.0, 0.0), abs=1e-12)

    def test_commuting_masses_in_closed_form(self, demo_laws):
        # P_n, Q_n diagonal: their leading k1 = 3 and k2 = 1 entries are the
        # alpha' and beta' atoms, so the corners hold n - 3, 0, 3 - 1 and 1 entries
        p, q = demo_laws
        r = commuting_model(ModelSpec(p, q, n=8, seed=0))
        cm = corner_atom_masses(r)
        assert cm.intersection_mass == (5 / 8, 0.0, 2 / 8, 1 / 8)
        assert cm.esd_mass == pytest.approx((5 / 8, 0.0, 2 / 8, 1 / 8), abs=1e-12)

    @given(
        laws=_law_pairs(),
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        commuting=st.booleans(),
    )
    @example(laws=(TwoAtomLaw(0.5, 0.0, 1.0), TwoAtomLaw(0.5, 0.0, 0.8)), n=40, seed=1, commuting=False)
    @example(laws=(TwoAtomLaw(0.3, 2.0, -1.0), TwoAtomLaw(0.7, 4e3, 4e3 + 0.05)), n=50, seed=2, commuting=False)
    @example(laws=(TwoAtomLaw(0.0, 0.0, 1.0), TwoAtomLaw(1.0, -3.0, 0.5)), n=7, seed=3, commuting=True)
    @settings(max_examples=200, deadline=None)
    def test_matches_eigenspace_reference(self, laws, n, seed, commuting):
        r = (commuting_model if commuting else assemble_model)(ModelSpec(*laws, n=n, seed=seed))
        # the ESD plays no part in the subspace masses; a stand-in skips its eigvals
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convergence_module, "esd", lambda realization: _delta(0j))
            got = corner_atom_masses(r).intersection_mass
        assert got == _intersection_masses_reference(r)

    def test_rejects_coincident_atoms(self):
        p = TwoAtomLaw(0.5, 0.3, 0.3)
        r = assemble_model(ModelSpec(p, Q_LAW, n=16, seed=1))
        with pytest.raises(DegenerateGeometryError):
            corner_atom_masses(r)


class TestConvergenceRun:
    def test_draws_disjoint_from_grid(self, demo_laws, monkeypatch):
        # with keys (seed, n, i), n=2 redrew the potential-grid realizations
        p, q = demo_laws
        drawn = []
        real = model.two_projection_eigenvalues

        def recording(spec):
            drawn.append((spec.n, spec.seed))
            return real(spec)

        # pooled_eigenvalues looks the kernel up in model
        monkeypatch.setattr(model, "two_projection_eigenvalues", recording)
        convergence_run(p, q, (2, 4), samples=3, seed=77)
        converge = {n: {s for m, s in drawn if m == n} for n in (2, 4)}
        drawn.clear()
        sample_potential_grid(ModelSpec(p, q, n=2, seed=77), (-0.5, 1.5, -0.5, 1.5), 3, 3, 3)
        grid = {s for _, s in drawn}
        assert len(converge[2]) == len(converge[4]) == len(grid) == 3
        assert converge[2].isdisjoint(grid)

    @pytest.mark.parametrize("resolution", [float("nan"), 0.0])
    def test_resolution_checked_before_any_draw(self, demo_laws, monkeypatch, resolution):
        p, q = demo_laws
        drawn = []
        real = model.two_projection_eigenvalues

        def recording(spec):
            drawn.append(spec.n)
            return real(spec)

        monkeypatch.setattr(model, "two_projection_eigenvalues", recording)
        with pytest.raises(ValueError, match="grid_resolution must be finite and positive"):
            convergence_run(p, q, (16, 32), samples=3, seed=5, grid_resolution=resolution)
        assert drawn == []

    @pytest.mark.parametrize(
        ("schedule", "reference_n", "shown"),
        [((16.9, 32), None, "16.9"), ((True, 8), None, "True"), ((16, 32), 64.0, "64.0")],
    )
    def test_refuses_dimensions_that_are_not_integers(self, demo_laws, monkeypatch, schedule, reference_n, shown):
        p, q = demo_laws
        drawn = []
        monkeypatch.setattr(model, "two_projection_eigenvalues", lambda spec: drawn.append(spec.n))
        with pytest.raises(InvalidDimensionError, match=f"got {shown}$"):
            convergence_run(p, q, schedule, samples=1, seed=0, reference_n=reference_n)
        assert drawn == []

    def test_small_schedule(self, demo_laws):
        p, q = demo_laws
        rep = convergence_run(p, q, (32, 64), samples=2, seed=123)
        assert rep.n_schedule == (32, 64)
        assert rep.reference_n == 64
        assert len(rep.distances) == len(rep.support_devs) == len(rep.corner_mass_errors) == 2
        assert rep.distances[1] == 0.0  # largest n is compared with itself
        assert rep.distances[0] > 0.0
        assert all(d <= 1e-8 for d in rep.support_devs)
        assert all(e <= 1e-12 for e in rep.corner_mass_errors)

    def test_corner_radius_shrinks_with_the_gaps(self):
        # at gaps 1e-8 a radius floored at 1e-9 counted continuous-part
        # eigenvalues as corner atoms: a corner error of 0.01 at n = 100
        p, q = TwoAtomLaw(0.625, 0.0, 1e-8), TwoAtomLaw(0.875, 0.0, 0.8e-8)
        rep = convergence_run(p, q, (50, 100), samples=2, seed=0)
        assert max(rep.corner_mass_errors) <= 1e-12

    def test_external_reference(self, demo_laws):
        p, q = demo_laws
        rep = convergence_run(p, q, (32,), samples=1, seed=5, reference_n=64)
        assert rep.reference_n == 64
        assert rep.distances[0] > 0.0

    def test_validates_schedule(self, demo_laws):
        p, q = demo_laws
        with pytest.raises(ValueError):
            convergence_run(p, q, (64, 32), samples=1, seed=1)
        with pytest.raises(ValueError):
            convergence_run(p, q, (), samples=1, seed=1)
        with pytest.raises(ValueError):
            convergence_run(p, q, (32, 64), samples=1, seed=1, reference_n=48)
