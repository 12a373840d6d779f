"""Log potentials, the hermitization identity, Laplacian measure recovery."""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projsum import (
    InvalidGridError,
    LaplacianRecovery,
    ModelSpec,
    TwoAtomLaw,
    WeightedPointMeasure,
    assemble_model,
    brown_pipeline,
    esd,
    laplacian_recover,
    log_potential,
    nu_n_z,
    potential_grid,
    sample_potential_grid,
    substream_seed,
    two_projection_eigenvalues,
)
from projsum import hermitization, model
from projsum.model import GRID
from tests.conftest import P_LAW, Q_LAW, commuting_model


def _delta(z: complex) -> WeightedPointMeasure:
    return WeightedPointMeasure(points=np.array([z]), weights=np.array([1.0]))


def _ulps(v: float, k: int) -> float:
    for _ in range(abs(k)):
        v = float(np.nextafter(v, math.copysign(math.inf, k)))
    return v


@st.composite
def _grid_cases(draw):
    """A measure, window and node counts at one scale, with atoms on, next to and near nodes.

    The window spans ``scale`` times up to 1e6; an anchor atom at twice the
    window's half-width is the largest coordinate of an atom or a node, so the
    collision radius is known while the other atoms are placed: some a
    fraction of it or just inside or outside it from a node.  Atoms repeat
    up to three times.
    """
    scale = 10.0 ** draw(st.integers(-200, 300))
    width = scale * 10.0 ** draw(st.sampled_from([0, 3, 6]))
    stretch = st.floats(0.25, 1.0)
    window = (-width * draw(stretch), width, -width * draw(stretch), width)
    nx, ny = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    hx, hy = (window[1] - window[0]) / (nx - 1), (window[3] - window[2]) / (ny - 1)
    radius = 1e-13 * 2.0 * width
    atoms = [complex(2.0 * width, 0.0)]
    for kind in draw(st.lists(st.sampled_from(["inside", "on", "ulps", "radius"]), min_size=1, max_size=8)):
        ix, iy = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        x, y = window[0] + hx * ix, window[2] + hy * iy
        if kind == "inside":
            x, y = (scale * draw(st.floats(-1.0, 1.0)) for _ in range(2))
        elif kind == "ulps":
            x, y = (_ulps(v, draw(st.integers(-3, 3))) for v in (x, y))
        elif kind == "radius":
            r = radius * draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 3.0]))
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            x, y = x + r * math.cos(angle), y + r * math.sin(angle)
        atoms.append(complex(x, y))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(atoms), max_size=len(atoms)))
    points = np.repeat(atoms, repeats)
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=points.size, max_size=points.size)))
    return WeightedPointMeasure(points=points, weights=raw / raw.sum()), window, nx, ny


def _term_by_term(measure: WeightedPointMeasure, window, nx: int, ny: int):
    """Reference grid: one log|z - p| per point, repeats included, at the nodes the rule uses.

    Distances are taken at a quarter scale, which is exact here, so no
    difference of coordinates near the top of the range overflows.
    """
    hx, hy = (window[1] - window[0]) / (nx - 1), (window[3] - window[2]) / (ny - 1)
    nodes = (window[0] + hx * np.arange(nx))[:, None] + 1j * (window[2] + hy * np.arange(ny))[None, :]
    p = measure.points * 0.25
    radius = 1e-13 * max(float(np.max(np.abs(v))) for v in (nodes.real, nodes.imag, p.real * 4.0, p.imag * 4.0))
    hit = np.min(np.abs(nodes[:, :, None] * 0.25 - p), axis=2) < 0.25 * radius
    used = np.where(hit, nodes + (0.5 * hx + 0.5j * hy), nodes)
    values = np.log(np.abs(used[:, :, None] * 0.25 - p)) @ measure.weights + math.log(4.0)
    moved = [(int(ix), int(iy), complex(nodes[ix, iy]), complex(used[ix, iy])) for ix, iy in zip(*np.nonzero(hit))]
    return values, moved


def _min_tile_sums(xs, ys, px, py, w):
    """Reference: the 0.19.0 kernel, one add, min, log and gemv slot per node-atom pair.

    Returns the sums of w_j log((x - px_j)^2 + (y - py_j)^2) and, per node,
    the least computed squared gap to an atom, on one thread, in the kernel's
    layout: one line per node of xs.
    """
    tile = max(1, hermitization._PAIR_BUDGET // ys.size)
    sums = np.zeros((xs.size, ys.size))
    near = np.full((xs.size, ys.size), np.inf)
    with np.errstate(divide="ignore"):
        for lo in range(0, px.size, tile):
            dx2 = np.square(px[lo : lo + tile, None] - xs[None, :])
            dy2 = np.square(py[lo : lo + tile, None] - ys[None, :])
            wt = w[lo : lo + tile]
            buf = np.empty_like(dy2)
            for i in range(xs.size):
                np.add(dy2, dx2[:, i, None], out=buf)
                np.minimum(near[i], buf.min(axis=0), out=near[i])
                np.log(buf, out=buf)
                sums[i] += wt @ buf
    return sums, near


def _min_collisions(xs, ys, px, py, limit):
    """Reference collision set: the nodes whose least computed squared gap is below ``limit``."""
    return np.nonzero(_min_tile_sums(xs, ys, px, py, np.ones(px.size))[1] < limit)


def _min_kernel(xs, ys, px, py, w, limit):
    """Reference ``_tile_sums``: the running-min kernel's sums, and its nodes nearer than ``limit``."""
    sums, near = _min_tile_sums(xs, ys, px, py, w)
    return sums, near < limit


def _reference_grid(measure, window, nx, ny):
    """``potential_grid`` as 0.19.0 computed it: per-pair logs, and the collision set from the running min."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hermitization, "_tile_sums", _min_kernel)
        return potential_grid(measure, window, nx, ny)


def _collision_sets(measure, window, nx, ny):
    """The collision set ``potential_grid`` reads off the tile tables, and the reference's on the same scaled input."""
    calls = []
    real = hermitization._tile_sums

    def recording(xs, ys, px, py, w, limit):
        sums, near = real(xs, ys, px, py, w, limit)
        calls.append(((xs, ys, px, py, limit), near))
        return sums, near

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hermitization, "_tile_sums", recording)
        potential_grid(measure, window, nx, ny)
    ((args, near),) = calls
    return [tuple(map(list, pair)) for pair in (np.nonzero(near), _min_collisions(*args))]


@st.composite
def _weight_runs(draw):
    """A measure whose weights come in runs of equal values, with atoms on, near and off nodes.

    Runs have 1 to 20 atoms, with 7, 8, 9 and 16 drawn often; the atoms are
    shuffled, so a run's atoms are not adjacent.  Window and atoms are scaled
    together by a power of two; an anchor atom of its own weight at (2, 2)
    times that scale fixes the collision radius at 2e-13 times it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = draw(st.integers(3, 24)), draw(st.integers(3, 24))
    window = (-1.0, 1.0, -1.0, 0.75)
    hx, hy = 2.0 / (nx - 1), 1.75 / (ny - 1)
    sizes = draw(st.lists(st.one_of(st.sampled_from([7, 8, 9, 16]), st.integers(1, 20)), min_size=1, max_size=6))
    count = sum(sizes)
    ix, iy = rng.integers(0, nx, count), rng.integers(0, ny, count)
    nodes = (window[0] + hx * ix) + 1j * (window[2] + hy * iy)
    offset = 2e-13 * rng.choice([0.0, 0.5, 1.5, 2.5, 1e6], count) * np.exp(2j * np.pi * rng.uniform(size=count))
    off = rng.uniform(size=count) < 0.3
    atoms = np.where(off, rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 0.75, count), nodes + offset)
    raw = np.repeat([draw(st.floats(0.1, 1.0)) for _ in sizes], sizes)
    order = rng.permutation(count)
    points = np.concatenate([[2.0 + 2.0j], atoms[order]])
    weights = np.concatenate([[0.05], raw[order] / raw.sum() * 0.95])
    k = draw(st.integers(-800, 1000))
    measure = WeightedPointMeasure(points=points * 2.0**k, weights=weights / weights.sum())
    return measure, tuple(v * 2.0**k for v in window), nx, ny


class TestLogPotential:
    def test_single_atom(self):
        m = _delta(0.25 + 0.5j)
        for z in (2.0 + 0j, -1.0 + 1j, 0.25 + 0.75j):
            assert log_potential(m, z) == pytest.approx(
                math.log(abs(z - (0.25 + 0.5j))), rel=1e-14
            )

    def test_two_atoms(self):
        m = WeightedPointMeasure(points=np.array([0j, 1 + 0j]), weights=np.array([0.5, 0.5]))
        assert log_potential(m, 2.0) == pytest.approx(math.log(2.0) / 2, rel=1e-14)

    def test_atom_hit_is_minus_inf(self):
        assert log_potential(_delta(0.3 + 0.4j), 0.3 + 0.4j) == -math.inf

    def test_weightless_atoms_are_skipped(self):
        # L reads the support: an atom of weight 0 at z is no atom, and gives no -inf
        m = WeightedPointMeasure(np.array([0.5 + 0.5j, 0j, 1e300 + 0j]), np.array([1.0, 0.0, 0.0]))
        for z in (0j, 1e300 + 0j, 2.0 - 1.0j):
            assert log_potential(m, z) == log_potential(_delta(0.5 + 0.5j), z)
            assert math.isfinite(log_potential(m, z))


class TestHermitizationIdentity:
    def test_potential_equals_half_nu_log_moment(self, small_realization):
        # L(esd, z) = (1/2) * mean log nu points: both sides are
        # log|det(z - X)|^(1/n) computed through different factorizations
        measure = esd(small_realization)
        for z in (0.9 + 0.2j, -0.4 - 0.3j, 2.0 + 2.0j):
            nu = nu_n_z(small_realization, z)
            assert np.all(nu.points > 0)
            rhs = 0.5 * float(np.mean(np.log(nu.points)))
            lhs = log_potential(measure, z)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))

    def test_identity_matrix(self):
        # X = I: (z - X_n)^*(z - X_n) = 4 I at z = 3, and the ESD is delta_1
        realization = commuting_model(ModelSpec(TwoAtomLaw(1.0, 1.0, 0.0), TwoAtomLaw(1.0, 0.0, 1.0), n=2, seed=0))
        nu = nu_n_z(realization, 3.0)
        assert 0.5 * float(np.mean(np.log(nu.points))) == pytest.approx(math.log(2.0), abs=1e-12)
        assert log_potential(esd(realization), 3.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_exactly_singular_shift(self):
        # X = diag(1, 3): z = 3 is an eigenvalue, so nu has an atom at 0
        realization = commuting_model(ModelSpec(TwoAtomLaw(0.5, 1.0, 3.0), TwoAtomLaw(1.0, 0.0, 1.0), n=2, seed=0))
        assert nu_n_z(realization, 3.0).points[0] == 0.0
        assert log_potential(esd(realization), 3.0) == -math.inf


class TestPotentialGrid:
    def test_values_are_potentials_at_nodes(self):
        m = _delta(0.2 + 0.1j)
        grid = potential_grid(m, (-1.0, 1.0, -1.0, 1.0), 5, 7)
        assert grid.values.shape == (5, 7)
        assert grid.hx == 0.5
        assert grid.hy == pytest.approx(1 / 3)
        for ix in range(5):
            for iy in range(7):
                node = complex(grid.x0 + ix * grid.hx, grid.y0 + iy * grid.hy)
                assert grid.values[ix, iy] == pytest.approx(
                    log_potential(m, node), rel=1e-13, abs=1e-15
                )

    def test_refinement_shares_nodes_exactly(self):
        m = WeightedPointMeasure(
            points=np.array([0.17 + 0.09j, -0.4 - 0.22j]), weights=np.array([0.5, 0.5])
        )
        coarse = potential_grid(m, (-1.0, 1.0, -1.0, 1.0), 5, 5)
        fine = potential_grid(m, (-1.0, 1.0, -1.0, 1.0), 9, 9)
        assert np.array_equal(coarse.values, fine.values[::2, ::2])

    def test_atom_on_node_is_perturbed(self):
        grid = potential_grid(_delta(0j), (-1.0, 1.0, -1.0, 1.0), 5, 5)
        assert np.all(np.isfinite(grid.values))
        assert len(grid.perturbations) == 1
        pert = grid.perturbations[0]
        assert (pert.ix, pert.iy) == (2, 2)
        assert pert.original == 0j
        assert pert.used == 0.25 + 0.25j

    def test_weightless_atoms_are_dropped(self):
        # an atom of weight 0 on node (2, 2) nudges no node, and one at 1e300 sets no frame: the grid is
        # the grid of the measure without them, bit for bit, and 0 x log 0 raises no warning
        m = WeightedPointMeasure(np.array([0.5 + 0.5j, 0j, 1e300 + 0j]), np.array([1.0, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = potential_grid(m, (-1.0, 1.0, -1.0, 1.0), 5, 5)
        want = potential_grid(_delta(0.5 + 0.5j), (-1.0, 1.0, -1.0, 1.0), 5, 5)
        assert [(p.ix, p.iy) for p in got.perturbations] == [(3, 3)]
        assert got.perturbations == want.perturbations
        assert got.values.tobytes() == want.values.tobytes()

    def test_collisions_in_two_tiles(self):
        # 41 x 41 nodes take atom tiles of 2**16 // 41 = 1598: with 3196 atoms
        # the two colliding atoms (at x = -0.9 and x = 0.5 once sorted) fall in
        # different tiles of the sorted atoms; the filler's equal weights take
        # the grouped pass
        window = (-1.0, 1.0, -1.0, 1.0)
        nodes = potential_grid(_delta(5 + 5j), window, 41, 41).nodes()
        tile = hermitization._PAIR_BUDGET // 41
        rng = np.random.default_rng(41)
        filler = np.array([1.0, 1j]) @ rng.uniform(-1.0, 1.0, (2, 2 * tile - 2))
        colliding = np.array([nodes[2, 3], nodes[30, 10]])
        m = WeightedPointMeasure(
            points=np.concatenate([colliding, filler]),
            weights=np.concatenate([[0.25, 0.25], np.full(filler.size, 0.5 / filler.size)]),
        )
        assert list(np.searchsorted(np.unique(m.points), colliding) // tile) == [0, 1]
        grid = potential_grid(m, window, 41, 41)
        assert [(p.ix, p.iy) for p in grid.perturbations] == [(2, 3), (30, 10)]
        assert np.all(np.isfinite(grid.values))

    def test_kernel_sample_evaluates_distinct_atoms_once(self, demo_laws, monkeypatch):
        # n=400, k1=150, k2=50: 200 kernel zeros, 100 equal copies of one
        # corner atom and 100 block roots leave 102 distinct atoms
        sizes = []
        real = hermitization._tile_sums

        def recording(xs, ys, px, py, w, limit):
            sizes.append(px.size)
            return real(xs, ys, px, py, w, limit)

        monkeypatch.setattr(hermitization, "_tile_sums", recording)
        p, q = demo_laws
        for samples in (1, 2):
            sample_potential_grid(ModelSpec(p, q, n=400, seed=3), (-0.5, 1.5, -0.5, 1.5), 5, 5, samples)
        # two samples share the zero and the corner atom: one call on 2 * 100 + 2 atoms
        assert sizes == [102, 202]

    def test_repeated_atoms_match_merged_measure(self):
        window = (-1.0, 1.0, -1.0, 1.0)
        nodes = potential_grid(_delta(5 + 5j), window, 41, 41).nodes()
        distinct = np.array([nodes[30, 25], 0.123 + 0.456j, -0.317 + 0.702j, 0.771 - 0.413j])
        repeats = np.array([50, 7, 13, 1])
        order = np.random.default_rng(6).permutation(repeats.sum())
        repeated = WeightedPointMeasure.uniform(np.repeat(distinct, repeats)[order])
        merged = WeightedPointMeasure(points=distinct, weights=repeats / repeats.sum())
        got = potential_grid(repeated, window, 41, 41)
        want = potential_grid(merged, window, 41, 41)
        assert [(p.ix, p.iy) for p in got.perturbations] == [(30, 25)]
        assert got.perturbations == want.perturbations
        # reference: one log per atom, repeats included, at the nodes actually used
        used = got.nodes()
        for pert in got.perturbations:
            used[pert.ix, pert.iy] = pert.used
        term_by_term = np.log(np.abs(used[:, :, None] - repeated.points)) @ repeated.weights
        tol = 1e-13 * np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) <= tol
        assert np.max(np.abs(got.values - term_by_term)) <= tol

    @given(case=_grid_cases())
    @example(case=(  # differences of coordinates past 2^1021 overflow unless halved
        WeightedPointMeasure(points=np.array([8e307 + 8e307j, -1.5e308 - 1.5e308j]), weights=np.array([0.5, 0.5])),
        (-8e307, 8e307, -8e307, 8e307), 5, 3,
    ))
    @example(case=(  # np.abs(p) < radius = 2e-13, yet the rounded squares of p's parts sum past radius^2
        WeightedPointMeasure(
            points=np.array([2.0 + 0j, 7.400289013406082e-14 + 1.8580519974372656e-13j]),
            weights=np.array([0.5, 0.5]),
        ),
        (-1.0, 1.0, -1.0, 1.0), 3, 3,
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_term_by_term_logs_at_any_scale(self, case):
        measure, window, nx, ny = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = potential_grid(measure, window, nx, ny)
        values, moved = _term_by_term(measure, window, nx, ny)
        assert [(p.ix, p.iy, p.original, p.used) for p in grid.perturbations] == moved
        assert np.all(np.isfinite(grid.values))
        tol = 1e-13 * max(1.0, float(np.max(np.abs(values))))
        assert np.max(np.abs(grid.values - values)) <= tol

    @given(case=_weight_runs())
    @settings(max_examples=150, deadline=None)
    def test_grouped_logs_match_direct_values(self, case):
        measure, window, nx, ny = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = potential_grid(measure, window, nx, ny)
        assert grid.perturbations == _reference_grid(measure, window, nx, ny).perturbations
        used = grid.nodes()
        for pert in grid.perturbations:
            used[pert.ix, pert.iy] = pert.used
        # radius 0: no node is moved, every atom, repeats included, is a complex distance
        direct, _ = hermitization._direct_values(used.ravel(), measure.points, measure.weights, 0.0, 0j)
        assert np.all(np.isfinite(grid.values))
        tol = 1e-13 * (1.0 + float(np.max(np.abs(direct))))
        assert np.max(np.abs(grid.values.ravel() - direct)) <= tol
        z = used[nx // 2, ny // 2]
        assert abs(grid.values[nx // 2, ny // 2] - log_potential(measure, z)) <= tol

    @pytest.mark.parametrize("gap", [0.0, 0.5, 1.5, 1.99, 2.01, 2.5], ids=lambda g: f"{g}radii")
    def test_collision_set_matches_the_running_min(self, gap):
        # the radius is 1e-13 (the corner nodes fix the scale at 1); a node is
        # evaluated again within twice it, and moved within it
        window = (-1.0, 1.0, -1.0, 1.0)
        nodes = potential_grid(_delta(5 + 5j), window, 21, 17).nodes()
        rng = np.random.default_rng(17)
        picks = [nodes[i, j] for i, j in zip(rng.integers(0, 21, 12), rng.integers(0, 17, 12))]
        atoms = np.array(picks) + gap * 1e-13 * np.exp(2j * np.pi * rng.uniform(size=12))
        m = WeightedPointMeasure.uniform(np.concatenate([atoms, rng.uniform(-1, 1, 20) + 0.3j]))
        got, want = _collision_sets(m, window, 21, 17)
        assert got == want
        assert (len(got[0]) > 0) == (gap < 2.0)

    def test_collision_set_to_the_last_bit(self):
        # atoms at 2e-13 +- a few units in the last place to the right of the
        # nodes on the line x = 0, one per node: twice the radius, where the
        # computed square meets the limit exactly
        window = (-1.0, 1.0, -1.0, 1.0)
        ys = potential_grid(_delta(5 + 5j), window, 21, 17).nodes()[10]
        assert np.all(ys.real == 0.0)
        m = WeightedPointMeasure.uniform(np.array([complex(_ulps(2e-13, k), ys[k + 8].imag) for k in range(-6, 7)]))
        got, want = _collision_sets(m, window, 21, 17)
        assert got == want
        assert 0 < len(got[1]) < 13

    def test_collision_set_on_a_grid_finer_than_the_radius(self):
        # 301 x 301 nodes 1e-15 apart around an atom whose radius is 1e-13:
        # the atom's box of candidate nodes holds about 90,000 of them
        window = (-1.5e-13, 1.5e-13, -1.5e-13, 1.5e-13)
        m = WeightedPointMeasure.uniform(np.array([1.0 + 0j, 0j, 3e-14 - 2e-14j]))
        got, want = _collision_sets(m, window, 301, 301)
        assert got == want
        assert len(got[0]) > hermitization._PAIR_BUDGET // 2
        assert potential_grid(m, window, 301, 301).perturbations == (
            _reference_grid(m, window, 301, 301).perturbations
        )

    def test_distinct_weights_give_the_per_atom_bits(self):
        # no two atoms share a weight, so every atom takes the per-atom pass,
        # in input order and in the same tiles as the 0.19.0 kernel
        window = (-1.0, 1.0, -1.0, 1.0)
        nodes = potential_grid(_delta(5 + 5j), window, 41, 37).nodes()
        rng = np.random.default_rng(12)
        points = np.concatenate([nodes[[3, 20], [7, 30]], rng.uniform(-1, 1, 998) + 1j * rng.uniform(-1, 1, 998)])
        raw = rng.uniform(0.5, 1.0, points.size)
        m = WeightedPointMeasure(points=points, weights=raw / raw.sum())
        assert np.unique(m.weights).size == m.weights.size
        got = potential_grid(m, window, 41, 37)
        want = _reference_grid(m, window, 41, 37)
        assert [(p.ix, p.iy) for p in got.perturbations] == [(3, 7), (20, 30)]
        assert got.perturbations == want.perturbations
        assert got.values.tobytes() == want.values.tobytes()

    def test_nudge_off_an_atom_on_the_first_diagonal(self):
        # node 0's (+, +) diagonal is the atom 0.25 + 0.25j: the node moves to
        # its (-, +) diagonal, clear of every atom
        m = WeightedPointMeasure.uniform(np.array([0j, 0.25 + 0.25j, 0.9 + 0.1j]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = potential_grid(m, (0.0, 1.0, 0.0, 1.0), 3, 3)
        assert np.all(np.isfinite(grid.values))
        assert [(p.ix, p.iy, p.original, p.used) for p in grid.perturbations] == [(0, 0, 0j, -0.25 + 0.25j)]
        assert grid.values[0, 0] == pytest.approx(log_potential(m, -0.25 + 0.25j), rel=1e-13)

    def test_nudge_on_a_grid_finer_than_the_radius(self):
        # 1000 atoms in a 1e-12 square at 1 + 1j: the radius, 1e-13, spans 20
        # cells, so every node is nudged and no diagonal clears every atom; the
        # atoms lie on the float lattice of spacing 2^-52 near 1, so some (+, +)
        # diagonals are atoms, and the node moves to the diagonal farthest from
        # its nearest atom
        rng = np.random.default_rng(0)
        window = (1.0, 1.0 + 1e-12, 1.0, 1.0 + 1e-12)
        m = WeightedPointMeasure.uniform(1.0 + 1.0j + 1e-12 * (rng.uniform(size=1000) + 1j * rng.uniform(size=1000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = potential_grid(m, window, 200, 200)
        assert np.all(np.isfinite(grid.values))
        assert len(grid.perturbations) == 200 * 200
        used = np.array([p.used for p in grid.perturbations])
        assert not np.any(np.isin(used, m.points))
        shift, atoms = 0.5 * grid.hx + 0.5j * grid.hy, set(m.points)
        landed = [p for p in grid.perturbations if p.original + shift in atoms]
        assert landed
        for p in landed + list(grid.perturbations[::997]):
            assert grid.values[p.ix, p.iy] == pytest.approx(log_potential(m, p.used), rel=1e-13)

    def test_transposed_grid_gives_transposed_values(self):
        # 3200 equal-weight atoms fill two tiles on a 41 x 23 grid (2848 per
        # grouped tile) and on its 23 x 41 transpose (1592); one atom sits on node (30, 7)
        window = (-1.0, 1.0, -0.55, 0.55)
        nodes = potential_grid(_delta(5 + 5j), window, 41, 23).nodes()
        rng = np.random.default_rng(23)
        filler = rng.uniform(-1.0, 1.0, 3200) + 1j * rng.uniform(-0.55, 0.55, 3200)
        points = np.concatenate([[nodes[30, 7]], filler])
        weights = np.concatenate([[0.2], np.full(filler.size, 0.8 / filler.size)])
        grid = potential_grid(WeightedPointMeasure(points=points, weights=weights), window, 41, 23)
        swapped = WeightedPointMeasure(points=points.imag + 1j * points.real, weights=weights)
        flipped = potential_grid(swapped, (window[2], window[3], window[0], window[1]), 23, 41)
        assert np.all(np.abs(flipped.values.T - grid.values) <= 1e-13 * (1.0 + np.abs(grid.values)))
        assert [(p.ix, p.iy) for p in grid.perturbations] == [(30, 7)]

        def swap(z):
            return complex(z.imag, z.real)

        assert [(p.iy, p.ix, swap(p.original), swap(p.used)) for p in grid.perturbations] == [
            (p.ix, p.iy, p.original, p.used) for p in flipped.perturbations
        ]

    def test_kernel_potential_past_2_to_the_1021(self):
        # gaps of 1.6e308 and 8e307: every difference of coordinates overflows
        # unless taken in the frame; scaling the laws and the window by 2^-8
        # scales the atoms exactly and adds 8 log 2 per unit weight
        def grid(k):
            p, q = TwoAtomLaw(0.625, 0.0, 1.6e308 * 2.0**k), TwoAtomLaw(0.875, 0.0, 8e307 * 2.0**k)
            window = (0.0, 1.6e308 * 2.0**k, 0.0, 1.6e308 * 2.0**k)
            return sample_potential_grid(ModelSpec(p, q, n=16, seed=42), window, 21, 21, 1)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, small = grid(0), grid(-8)
        assert np.all(np.isfinite(big.values))
        assert np.max(np.abs(big.values - (small.values + 8.0 * math.log(2.0)))) <= 1e-13 * np.max(np.abs(big.values))
        assert big.perturbations
        assert [(p.ix, p.iy) for p in big.perturbations] == [(p.ix, p.iy) for p in small.perturbations]

    def test_rejects_bad_windows(self):
        m = _delta(0j)
        with pytest.raises(InvalidGridError):
            potential_grid(m, (1.0, -1.0, 0.0, 1.0), 5, 5)
        with pytest.raises(InvalidGridError):
            potential_grid(m, (-1.0, 1.0, 0.0, 1.0), 2, 5)
        # np.arange(3.5) has four nodes at a step of 1 / 2.5, the last one past the window
        with pytest.raises(InvalidGridError, match="need integer node counts"):
            potential_grid(m, (0.0, 1.0, 0.0, 1.0), 3.5, 5)

    @pytest.mark.parametrize("window, nx", [
        ((-1e308, 1e308, -1.0, 1.0), 5),  # the width overflows: the step is inf
        ((0.0, 1.7976931348623157e308, -1.0, 1.0), 4),  # a finite step, yet the last node rounds to inf
        ((0.0, 1e-310, -1.0, 1.0), 5),  # a subnormal step
    ])
    def test_rejects_steps_outside_the_float_range(self, window, nx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match="outside the float range"):
                potential_grid(_delta(0j), window, nx, 5)

    def test_collision_radius_scales_with_the_atoms(self):
        # scaling atoms and window by 2^-66 (about 1.4e-20) keeps the one node
        # on an atom the only collision; a radius with a floor at 1e-13 would
        # cover every node of the small grid
        m = WeightedPointMeasure(points=np.array([0.5 + 0.5j, 0.3 - 0.7j]), weights=np.array([0.5, 0.5]))
        window = (-1.0, 1.0, -1.0, 1.0)
        unit = potential_grid(m, window, 5, 5)
        k = -66
        small = potential_grid(
            WeightedPointMeasure(points=m.points * 2.0**k, weights=m.weights), tuple(v * 2.0**k for v in window), 5, 5
        )
        assert [(p.ix, p.iy) for p in unit.perturbations] == [(3, 3)]
        assert [(p.ix, p.iy) for p in small.perturbations] == [(3, 3)]
        assert np.max(np.abs(small.values - k * math.log(2.0) - unit.values)) <= 1e-13 * np.max(np.abs(unit.values))


class TestLaplacianRecover:
    def test_requires_square_cells(self):
        grid = potential_grid(_delta(5 + 5j), (0.0, 2.0, 0.0, 1.0), 11, 11)
        with pytest.raises(InvalidGridError):
            laplacian_recover(grid)

    @pytest.mark.parametrize("values,steps,message", [
        (np.zeros((2, 7)), (0.5, 0.5), "at least 3 nodes per axis"),
        (np.zeros(7), (0.5, 0.5), "2-d values"),
        (np.zeros((3, 4, 5)), (0.5, 0.5), "2-d values"),
        (np.where(np.eye(5) > 0, np.nan, 0.0), (0.5, 0.5), "non-finite L value"),
        (np.full((5, 5), -np.inf), (0.5, 0.5), "non-finite L value"),
        (np.zeros((5, 5)), (math.nan, math.nan), "square cells"),
    ], ids=["2x7", "1-d", "3-d", "nan", "inf", "nan-steps"])
    def test_refuses_grids_it_cannot_read(self, values, steps, message):
        # a grid built by hand reaches the stencil unchecked: too few nodes would give an empty
        # mass, 1-d values an IndexError, and non-finite values or steps NaN masses and nodes
        grid = hermitization.PotentialGrid(x0=0.0, y0=0.0, hx=steps[0], hy=steps[1], values=values)
        with pytest.raises(InvalidGridError, match=message):
            laplacian_recover(grid)

    def test_harmonic_region_has_no_mass(self):
        # away from the atom, L = log|z| is harmonic and the stencil sees
        # only its own h^2 truncation error
        grid = potential_grid(_delta(0j), (2.0, 3.0, 0.0, 1.0), 41, 41)
        rec = laplacian_recover(grid)
        h = grid.hx
        assert rec.measure is None or rec.measure.weights.max() < 1.0  # not a point mass
        assert np.max(np.abs(rec.mass)) <= h**4
        assert abs(rec.raw_total) <= 41 * h**4

    def test_recovers_point_mass(self):
        rec = laplacian_recover(potential_grid(_delta(0j), (-1.0, 1.0, -1.0, 1.0), 201, 201))
        assert abs(rec.raw_total - 1.0) <= 0.02
        h = 2.0 / 200
        assert rec.measure is not None
        assert rec.measure.mass_within(0j, 3 * h) >= 0.95

    def test_splits_two_atoms(self):
        m = WeightedPointMeasure(
            points=np.array([-0.5 + 0j, 0.5 + 0j]), weights=np.array([0.5, 0.5])
        )
        rec = laplacian_recover(potential_grid(m, (-2.0, 2.0, -2.0, 2.0), 201, 201))
        h = 4.0 / 200
        assert abs(rec.raw_total - 1.0) <= 0.02
        assert rec.measure.mass_within(-0.5, 3 * h) == pytest.approx(0.5, abs=0.05)
        assert rec.measure.mass_within(0.5, 3 * h) == pytest.approx(0.5, abs=0.05)

    def test_mass_grid_attached(self):
        rec = laplacian_recover(potential_grid(_delta(0j), (-1.0, 1.0, -1.0, 1.0), 11, 11))
        assert rec.mass.shape == (9, 9)
        assert rec.negative_mass >= 0.0
        # a recovery is its grid and its masses; the totals and the measure are read off them,
        # the measure once
        assert [f.name for f in fields(LaplacianRecovery)] == ["grid", "mass"]
        assert rec.measure is rec.measure
        by_hand = LaplacianRecovery(rec.grid, rec.mass)
        assert (by_hand.raw_total, by_hand.negative_mass) == (rec.raw_total, rec.negative_mass)
        assert by_hand.measure.points.tobytes() == rec.measure.points.tobytes()
        assert by_hand.measure.weights.tobytes() == rec.measure.weights.tobytes()

    def test_nothing_clamped_is_positive_zero(self):
        # the negated empty sum is -0.0, which `recover` wrote as "negative_mass=-0.0"
        grid = hermitization.PotentialGrid(x0=0.0, y0=0.0, hx=0.25, hy=0.25, values=np.zeros((5, 5)))
        rec = laplacian_recover(grid)
        assert rec.negative_mass == 0.0 and math.copysign(1.0, rec.negative_mass) == 1.0

    def test_node_counts_are_read_off_the_values(self):
        # 5 nodes along x and 4 along y: the atom, a fifth and a tenth of a cell off the node
        # 1.5 + 0.5i, is recovered at that node, and the grid is the one given
        h = 0.5
        xs, ys = h * np.arange(5), h * np.arange(4)
        values = np.log(np.abs(xs[:, None] + 1j * ys[None, :] - (1.6 + 0.55j)))
        grid = hermitization.PotentialGrid(x0=0.0, y0=0.0, hx=h, hy=h, values=values)
        rec = laplacian_recover(grid)
        assert (grid.nx, grid.ny) == (5, 4)
        assert rec.grid is grid
        assert rec.mass.shape == (3, 2)
        assert grid.nodes()[3, 1] == 1.5 + 0.5j
        assert np.unravel_index(int(np.argmax(rec.mass)), rec.mass.shape) == (2, 0)
        assert rec.measure.mass_within(1.5 + 0.5j, 0.0) >= 0.95


class TestSampledPipeline:
    def test_single_sample_matches_manual(self, demo_laws):
        p, q = demo_laws
        spec = ModelSpec(p, q, n=40, seed=900)
        window = (-0.5, 1.5, -0.5, 1.5)
        grid = sample_potential_grid(spec, window, 21, 21, 1)
        child = substream_seed(900, GRID, 0)
        manual = potential_grid(
            WeightedPointMeasure.uniform(two_projection_eigenvalues(replace(spec, seed=child))),
            window, 21, 21,
        )
        assert np.array_equal(grid.values, manual.values)

    def test_average_of_two_samples(self, demo_laws):
        p, q = demo_laws
        spec = ModelSpec(p, q, n=30, seed=901)
        window = (-0.5, 1.5, -0.5, 1.5)
        grid = sample_potential_grid(spec, window, 15, 15, 2)
        seeds = [substream_seed(901, GRID, i) for i in range(2)]
        spectra = [two_projection_eigenvalues(replace(spec, seed=s)) for s in seeds]
        pooled = potential_grid(WeightedPointMeasure.uniform(np.concatenate(spectra)), window, 15, 15)
        assert np.array_equal(grid.values, pooled.values)
        # the log potential is linear in the measure: the pooled grid is the per-sample mean
        parts = [potential_grid(WeightedPointMeasure.uniform(x), window, 15, 15).values for x in spectra]
        tol = 1e-13 * max(1.0, float(np.max(np.abs(grid.values))))
        assert np.max(np.abs(grid.values - (parts[0] + parts[1]) / 2)) <= tol
        assert len(set(seeds)) == 2

    @pytest.mark.parametrize("pipeline,window,nx,ny,message", [
        (sample_potential_grid, (-0.5, 1.5, -0.5, 1.5), 2, 200, "at least 3 nodes per axis"),
        (sample_potential_grid, (1.5, -0.5, -0.5, 1.5), 21, 21, "nondegenerate"),
        (brown_pipeline, (-0.5, 1.5, -0.5, 1.5), 1, 21, "at least 3 nodes per axis"),
        (brown_pipeline, (-0.5, 1.5, -0.5, 1.5), 21, 41, "square cells"),
        (sample_potential_grid, (-0.5, 1.5, -0.5, 1.5), 3.5, 21, "need integer node counts"),
        (brown_pipeline, (-0.5, 1.5, -0.5, 1.5), 4.0, 4.0, "need integer node counts"),
    ], ids=["sample-nodes", "sample-window", "brown-nodes", "brown-square", "sample-float-count", "brown-float-counts"])
    def test_grid_checked_before_any_draw(self, demo_laws, monkeypatch, pipeline, window, nx, ny, message):
        p, q = demo_laws
        drawn = []
        real = model.two_projection_eigenvalues

        def recording(spec):
            drawn.append(spec.n)
            return real(spec)

        monkeypatch.setattr(model, "two_projection_eigenvalues", recording)
        with pytest.raises(InvalidGridError, match=message):
            pipeline(ModelSpec(p, q, n=16, seed=5), window, nx, ny, 3)
        assert drawn == []

    def test_pipeline_deterministic(self, demo_laws):
        p, q = demo_laws
        spec = ModelSpec(p, q, n=25, seed=77)
        window = (-0.5, 1.5, -0.5, 1.5)
        a = brown_pipeline(spec, window, 15, 15, 2)
        b = brown_pipeline(spec, window, 15, 15, 2)
        assert a.grid.values.tobytes() == b.grid.values.tobytes()
        assert a.raw_total == b.raw_total

    def test_thread_count_does_not_change_bits(self, demo_laws, monkeypatch):
        # the grid is evaluated in the calling thread: a stray PROJSUM_THREADS
        # starts no thread and moves no byte
        p, q = demo_laws
        spec = ModelSpec(p, q, n=25, seed=78)
        window = (-0.5, 1.5, -0.5, 1.5)
        plain = brown_pipeline(spec, window, 33, 33, 1)

        def refuse(self):
            raise AssertionError("the grid started a thread")

        monkeypatch.setenv("PROJSUM_THREADS", "4")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        serial = brown_pipeline(spec, window, 33, 33, 1)
        assert serial.grid.values.tobytes() == plain.grid.values.tobytes()
