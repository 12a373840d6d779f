"""Spectral layer: ESD, nu measures, structure identities, reflection symmetry, freeness."""

from __future__ import annotations

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from projsum import (
    ModelSpec,
    TwoAtomLaw,
    WeightedPointMeasure,
    assemble_model,
    corner_atom_masses,
    dist_to_hr_many,
    esd,
    freeness_diagnostic,
    make_geometry,
    nu_n_z,
    structure_report,
    verify_sv_bound,
)
from projsum import model, spectra
from projsum.model import _realize
from tests.conftest import P_LAW, Q_LAW, commuting_model


@pytest.fixture(scope="module")
def commuting8():
    return commuting_model(ModelSpec(P_LAW, Q_LAW, n=8, seed=0))


class TestWeightedPointMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(points=np.array([0j, 1j]), weights=np.array([0.5]))
        with pytest.raises(ValueError):
            WeightedPointMeasure(points=np.array([0j]), weights=np.array([0.5]))
        with pytest.raises(ValueError):
            WeightedPointMeasure(points=np.array([0j, 1j]), weights=np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            WeightedPointMeasure(points=np.array([np.inf + 0j]), weights=np.array([1.0]))

    def test_mass_within(self):
        m = WeightedPointMeasure(
            points=np.array([0j, 1 + 0j, 1 + 1e-12j]),
            weights=np.array([0.5, 0.25, 0.25]),
        )
        assert m.mass_within(0j, 1e-9) == 0.5
        assert m.mass_within(1 + 0j, 1e-9) == 0.5
        assert m.mass_within(5j, 0.1) == 0.0
        assert m.mass_within(0.5, 10.0) == 1.0

    def test_uniform(self):
        m = WeightedPointMeasure.uniform(np.arange(4))
        assert np.all(m.weights == 0.25)
        assert not m.points.flags.writeable
        # no points: the constructor's refusal, not a ZeroDivisionError
        with pytest.raises(ValueError, match="weights must sum to 1"):
            WeightedPointMeasure.uniform([])

    def test_caller_arrays_stay_writeable(self):
        points = np.array([0j, 1j])
        weights = np.array([0.25, 0.75])
        m = WeightedPointMeasure(points=points, weights=weights)
        assert points.flags.writeable and weights.flags.writeable
        points[0] = 5.0
        weights[:] = 0.5
        assert np.array_equal(m.points, [0j, 1j])
        assert np.array_equal(m.weights, [0.25, 0.75])


class TestEsd:
    def test_scalar_model(self):
        r = assemble_model(
            ModelSpec(TwoAtomLaw(1.0, 0.3, 9.0), TwoAtomLaw(1.0, -0.2, 9.0), n=1, seed=5)
        )
        m = esd(r)
        assert m.points.shape == (1,)
        assert m.points[0] == pytest.approx(0.3 - 0.2j, abs=1e-15)

    def test_commuting_multiset(self, commuting8):
        pts = np.sort_complex(esd(commuting8).points)
        expect = np.sort_complex(
            np.array([1 + 0.8j, 1, 1, 0, 0, 0, 0, 0], dtype=np.complex128)
        )
        assert np.max(np.abs(pts - expect)) <= 1e-12


def _failing(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


class TestSolverFailures:
    """A dense solver's LinAlgError surfaces as a ComputationError naming the solve."""

    def test_esd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", _failing)
        r = assemble_model(ModelSpec(P_LAW, Q_LAW, n=8, seed=0))
        with pytest.raises(spectra.ComputationError,
                           match=r"eigensolver failed on x_matrix: n=8, max\|entry\|=.* \(did not converge\)"):
            esd(r)

    def test_nu_n_z(self, monkeypatch, small_realization):
        monkeypatch.setattr(np.linalg, "eigvalsh", _failing)
        with pytest.raises(spectra.ComputationError, match=r"Hermitian eigensolver failed at z=\(2\+1j\)"):
            nu_n_z(small_realization, 2 + 1j)

    def test_sv_bound_dense_fallback(self, monkeypatch):
        # a perturbed X_n is no two-projection matrix, so its margin takes the dense SVD
        base = assemble_model(ModelSpec(P_LAW, Q_LAW, n=16, seed=1))
        realization = replace(base, x_matrix=base.x_matrix + 1e-3 * np.eye(base.n))
        # the angle spectrum's row-block SVDs run first, so only the SVD of z - X_n fails
        realization._dense_spectra
        monkeypatch.setattr(np.linalg, "svd", _failing)
        with pytest.raises(spectra.ComputationError, match=r"SVD failed at z=\(2\+1j\) \(did not converge\)"):
            verify_sv_bound(realization, 2 + 1j)


class TestDenseSpectraOnce:
    def test_consumers_share_one_solve_and_a_replaced_matrix_takes_its_own(self, dense_solves):
        r = assemble_model(ModelSpec(P_LAW, Q_LAW, n=32, seed=3))
        zs = np.array([0.5 + 0.4j, 2.0 - 1.0j])

        def consume(realization):
            esd(realization)
            structure_report(realization)
            verify_sv_bound(realization, zs)
            corner_atom_masses(realization)

        # one eigvals, and one SVD per row block of Pi_q for the angle spectrum (k1 = 12);
        # structure_report takes one eigvalsh per diagonal block of Im W, W = X~^2, on every call
        blocks, rows = [(12, 12), (20, 20)], [(12, 32), (20, 32)]
        consume(r)
        assert dense_solves == {"eigvals": [(32, 32)], "eigvalsh": blocks, "svd": rows}
        consume(r)
        assert dense_solves == {"eigvals": [(32, 32)], "eigvalsh": 2 * blocks, "svd": rows}

        # the perturbed copy takes its own solves, and the dense SVD of z - X_n at both z
        shifted = replace(r, x_matrix=r.x_matrix + 1e-3 * np.eye(r.n))
        consume(shifted)
        assert dense_solves == {"eigvals": 2 * [(32, 32)], "eigvalsh": 3 * blocks, "svd": 2 * rows + 2 * [(32, 32)]}
        before, after = np.sort_complex(esd(r).points), np.sort_complex(esd(shifted).points)
        assert not np.array_equal(before, after)
        assert np.max(np.abs(after - before - 1e-3)) <= 1e-9

    def test_cache_holds_no_n_by_n_matrix(self):
        # after check's stages the cache holds n eigenvalues, the angle core and eps: of
        # everything reachable from the realization, only X_n has n^2 entries
        r = assemble_model(ModelSpec(P_LAW, Q_LAW, n=32, seed=3))
        esd(r)
        structure_report(r)
        verify_sv_bound(r, np.array([0.5 + 0.4j, 2.0 - 1.0j]))
        corner_atom_masses(r)
        assert {"_eigenvalues", "_dense_spectra"} <= vars(r).keys()
        sizes, stack = [], [v for k, v in vars(r).items() if k != "x_matrix"]
        while stack:
            obj = stack.pop()
            if isinstance(obj, np.ndarray):
                sizes.append(obj.size)
                stack.append(obj.base)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
        assert 0 < max(sizes) < r.n**2

    def test_cached_eigenvalues_are_read_only(self, small_realization):
        vals = small_realization._eigenvalues
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 0.0
        assert small_realization._eigenvalues is vals


class TestNu:
    def test_matches_singular_values(self, small_realization):
        rng = np.random.default_rng(3)
        for z in rng.uniform(-1, 2, 4) + 1j * rng.uniform(-1, 2, 4):
            nu = nu_n_z(small_realization, complex(z))
            shifted = z * np.eye(small_realization.n) - small_realization.x_matrix
            sq = np.sort(np.linalg.svd(shifted, compute_uv=False) ** 2)
            assert nu.points.shape == (small_realization.n,)
            assert np.all(nu.points >= 0.0)
            assert np.all(np.diff(nu.points) >= 0.0)
            assert np.max(np.abs(nu.points - sq)) <= 1e-10 * max(1.0, sq[-1])

    def test_kernel_at_eigenvalue(self, small_realization):
        z = complex(esd(small_realization).points[0])
        nu = nu_n_z(small_realization, z)
        assert nu.points[0] <= 1e-12


class TestStructure:
    def test_report_within_theory_bounds(self, demo_realization):
        rep = structure_report(demo_realization)
        geom = make_geometry(
            demo_realization.realized_p_law, demo_realization.realized_q_law
        )
        assert rep.re_deviation <= 1e-9 * geom.scale**2
        assert rep.im_norm <= geom.im_halfwidth + 1e-10
        assert rep.normality_residual <= 1e-10
        assert rep.support_deviation <= 1e-8 * geom.scale

    def test_centered_squares_are_scalars(self, demo_realization):
        n = demo_realization.n
        geom = make_geometry(
            demo_realization.realized_p_law, demo_realization.realized_q_law
        )
        gap_a, gap_b = geom.gap_a, geom.gap_b
        assert (gap_a, gap_b) == (1.0, 0.8)
        pt = demo_realization.p_matrix - geom.center_x * np.eye(n)
        qt = demo_realization.q_matrix - geom.center_y * np.eye(n)
        assert np.max(np.abs(pt @ pt - 0.25 * gap_a**2 * np.eye(n))) <= 1e-12
        assert np.max(np.abs(qt @ qt - 0.25 * gap_b**2 * np.eye(n))) <= 1e-12

    def test_commuting_realization_also_structured(self, commuting8):
        rep = structure_report(commuting8)
        assert rep.re_deviation <= 1e-12
        assert rep.normality_residual <= 1e-12
        assert rep.support_deviation <= 1e-12


class TestSvBound:
    def test_margins_nonnegative_on_grid(self, small_realization):
        geom = make_geometry(
            small_realization.realized_p_law, small_realization.realized_q_law
        )
        rng = np.random.default_rng(11)
        zs = rng.uniform(-0.6, 1.6, 25) + 1j * rng.uniform(-0.6, 1.4, 25)
        for z in zs:
            assert verify_sv_bound(small_realization, complex(z)) >= -1e-8 * geom.scale

    def test_array_z_matches_scalar_calls(self, small_realization):
        rng = np.random.default_rng(5)
        zs = rng.uniform(-0.6, 1.6, (3, 4)) + 1j * rng.uniform(-0.6, 1.4, (3, 4))
        zs[0, 0] = esd(small_realization).points[3]
        margins = verify_sv_bound(small_realization, zs)
        assert margins.shape == zs.shape
        single = [verify_sv_bound(small_realization, complex(z)) for z in zs.ravel()]
        assert all(isinstance(m, np.ndarray) and m.shape == () for m in single)
        assert margins.ravel().tobytes() == np.array(single).tobytes()

    def test_margin_at_eigenvalue_is_tiny(self, small_realization):
        geom = make_geometry(
            small_realization.realized_p_law, small_realization.realized_q_law
        )
        z = complex(esd(small_realization).points[3])
        assert abs(verify_sv_bound(small_realization, z)) <= 1e-8 * geom.scale

    def test_margin_far_away(self, small_realization):
        # far from the spectrum sigma_min ~ |z| while dist^2/||.|| ~ |z|,
        # so the margin stays positive but not tiny
        assert verify_sv_bound(small_realization, 30 + 40j) > 1.0


def _dense_margins(realization, geom, zs):
    """The margins from one dense SVD per z: the reference of the block route."""
    dist = dist_to_hr_many(geom, zs)
    margins = []
    for z, d in zip(zs, dist):
        svals = np.linalg.svd(z * np.eye(realization.n) - realization.x_matrix, compute_uv=False)
        margins.append(float(svals[-1]) - float(d) ** 2 / float(svals[0]))
    return np.array(margins)


def _box_points(geom, count, seed):
    """Uniform points on the corners' bounding box padded by scale, as `check` draws them."""
    rng = np.random.default_rng(seed)
    xs = [c.real for c in geom.corners]
    ys = [c.imag for c in geom.corners]
    x0, x1 = min(xs) - geom.scale, max(xs) + geom.scale
    y0, y1 = min(ys) - geom.scale, max(ys) + geom.scale
    return x0 + (x1 - x0) * rng.random(count) + 1j * (y0 + (y1 - y0) * rng.random(count))


def _exact_singular_values(matrix: np.ndarray) -> np.ndarray:
    """The singular values of ``matrix``, in decreasing order, from a 50-digit mpmath SVD, rounded once."""
    with mpmath.workdps(50):
        svals = mpmath.svd_c(mpmath.matrix(matrix.tolist()), compute_uv=False)
        return np.array([float(svals[i]) for i in range(len(svals))])


@st.composite
def _ranked_specs(draw, min_n=1, max_n=24):
    """Specs with ranks k1, k2 in [0, n] (k2 may equal k1 or n - k1), atoms
    in [-2, 2] and gaps 0.05..3 of either sign."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    k1 = draw(st.integers(min_value=0, max_value=n))
    k2 = draw(st.one_of(st.integers(min_value=0, max_value=n), st.just(k1), st.just(n - k1)))

    def law(k):
        loc = draw(st.floats(min_value=-2.0, max_value=2.0))
        gap = draw(st.floats(min_value=0.05, max_value=3.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return TwoAtomLaw((n - k) / n, loc, loc + gap)

    return ModelSpec(law(k1), law(k2), n=n, seed=draw(st.integers(min_value=0, max_value=2**64 - 1)))


def _ranked(n, k1, k2):
    return ModelSpec(TwoAtomLaw((n - k1) / n, 0.3, 1.1), TwoAtomLaw((n - k2) / n, -0.4, -1.6), n=n, seed=1)


class TestSvBlocks:
    @given(spec=_ranked_specs(), commuting=st.booleans())
    @example(spec=_ranked(12, 6, 6), commuting=False)  # k1 = k2 and k1 + k2 = n
    @example(spec=_ranked(12, 4, 8), commuting=False)  # k1 + k2 = n
    @example(spec=_ranked(12, 5, 5), commuting=True)  # k1 = k2, all angles 0
    @example(spec=_ranked(12, 1, 11), commuting=False)  # k in {1, n - 1}
    @example(spec=_ranked(12, 11, 1), commuting=True)
    @example(spec=_ranked(12, 0, 12), commuting=False)  # weights 1 and 0
    @example(spec=_ranked(24, 9, 17), commuting=False)
    # LAPACK's smallest singular value at the far point center + 10 * e^{1.9i} lies 1.08e-13 from the exact
    # one, past its allowance of 6.6e-14; the certified one equals the exact one
    @example(spec=ModelSpec(TwoAtomLaw(6 / 11, 0.0, -0.05078125), TwoAtomLaw(5 / 11, 0.0, -0.05078125), n=11, seed=1913306),
             commuting=False)
    @settings(max_examples=150, deadline=None)
    def test_certified_interval_holds_the_dense_singular_values(self, spec, commuting):
        realization = (commuting_model if commuting else assemble_model)(spec)
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
        far = geom.center + 10.0 * geom.scale * np.exp(1j * np.array([0.3, 1.9, 4.0]))
        zs = np.concatenate([
            np.array(geom.corners), esd(realization).points, far, _box_points(geom, 8, spec.n),
        ])
        lo, hi, eps = spectra._certified_sigmas(realization, zs)
        dense = np.array([np.linalg.svd(z * np.eye(spec.n) - realization.x_matrix, compute_uv=False)
                          for z in zs])
        assert np.max(eps) <= 1e-12 * geom.scale
        # eps bounds the distance to the exact singular values; the dense
        # reference errs by up to LAPACK's n * machine epsilon * sigma_max itself
        slack = eps + spec.n * np.finfo(np.float64).eps * dense[:, 0]
        # where LAPACK falls outside that allowance, a 50-digit SVD of the same matrix decides
        for i in np.flatnonzero((np.abs(lo - dense[:, -1]) > slack) | (np.abs(hi - dense[:, 0]) > slack)):
            dense[i] = _exact_singular_values(zs[i] * np.eye(spec.n) - realization.x_matrix)
        assert np.all(np.abs(lo - dense[:, -1]) <= slack)
        assert np.all(np.abs(hi - dense[:, 0]) <= slack)

    def test_tiny_perturbation_takes_no_dense_svd(self, monkeypatch):
        base = assemble_model(ModelSpec(P_LAW, Q_LAW, n=64, seed=42))
        realization = replace(base, x_matrix=base.x_matrix + 1e-12 * np.eye(base.n))
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
        zs = _box_points(geom, 20, 0)
        dense = _dense_margins(realization, geom, zs)
        # the angle spectrum's row-block SVDs run first, so only SVDs of z - X_n are counted
        realization._dense_spectra
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
        margins = verify_sv_bound(realization, zs)
        assert calls == []
        assert np.all(margins >= 0.0) and np.all(dense >= 0.0)
        assert np.max(np.abs(margins - dense)) <= 1e-8 * geom.scale

    @pytest.mark.parametrize("shift", [1e-3, 1e-1])
    def test_perturbation_takes_the_dense_fallback(self, monkeypatch, shift):
        # a perturbed X_n is no two-projection matrix: its margins come from
        # dense SVDs, and on its own eigenvalues they turn negative
        base = assemble_model(ModelSpec(P_LAW, Q_LAW, n=64, seed=42))
        realization = replace(base, x_matrix=base.x_matrix + shift * np.eye(base.n))
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
        zs = np.concatenate([_box_points(geom, 20, 0), esd(realization).points[:10]])
        dense = _dense_margins(realization, geom, zs)
        realization._dense_spectra  # as above: count only the SVDs of z - X_n
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
        margins = verify_sv_bound(realization, zs)
        assert len(calls) > 0
        tol = -1e-8 * geom.scale
        assert np.min(dense) < tol
        assert np.array_equal(margins >= tol, dense >= tol)
        assert margins.tobytes() == dense.tobytes()

    def test_projections_too_far_from_exact_ones_take_the_dense_margin(self):
        # X_n's Hermitian part P_n moved off alpha + A*E_k1: the residual makes eps large but
        # finite.  Its skew-Hermitian part moved: Pi_q is off a projection, the block layout
        # cannot be certified, and eps is infinite.  Either way every z takes the dense SVD
        base = assemble_model(ModelSpec(P_LAW, Q_LAW, n=24, seed=5))
        e = np.random.default_rng(24).standard_normal((24, 24))
        h = 0.05 * (e + e.T)
        for move, finite in ((h, True), (1j * h, False)):
            realization = replace(base, x_matrix=base.x_matrix + move)
            eps = realization._dense_spectra.eps
            assert math.isfinite(eps) == finite and eps >= 0.99 * np.linalg.norm(h)
            geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
            zs = _box_points(geom, 3, 1)
            assert verify_sv_bound(realization, zs).tobytes() == _dense_margins(realization, geom, zs).tobytes()

    @pytest.mark.parametrize("q_gap", [1e-310, 1e-100])
    def test_pi_q_that_is_no_projection_reaches_no_lapack_call(self, q_gap, capfd):
        # at a tiny q gap a skew-Hermitian move of X_n puts entries of 1e99 and up, or inf, in
        # Pi_q = (Q_n - beta)/B: no angle is measured, eps is infinite, and every z takes the
        # dense SVD, silently (LAPACK writes its "illegal value" messages to fd 1)
        base = assemble_model(ModelSpec(TwoAtomLaw(0.5, 0.0, 3e-308), TwoAtomLaw(0.4, 0.0, q_gap), n=7, seed=1))
        e = np.random.default_rng(1).standard_normal((7, 7))
        realization = replace(base, x_matrix=base.x_matrix + 0.05j * (e + e.T))
        angles = realization._dense_spectra.angles
        assert realization._dense_spectra.eps == math.inf
        assert np.all(np.isnan(angles.c)) and np.all(np.isnan(angles.s)) and angles.c.size > 0
        assert angles.intersection_dims() == angles.excess()
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
        zs = _box_points(geom, 3, 1)
        assert verify_sv_bound(realization, zs).tobytes() == _dense_margins(realization, geom, zs).tobytes()
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("t,certifies", [(1e-13, True), (1e-6, False), (1e-2, False)])
    def test_skew_hermitian_perturbation_moves_pi_q(self, t, certifies):
        # X_n + i t H, H real symmetric, moves Q_n, which is read off X_n, by t H, so Pi_q by t H / B,
        # and the angle core holds the row-block singular values of the moved Pi_q.  Where eps
        # exceeds the margin allowance no z certifies, and every margin is the dense one
        base = assemble_model(ModelSpec(P_LAW, Q_LAW, n=24, seed=5))
        e = np.random.default_rng(24).standard_normal((24, 24))
        h = e + e.T
        realization = replace(base, x_matrix=base.x_matrix + 1j * t * h)
        pi_q, base_pi_q = (model._divide(r.q_matrix - Q_LAW.loc * np.eye(24), Q_LAW.gap) for r in (realization, base))
        u = np.finfo(np.float64).eps / 2
        assert np.max(np.abs(pi_q - base_pi_q - t * h / Q_LAW.gap)) <= 8 * u
        core, base_core = realization._dense_spectra.angles, base._dense_spectra.angles
        (_, e1, _, rr), m = core.excess(), core.c.size
        top, bottom = (np.linalg.svd(rows, compute_uv=False) for rows in (pi_q[: core.k1], pi_q[core.k1 :]))
        assert np.array_equal(core.c, top[rr : rr + m]) and np.array_equal(core.s, bottom[e1 : e1 + m][::-1])
        assert not np.array_equal(core.c, base_core.c) and not np.array_equal(core.s, base_core.s)
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
        zs = _box_points(geom, 20, 0)
        margins, dense = verify_sv_bound(realization, zs), _dense_margins(realization, geom, zs)
        assert (realization._dense_spectra.eps <= 1e-8 * geom.scale) == certifies
        if certifies:
            assert np.all(margins >= 0.0) and np.max(np.abs(margins - dense)) <= 1e-8 * geom.scale
        else:
            assert margins.tobytes() == dense.tobytes()

    @given(k=st.integers(min_value=-150, max_value=150))
    @example(k=-150)
    @example(k=150)
    @settings(max_examples=30, deadline=None)
    def test_certificate_is_homogeneous_in_the_atom_scale(self, k):
        # scaling the atom locations and z by 2^e scales lo, hi and eps bit for bit:
        # the closed forms run in a per-z power-of-two frame.  Unscaled, their fourth
        # powers over- or underflowed from |e| = 260.  e is even, as for the structure fields
        e = 2 * k
        off_center = (TwoAtomLaw(0.3, 2.0, -1.0), TwoAtomLaw(0.45, 0.5, 0.55))
        for laws, n in (((P_LAW, Q_LAW), 40), (off_center, 33)):
            geom = make_geometry(*laws)
            zs = np.concatenate([np.array(geom.corners), _box_points(geom, 16, n)])
            base = spectra._certified_sigmas(assemble_model(ModelSpec(*laws, n=n, seed=7)), zs)
            scaled = [TwoAtomLaw(law.weight, math.ldexp(law.loc, e), math.ldexp(law.loc_alt, e)) for law in laws]
            got = spectra._certified_sigmas(assemble_model(ModelSpec(*scaled, n=n, seed=7)), zs * math.ldexp(1.0, e))
            for value, reference in zip(got, base):
                assert np.all(np.isfinite(value)) and value.tobytes() == np.ldexp(reference, e).tobytes()


def _dense_structure(w: np.ndarray, c: float) -> tuple[float, float, float]:
    """The eigenvalue forms of the structure fields: max |Re(rho) - c| over
    the eigenvalues of w, ||Im w||_2, and ||[w, w*]||_2 / ||w||_2^2."""
    wh = w.conj().T
    re_dev = float(np.max(np.abs(np.linalg.eigvals(w).real - c)))
    im_norm = float(np.max(np.abs(np.linalg.eigvalsh((w - wh) / 2j))))
    comm = float(np.max(np.abs(np.linalg.eigvalsh(w @ wh - wh @ w))))
    return re_dev, im_norm, comm / float(np.linalg.svd(w, compute_uv=False)[0]) ** 2


class TestStructureResiduals:
    @given(spec=_ranked_specs(min_n=2, max_n=40), commuting=st.booleans(),
           shift=st.sampled_from([0.0, 1e-9, 1e-4, 1e-1]))
    @example(spec=ModelSpec(P_LAW, Q_LAW, n=40, seed=3), commuting=False, shift=0.0)
    @example(spec=ModelSpec(P_LAW, Q_LAW, n=40, seed=3), commuting=False, shift=1e-1)
    @example(spec=_ranked(12, 6, 6), commuting=False, shift=0.0)  # no corner atom
    @example(spec=_ranked(12, 5, 5), commuting=True, shift=1e-4)
    @settings(max_examples=150, deadline=None)
    def test_fields_bound_the_dense_values(self, spec, commuting, shift):
        realization = (commuting_model if commuting else assemble_model)(spec)
        n = spec.n
        # a Gaussian perturbation makes W = X~^2 far from normal, so the bounds are tested at size
        re, im = np.random.default_rng(n).standard_normal((2, n, n))
        realization = replace(realization, x_matrix=realization.x_matrix + shift * (re + 1j * im))
        p, q = realization.realized_p_law, realization.realized_q_law
        geom = make_geometry(p, q)
        rep = structure_report(realization)
        xt = realization.x_matrix - geom.center * np.eye(n)
        w = xt @ xt
        re_dev, im_norm, normality = _dense_structure(w, 0.25 * (geom.gap_a - geom.gap_b) * (geom.gap_a + geom.gap_b))
        # the dense solvers err by about n * u * ||W|| (eigvals, svd) and n * u * ||[W, W*]|| (eigvalsh);
        # both commutators W W* - W* W carry up to 2 n u ||W||_F^2 of product rounding
        u = np.finfo(np.float64).eps / 2
        fro, top = float(np.linalg.norm(w)), float(np.linalg.svd(w, compute_uv=False)[0])
        assert rep.re_deviation >= re_dev - 8 * n * u * fro
        # im_norm is max(||K11||_2, ||K22||_2) + ||K12||_F, K = Im W split at k1: at least ||K||_2, and
        # past it by at most ||K12||_F.  The allowance covers the field's block eigensolves and this
        # test's dense one, n * u * ||K||_F each, and the rounding of the field's sum
        k = (w - w.conj().T) / 2j
        k1 = _realize(p, n)[0]
        off, rounding = float(np.linalg.norm(k[:k1, k1:])), 4 * n * u * float(np.linalg.norm(k))
        assert im_norm - rounding <= rep.im_norm <= im_norm + off + rounding
        assert rep.normality_residual >= normality * (1.0 - 16 * n * u * fro / top) - 4 * n * u * (fro / top) ** 2
        # with K = Im W and R = Re W - c, [W, W*] = 2i[K, R], so ||[W, W*]||_F <= 4 ||K||_2 ||R||_F: the
        # residual is that bound over floor^2, from the fields in the power-of-two frame f of the gaps and
        # the lower bounds ||K11||_2, ||K22||_2 and ||K12||_F / sqrt(n) of ||K||_2, which f scales exactly
        f = math.ldexp(1.0, math.frexp(max(abs(geom.gap_a), abs(geom.gap_b)))[1] - 1)
        a, b = geom.gap_a / f, geom.gap_b / f
        fre, fim, kf = rep.re_deviation / f / f, rep.im_norm / f / f, k / f / f
        blocks = [float(np.max(np.abs(np.linalg.eigvalsh(blk)))) for blk in (kf[:k1, :k1], kf[k1:, k1:]) if blk.size]
        floor = max(abs(0.25 * (a - b) * (a + b)) - fre, *blocks, off / f / f / math.sqrt(n))
        assert rep.normality_residual == (4.0 * (fim / floor) * (fre / floor) if floor > 0.0 else 0.0)
        if shift >= 1e-4:
            # a perturbed W is not normal: the residuals are well above roundoff
            assert rep.re_deviation > 1e-9 * geom.scale**2
            # except at n = 2, commuting with k1 = k2 = 1, where X~ = diag(z, -z): a perturbation E
            # moves W by X~E + EX~ + E^2, whose first-order part is diagonal, so W stays normal to first order
            if not (commuting and n == 2 and p.weight == q.weight == 0.5):
                assert rep.normality_residual > 1e-10

    @given(k=st.integers(min_value=-150, max_value=150))
    @example(k=-150)
    @example(k=150)
    @settings(max_examples=30, deadline=None)
    def test_fields_are_homogeneous_in_the_atom_scale(self, k):
        # scaling every atom location by 2^e scales X_n exactly, and the fields
        # follow bit for bit in the power-of-two frame; unscaled, W W* overflowed
        # from about e = 160 and the commutator underflowed to 0 at e = -300.  e is
        # even: the eigenvalue solver's shifts take square roots of entries, which
        # are exact only under a power of four
        e = 2 * k
        off_center = (TwoAtomLaw(0.3, -0.75, 1.25), TwoAtomLaw(0.55, 0.5, -0.375))
        for laws, n in (((P_LAW, Q_LAW), 40), (off_center, 33)):
            base = structure_report(assemble_model(ModelSpec(*laws, n=n, seed=7)))
            scaled = [TwoAtomLaw(law.weight, math.ldexp(law.loc, e), math.ldexp(law.loc_alt, e)) for law in laws]
            rep = structure_report(assemble_model(ModelSpec(*scaled, n=n, seed=7)))
            assert rep.re_deviation == math.ldexp(base.re_deviation, 2 * e)
            assert rep.im_norm == math.ldexp(base.im_norm, 2 * e)
            assert rep.support_deviation == math.ldexp(base.support_deviation, e)
            assert rep.normality_residual == base.normality_residual > 0.0

    def test_zero_denominator(self):
        # equal gaps make c = 0, so the denominator max(|c| - re_deviation, ||Im W||) is 0 whenever Im W is;
        # then K = Im W = 0, W = c + R is Hermitian, hence normal, and the bound 4 ||K||_2 ||R||_F is 0
        law = TwoAtomLaw(0.5, 0.0, 1.0)
        geom = make_geometry(law, law)
        base = assemble_model(ModelSpec(law, law, n=2, seed=0))
        center = geom.center * np.eye(2)
        # X~ nilpotent: W = X~^2 = 0, and the zero matrix is normal
        rep = structure_report(replace(base, x_matrix=center + np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert (rep.re_deviation, rep.im_norm, rep.normality_residual) == (0.0, 0.0, 0.0)
        # X~ Hermitian: W = [[5, 2], [2, 4]] is Hermitian, hence normal; ||W - 0||_F = sqrt(49)
        rep = structure_report(replace(base, x_matrix=center + np.array([[1.0, 2.0], [2.0, 0.0]])))
        assert rep.re_deviation == 7.0
        assert (rep.im_norm, rep.normality_residual) == (0.0, 0.0)


class TestReflection:
    @pytest.mark.parametrize("fixture", ["demo_realization", "small_realization"])
    def test_interior_spectrum_is_symmetric(self, request, fixture):
        # off the corners the spectrum of X~ = X - center is symmetric
        # under lambda -> -lambda: each generic 2x2 block of the two
        # projections has trace 0 once centered
        realization = request.getfixturevalue(fixture)
        geom = make_geometry(realization.realized_p_law, realization.realized_q_law)
        points = esd(realization).points
        corner_dist = np.min(np.abs(points[:, None] - np.array(geom.corners)[None, :]), axis=1)
        lam = points[corner_dist > 1e-9 * geom.scale] - geom.center
        assert lam.size > 0
        cost = np.abs(lam[:, None] + lam[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert np.max(cost[rows, cols]) <= 1e-8 * geom.scale


class TestFreeness:
    def test_commuting_word_value(self, commuting8):
        # diagonal model: the centered order-2 trace is computable by hand
        # from the atom counts
        assert freeness_diagnostic(commuting8, 2) == pytest.approx(0.0625, rel=1e-12)

    def test_haar_rotation_shrinks_words(self, demo_realization):
        for order in (2, 3, 4):
            assert freeness_diagnostic(demo_realization, order) <= 0.05

    def test_commuting_stays_large(self, commuting8):
        assert freeness_diagnostic(commuting8, 2) > 0.05

    def test_rejects_bad_order(self, demo_realization):
        with pytest.raises(ValueError):
            freeness_diagnostic(demo_realization, 5)
        with pytest.raises(ValueError):
            freeness_diagnostic(demo_realization, 1)
        # 4.0 is in (2, 3, 4) by ==, yet range() refuses it
        with pytest.raises(ValueError, match="order must be 2, 3 or 4"):
            freeness_diagnostic(demo_realization, 4.0)
