"""Sampling layer: Haar unitaries, realized two-atom laws, model assembly."""

from __future__ import annotations

import ast
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.stats import ks_2samp

from projsum import (
    InvalidDimensionError,
    ModelSpec,
    TwoAtomLaw,
    assemble_model,
    atom_weights,
    esd,
    sample_haar_unitary,
    substream_rng,
    two_projection_eigenvalues,
)
from projsum import model
from tests.conftest import P_LAW, Q_LAW, commuting_model

STREAMS = ("HAAR_Q", "GRID", "CHECK_Z", "CONVERGE")
# ids of streams that are gone (0 drew U's columns up to 0.18.0); no live stream may reuse one
RETIRED_STREAM_IDS = (0, 4)


def _seed_diagonal(law: TwoAtomLaw, n: int) -> np.ndarray:
    """Diagonal of the seed P' = loc*I + gap*E_k that U P' U* rotates: loc + gap
    (loc_alt up to rounding) on the first k entries, loc on the rest."""
    k = model._realize(law, n)[0]
    return law.loc + law.gap * (np.arange(n) < k)


def _drawn_side_diagonal(law: TwoAtomLaw, n: int) -> np.ndarray:
    """Diagonal of the Q'' that V Q'' V* rotates, V the full HAAR_Q unitary whose
    leading columns the model draws: the seed diagonal when 2k <= n, and else loc
    (loc_alt - gap up to rounding) on the leading n - k entries, whose span is ker Pi2."""
    k = model._realize(law, n)[0]
    if 2 * k <= n:
        return _seed_diagonal(law, n)
    return law.loc_alt - law.gap * (np.arange(n) < n - k)


def _unitarity_defect(u: np.ndarray) -> float:
    n = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


class TestHaarUnitary:
    def test_matches_full_qr_of_the_ginibre_draw(self):
        for n in (1, 7, 64):
            # column by column, each entry a (real, imaginary) pair of normals
            normals = substream_rng(5, n).standard_normal(2 * n * n)
            g = np.empty((n, n), dtype=np.complex128)
            g.real = normals[0::2].reshape(n, n).T / math.sqrt(2.0)
            g.imag = normals[1::2].reshape(n, n).T / math.sqrt(2.0)
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            assert np.array_equal(sample_haar_unitary(n, substream_rng(5, n)), q * (d / np.abs(d)))

    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (7, 3), (64, 1), (64, 40), (64, 64)])
    def test_column_draw_is_a_prefix_of_the_square_draw(self, n, k):
        rng = substream_rng(6, n, k)
        g = model._ginibre_columns(rng, n, k)
        assert g.shape == (n, k)
        assert np.array_equal(g, model._ginibre_columns(substream_rng(6, n, k), n, n)[:, :k])
        # exactly 2nk normals consumed: the generator is where 2nk plain draws leave it
        ref = substream_rng(6, n, k)
        ref.standard_normal(2 * n * k)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_unitary_within_tolerance(self):
        for n in (1, 2, 5, 40, 300):
            u = sample_haar_unitary(n, substream_rng(123, n))
            assert u.shape == (n, n)
            assert u.dtype == np.complex128
            assert _unitarity_defect(u) <= 1e-12 * math.sqrt(n)

    def test_n1_is_unit_modulus_scalar(self):
        u = sample_haar_unitary(1, np.random.default_rng(5))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_rejects_nonpositive_dimension(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidDimensionError):
            sample_haar_unitary(0, rng)
        with pytest.raises(InvalidDimensionError):
            sample_haar_unitary(-3, rng)

    def test_trace_statistics_match_haar(self):
        # For Haar U(n), E tr U = 0 and E |tr U|^2 = 1.  With 2000
        # samples the mean estimate has std 1/sqrt(2000) ~ 0.022.
        rng = np.random.default_rng(2024)
        n, reps = 20, 2000
        traces = np.array([np.trace(sample_haar_unitary(n, rng)) for _ in range(reps)])
        assert abs(traces.mean()) <= 4.0 / math.sqrt(reps)
        assert 0.8 <= np.mean(np.abs(traces) ** 2) <= 1.25

    def test_left_translation_invariance(self):
        # W U has the same distribution as U for any fixed unitary W;
        # compare trace statistics of the two ensembles.
        n, reps = 20, 1500
        w = sample_haar_unitary(n, np.random.default_rng(99))
        rng = np.random.default_rng(1000)
        t_plain = np.array(
            [np.trace(sample_haar_unitary(n, rng)) for _ in range(reps)]
        )
        t_mixed = np.array(
            [np.trace(w @ sample_haar_unitary(n, rng)) for _ in range(reps)]
        )
        sigma = math.sqrt(2.0 / reps)
        assert abs(t_plain.mean() - t_mixed.mean()) <= 4.0 * sigma
        r = np.mean(np.abs(t_mixed) ** 2) / np.mean(np.abs(t_plain) ** 2)
        assert 0.7 <= r <= 1.4


class TestTwoAtomLaw:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoAtomLaw(weight=1.5, loc=0.0, loc_alt=1.0)
        with pytest.raises(ValueError):
            TwoAtomLaw(weight=-0.1, loc=0.0, loc_alt=1.0)
        with pytest.raises(ValueError):
            TwoAtomLaw(weight=0.5, loc=math.nan, loc_alt=1.0)
        with pytest.raises(ValueError):
            TwoAtomLaw(weight=0.5, loc=0.0, loc_alt=math.inf)

    def test_derived_quantities(self):
        law = TwoAtomLaw(weight=5 / 8, loc=0.0, loc_alt=1.0)
        assert law.gap == 1.0
        assert TwoAtomLaw(weight=0.5, loc=0.3, loc_alt=0.3).gap == 0.0


class TestBuildTwoAtomHermitian:
    """The discretization of a law at dimension n: rank k of Pi and the realized law."""

    def test_demo_law_diagonal_counts(self):
        k, realized = model._realize(P_LAW, 8)
        # round(8 * 3/8) = 3 leading alt entries
        assert k == 3
        assert realized.weight == 5 / 8
        r = commuting_model(ModelSpec(P_LAW, P_LAW, n=8, seed=0))
        assert np.array_equal(np.diag(r.p_matrix), np.array([1, 1, 1, 0, 0, 0, 0, 0.0]))

    def test_round_half_even_tie(self):
        # n * (1 - w) = 1.5 rounds to 2 under banker's rounding
        law = TwoAtomLaw(0.5, -1.0, 1.0)
        k, realized = model._realize(law, 3)
        assert k == 2
        assert realized.weight == pytest.approx(1 / 3)
        r = commuting_model(ModelSpec(law, law, n=3, seed=0))
        assert np.array_equal(np.diag(r.p_matrix), np.array([1.0, 1.0, -1.0]))

    def test_degenerate_weights(self):
        k, realized = model._realize(TwoAtomLaw(1.0, 0.3, 9.0), 4)
        assert k == 0
        assert realized.weight == 1.0
        k, realized = model._realize(TwoAtomLaw(0.0, 0.3, 9.0), 4)
        assert k == 4
        assert realized.weight == 0.0

    @given(
        w=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_realized_weight_within_half_spacing(self, w: float, n: int):
        k, realized = model._realize(TwoAtomLaw(w, 0.0, 1.0), n)
        assert 0 <= k <= n
        assert realized.weight == (n - k) / n
        assert abs(realized.weight - w) <= 0.5 / n + 1e-12
        assert realized.loc == 0.0 and realized.loc_alt == 1.0


class TestAssembleModel:
    def test_matrices_are_exact_combination(self, small_realization):
        r = small_realization
        assert np.array_equal(r.x_matrix, r.p_matrix + 1j * r.q_matrix)

    def test_hermitian_and_readonly(self, small_realization):
        r = small_realization
        assert np.array_equal(r.p_matrix, r.p_matrix.conj().T)
        assert np.array_equal(r.q_matrix, r.q_matrix.conj().T)
        for arr in (r.p_matrix, r.q_matrix, r.x_matrix):
            assert not arr.flags.writeable

    def test_spectra_preserved_by_rotation(self, small_realization):
        r = small_realization
        scale = max(1.0, abs(P_LAW.loc), abs(P_LAW.loc_alt))
        vals = np.linalg.eigvalsh(r.p_matrix)
        target = np.sort(_seed_diagonal(P_LAW, r.n))
        assert np.max(np.abs(vals - target)) <= 1e-10 * scale
        vals_q = np.linalg.eigvalsh(r.q_matrix)
        target_q = np.sort(_seed_diagonal(Q_LAW, r.n))
        assert np.max(np.abs(vals_q - target_q)) <= 1e-10

    def test_realized_laws_recorded(self, small_realization):
        r = small_realization
        # n=64: round(64 * 3/8) = 24 alt entries for p, round(64/8) = 8 for q
        assert r.realized_p_law.weight == 40 / 64
        assert r.realized_q_law.weight == 56 / 64

    def test_seed_determinism(self, demo_laws):
        p, q = demo_laws
        spec = ModelSpec(p, q, n=50, seed=314)
        a = assemble_model(spec)
        b = assemble_model(spec)
        assert a.x_matrix.tobytes() == b.x_matrix.tobytes()
        c = assemble_model(ModelSpec(p, q, n=50, seed=315))
        assert a.x_matrix.tobytes() != c.x_matrix.tobytes()

    def test_commuting_variant_is_diagonal(self, demo_laws):
        p, q = demo_laws
        r = commuting_model(ModelSpec(p, q, n=8, seed=1))
        assert np.array_equal(r.p_matrix, np.diag(np.diag(r.p_matrix)))
        assert np.array_equal(r.q_matrix, np.diag(np.diag(r.q_matrix)))
        comm = r.p_matrix @ r.q_matrix - r.q_matrix @ r.p_matrix
        assert np.max(np.abs(comm)) == 0.0

    def test_commuting_gaps_near_the_float_limit(self):
        # the Hermitian symmetrization summed entries of 1e308 before halving them:
        # inf entries, overflow warnings and an eigensolver failure
        spec = ModelSpec(TwoAtomLaw(0.625, 0.0, 1e308), TwoAtomLaw(0.875, 0.0, 8e307), n=16, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = esd(commuting_model(spec)).points
        assert len(points) == 16 and np.all(np.isfinite(points))

    def test_rejects_bad_spec(self, demo_laws):
        p, q = demo_laws
        with pytest.raises(InvalidDimensionError):
            ModelSpec(p, q, n=0, seed=1)
        with pytest.raises(ValueError):
            ModelSpec(p, q, n=10, seed=-1)


class TestSubstreamTable:
    def test_stream_ids_are_pairwise_distinct_ints(self):
        ids = [getattr(model, name) for name in STREAMS]
        assert all(type(i) is int for i in ids)
        assert len(set(ids)) == len(STREAMS)
        assert set(ids).isdisjoint(RETIRED_STREAM_IDS)
        assert not hasattr(model, "HAAR_P")

    def test_every_key_in_src_starts_with_a_stream_id(self):
        # a key that does not lead with a table entry, or two call sites
        # sharing one, could collide with another consumer's substream
        key_at = {"substream_seed": 1, "substream_rng": 1, "pooled_eigenvalues": 2}
        used = []
        forwarded = []
        for path in Path(model.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # pooled_eigenvalues passes its callers' keys on as *key; those call sites are checked below
            helper = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "pooled_eigenvalues"]
            inside = {id(node) for f in helper for node in ast.walk(f)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in key_at:
                    continue
                assert len(node.args) > key_at[name], f"{path.name}:{node.lineno} has no key"
                first = node.args[key_at[name]]
                if id(node) in inside and isinstance(first, ast.Starred):
                    assert ast.unparse(first) == "*key"
                    forwarded.append(name)
                    continue
                assert isinstance(first, ast.Name) and first.id in STREAMS, (
                    f"{path.name}:{node.lineno} key does not start with a stream id"
                )
                used.append(first.id)
        assert sorted(used) == sorted(STREAMS)
        assert forwarded == ["substream_seed"]


def _law(weight: float, loc: float, gap: float, magnitude: float) -> TwoAtomLaw:
    return TwoAtomLaw(weight, magnitude * loc, magnitude * (loc + gap))


# weights include 0 and 1; a zero gap is a one-atom law; either gap sign and
# either gap larger; magnitude 1e3 pushes the atoms far from the origin
_LAWS = st.builds(
    _law,
    weight=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    loc=st.floats(-4.0, 4.0),
    gap=st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25)),
    magnitude=st.sampled_from([1.0, 1e3]),
)


class TestHaarConjugationReference:
    @given(
        p_law=_LAWS,
        q_law=_LAWS,
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(p_law=TwoAtomLaw(0.5, 0.0, 1.0), q_law=TwoAtomLaw(0.5, 1e3, -1e3), n=7, seed=5)
    @example(p_law=TwoAtomLaw(0.01, 0.0, 1.0), q_law=TwoAtomLaw(0.02, 0.0, -0.8), n=64, seed=6)  # k near n
    @example(p_law=TwoAtomLaw(0.005, 1e3, 0.0), q_law=TwoAtomLaw(0.0, 0.0, 0.8), n=400, seed=7)
    @settings(max_examples=100, deadline=None)
    def test_matches_conjugated_diagonal_seeds(self, p_law, q_law, n, seed):
        # the realization is taken in P_n's eigenbasis, so P_n is its seed P'
        # itself; Q_n is V Q'' V* with the full Haar unitary of the HAAR_Q
        # substream, of which assemble_model draws only the leading min(k2, n - k2) columns
        r = assemble_model(ModelSpec(p_law, q_law, n=n, seed=seed))
        assert np.array_equal(r.p_matrix, np.diag(_seed_diagonal(p_law, n)))
        v = sample_haar_unitary(n, substream_rng(seed, model.HAAR_Q))
        reference = (v * _drawn_side_diagonal(q_law, n)) @ v.conj().T
        scale = max(1.0, abs(q_law.loc), abs(q_law.loc_alt))
        assert np.max(np.abs(r.q_matrix - reference)) <= 1e-12 * scale


def _assert_matched(got: np.ndarray, want: np.ndarray, tol: float) -> None:
    """The two point sets agree as multisets within ``tol``, matched by ``linear_sum_assignment``."""
    assert got.shape == want.shape
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= tol


def _assert_kernel_matches_dense(spec: ModelSpec) -> None:
    kernel = two_projection_eigenvalues(spec)
    dense = np.linalg.eigvals(assemble_model(spec).x_matrix)
    laws = (spec.p_law, spec.q_law)
    scale = max(1.0, *(abs(x) for law in laws for x in (law.loc, law.loc_alt)))
    assert kernel.shape == (spec.n,)
    _assert_matched(kernel, dense, 1e-12 * scale)
    if spec.p_law.gap == 0.0 or spec.q_law.gap == 0.0:
        return  # coinciding corners: the parallelogram law does not apply
    (k1, p_law), (k2, q_law) = (model._realize(law, spec.n) for law in laws)
    # ran int ran is written as the exact atom A + iB, never as a block root
    atom = complex(p_law.loc, q_law.loc) + complex(p_law.gap, q_law.gap)
    assert int(np.sum(kernel == atom)) == max(0, k1 + k2 - spec.n)
    corners = (
        complex(p_law.loc, q_law.loc),
        complex(p_law.loc, q_law.loc_alt),
        complex(p_law.loc_alt, q_law.loc),
        complex(p_law.loc_alt, q_law.loc_alt),
    )
    for corner, weight in zip(corners, atom_weights(p_law.weight, q_law.weight).corner_weights):
        count = int(np.sum(np.abs(kernel - corner) <= 1e-10 * scale))
        assert abs(weight * spec.n - round(weight * spec.n)) <= 1e-9
        assert count == round(weight * spec.n)


class TestTwoProjectionEigenvalues:
    @given(
        p_law=_LAWS,
        q_law=_LAWS,
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(p_law=TwoAtomLaw(0.2, 0.0, 1.0), q_law=TwoAtomLaw(0.3, 0.0, -2.0), n=10, seed=1)  # k1 + k2 > n
    @example(p_law=TwoAtomLaw(0.0, 0.0, 1.0), q_law=TwoAtomLaw(1.0, 0.0, 0.8), n=5, seed=2)
    @example(p_law=TwoAtomLaw(0.5, 0.3, 0.3), q_law=TwoAtomLaw(0.5, 0.3, 0.3), n=6, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_eigvals(self, p_law, q_law, n, seed):
        _assert_kernel_matches_dense(ModelSpec(p_law, q_law, n=n, seed=seed))

    def test_matches_dense_eigvals_at_n_400(self):
        _assert_kernel_matches_dense(ModelSpec(P_LAW, TwoAtomLaw(0.3, 0.8, 0.0), n=400, seed=400))

    @pytest.mark.parametrize("weight,n", [(0.005, 400), (0.01, 400), (0.0, 800)])
    def test_matches_dense_eigvals_with_nearly_full_ranges(self, weight, n):
        # k1 = k2 close to n: the triangular factor of k2 columns would be ill
        # conditioned (2.9e-11 off at n = 800 through R alone), so both sides are read on their kernels
        spec = ModelSpec(TwoAtomLaw(weight, 0.0, 1.0), TwoAtomLaw(weight, 0.0, 0.8), n=n, seed=n + 1)
        _assert_kernel_matches_dense(spec)

    @pytest.mark.parametrize("n", [*range(2, 65, 2), 200])
    def test_gram_cholesky_cosines_match_thin_q(self, n, monkeypatch):
        # k1 = k2 = n/2, the worst conditioned case the Cholesky route takes:
        # the cosines the kernel's SVD returns against sv(Q2[:k1]) of thin Q
        spec = ModelSpec(TwoAtomLaw(0.5, 0.0, 1.0), TwoAtomLaw(0.5, 0.0, 0.8), n=n, seed=n)
        g2 = model._q_frame(spec)[0]
        assert g2.shape == (n, n // 2)
        svd, recorded = np.linalg.svd, []

        def recording_svd(*args, **kwargs):
            recorded.append(svd(*args, **kwargs))
            return recorded[-1]

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        two_projection_eigenvalues(spec)
        monkeypatch.undo()
        reference = np.linalg.svd(np.linalg.qr(g2)[0][: n // 2], compute_uv=False)
        assert len(recorded) == 1
        assert np.max(np.abs(recorded[0] - reference)) <= 1e-13

    @pytest.mark.parametrize("p_weight,q_weight", [(1.0, 6 / 7), (6 / 7, 6 / 7), (1.0, 1.0), (6 / 7, 1.0)])
    def test_empty_and_single_column_ranges_are_silent(self, p_weight, q_weight, capfd):
        # k = 0 (weight 1) and k = 1 at n = 7: a Gram product through BLAS
        # zherk would print an "illegal value" message at k = 0 (OpenBLAS
        # writes it to stdout, so both streams are checked)
        spec = ModelSpec(TwoAtomLaw(p_weight, 0.0, 1.0), TwoAtomLaw(q_weight, 0.0, 0.8), n=7, seed=9)
        _assert_kernel_matches_dense(spec)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("k", [-600, 0, 600])
    def test_scaled_laws_scale_the_roots_bit_for_bit(self, k):
        # the blocks are solved in a power-of-two frame, so scaling both laws by
        # 2^k scales every root by 2^k exactly; unscaled, gaps near 1e180 gave NaN
        laws = (TwoAtomLaw(0.625, -0.3, 1.1), TwoAtomLaw(0.875, 0.2, -0.7))
        scaled = (TwoAtomLaw(w.weight, math.ldexp(w.loc, k), math.ldexp(w.loc_alt, k)) for w in laws)
        base = two_projection_eigenvalues(ModelSpec(*laws, n=64, seed=13))
        got = two_projection_eigenvalues(ModelSpec(*scaled, n=64, seed=13))
        want = np.ldexp(base.real, k) + 1j * np.ldexp(base.imag, k)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_matches_dense_eigvals_at_extreme_gaps(self, scale):
        spec = ModelSpec(TwoAtomLaw(0.625, 0.3 * scale, scale), TwoAtomLaw(0.875, 0.0, -0.8 * scale), n=40, seed=14)
        kernel = two_projection_eigenvalues(spec)
        _assert_matched(kernel, np.linalg.eigvals(assemble_model(spec).x_matrix), 1e-12 * scale)

    # (P side, Q side) at n = 400: ran/ran (the demo laws, k1 = 150, k2 = 50), ker/ker,
    # ker/ran and ran/ker; every layout takes R from the Gram matrix of at most n/2 columns
    @pytest.mark.parametrize("a,b", [(5 / 8, 7 / 8), (0.25, 0.125), (0.25, 0.875), (0.75, 0.125)])
    def test_kernel_takes_no_qr_at_any_layout(self, a, b, monkeypatch):
        spec = ModelSpec(TwoAtomLaw(a, 0.0, 1.0), TwoAtomLaw(b, 0.0, 0.8), n=400, seed=400)
        qr, calls = np.linalg.qr, []

        def recording_qr(*args, **kwargs):
            calls.append(kwargs.get("mode", "reduced"))
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        eigenvalues = two_projection_eigenvalues(spec)
        assert eigenvalues.shape == (400,)
        assert calls == []


def _spec_of_ranks(n: int, k1: int, k2: int, seed: int = 3) -> ModelSpec:
    return ModelSpec(TwoAtomLaw((n - k1) / n, 0.3, 1.1), TwoAtomLaw((n - k2) / n, -0.4, -1.6), n=n, seed=seed)


@st.composite
def _edge_rank_specs(draw):
    """Specs at n 1..24 whose ranks favour the edges of the angle layout:
    k in {0, 1, n - 1, n}, k1 = k2 and k1 + k2 = n."""
    n = draw(st.integers(min_value=1, max_value=24))
    edge = st.sampled_from([0, 1, n - 1, n])
    k1 = draw(st.one_of(edge, st.integers(min_value=0, max_value=n)))
    k2 = draw(st.one_of(edge, st.just(k1), st.just(n - k1), st.integers(min_value=0, max_value=n)))
    return _spec_of_ranks(n, k1, k2, draw(st.integers(min_value=0, max_value=2**64 - 1)))


class TestAngleSpectrum:
    @given(spec=_edge_rank_specs(), commuting=st.booleans())
    # (P side, Q side) read on (ran, ran), (ker, ker), (ran, ker) and (ker, ran)
    @example(spec=_spec_of_ranks(16, 5, 3), commuting=False)
    @example(spec=_spec_of_ranks(16, 12, 14), commuting=False)  # k1 + k2 > n, k1 < k2
    @example(spec=_spec_of_ranks(16, 5, 12), commuting=False)
    @example(spec=_spec_of_ranks(16, 11, 6), commuting=False)
    @example(spec=_spec_of_ranks(16, 8, 8), commuting=False)  # k1 = k2 = n/2: no excess
    @example(spec=_spec_of_ranks(16, 0, 16), commuting=False)
    @example(spec=_spec_of_ranks(1, 1, 1), commuting=False)
    @example(spec=_spec_of_ranks(12, 9, 5), commuting=True)
    @settings(max_examples=150, deadline=None)
    def test_kernel_and_dense_producers_agree(self, spec, commuting):
        realization = (commuting_model if commuting else assemble_model)(spec)
        dense = model._projection_spectra(realization).angles
        n, k1, k2 = dense.n, dense.k1, dense.k2
        counts = dense.intersection_dims()
        if commuting:
            # diagonal projections onto the leading k1 and k2 coordinates
            assert counts == (n - max(k1, k2), max(0, k2 - k1), max(0, k1 - k2), min(k1, k2))
            # Pi_q onto the trailing k2 coordinates instead: every block angle is pi/2
            q = realization.q_matrix[::-1, ::-1]
            flipped = replace(realization, q_matrix=q, x_matrix=realization.p_matrix + 1j * q)
            crossed = model._projection_spectra(flipped)
            expected = (max(0, n - k1 - k2), min(k2, n - k1), min(k1, n - k2), max(0, k1 + k2 - n))
            assert crossed.angles.intersection_dims() == expected
            return
        kernel = model._kernel_angles(spec)
        assert (kernel.n, kernel.k1, kernel.k2) == (n, k1, k2)
        m = min(k1, k2, n - k1, n - k2)
        assert dense.c.shape == dense.s.shape == (m,)
        # a same-side frame measures the cosines, a mixed one the sines, and not the other
        same_side = (2 * k1 <= n) == (2 * k2 <= n)
        measured, unmeasured = (kernel.c, kernel.s) if same_side else (kernel.s, kernel.c)
        assert unmeasured is None
        assert measured.shape == (m,)
        assert np.max(np.abs(measured - (dense.c if same_side else dense.s)), initial=0.0) <= 1e-13
        # the count reads whichever field a producer measured
        assert kernel.intersection_dims() == counts

    def test_excess_is_the_parallelogram_law(self):
        # the excess over n is the limit's corner weight, so a subspace mass, the excess
        # plus a block count over n, is at least that weight, and check need not compare it
        u = np.finfo(np.float64).eps / 2
        for n in range(1, 65):
            for k1 in range(n + 1):
                for k2 in range(n + 1):
                    excess = model._AngleSpectrum(n, k1, k2, None).excess()
                    weights = atom_weights((n - k1) / n, (n - k2) / n).corner_weights
                    for e, w in zip(excess, weights):
                        assert abs(e / n - w) <= 4 * u, (n, k1, k2)

    @given(
        p_law=_LAWS.filter(lambda law: law.gap != 0.0),
        q_law=_LAWS.filter(lambda law: law.gap != 0.0),
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    # the nearly full ranges of TestTwoProjectionEigenvalues, k1 = k2 close to n
    @example(p_law=TwoAtomLaw(0.005, 0.0, 1.0), q_law=TwoAtomLaw(0.005, 0.0, 0.8), n=400, seed=401)
    @example(p_law=TwoAtomLaw(0.01, 0.0, 1.0), q_law=TwoAtomLaw(0.01, 0.0, 0.8), n=400, seed=401)
    @example(p_law=TwoAtomLaw(0.0, 0.0, 1.0), q_law=TwoAtomLaw(0.0, 0.0, 0.8), n=800, seed=801)
    @settings(max_examples=100, deadline=None)
    def test_dense_core_roots_match_the_dense_eigenvalues(self, p_law, q_law, n, seed):
        # the dense producer's angles, through the root map, against eigvals of the same X_n
        r = assemble_model(ModelSpec(p_law, q_law, n=n, seed=seed))
        roots = model._angle_roots(r._dense_spectra.angles, r.realized_p_law, r.realized_q_law)
        scale = max(1.0, *(abs(x) for law in (p_law, q_law) for x in (law.loc, law.loc_alt)))
        _assert_matched(roots, esd(r).points, 1e-12 * scale)


def _two_draw_kernel_angles(spec: ModelSpec) -> model._AngleSpectrum:
    """The two-draw kernel producer of projsum 0.18.0, kept as a reference only.

    Both sides Haar-rotated: Q1 and Q2 the thin Q factors of the leading k1
    and k2 Ginibre columns on the retired stream 0 and on HAAR_Q.  The
    singular values of Q1* Q2 are the (k1 + k2 - n)+ cosines of ran int ran,
    1 up to rounding, then the m block cosines, which are returned.
    """
    n = spec.n
    k1, k2 = (model._realize(law, n)[0] for law in (spec.p_law, spec.q_law))
    q1, q2 = (np.linalg.qr(model._ginibre_columns(substream_rng(spec.seed, key), n, k))[0]
              for key, k in ((0, k1), (model.HAAR_Q, k2)))
    cosines = np.linalg.svd(q1.conj().T @ q2, compute_uv=False)
    return model._AngleSpectrum(n, k1, k2, cosines[max(0, k1 + k2 - n) :])


class TestOneDrawLaw:
    @pytest.mark.parametrize("n", [400, 800])
    # (P side, Q side) read on (ran, ran), (ker, ker), (ker, ker) and (ker, ran)
    @pytest.mark.parametrize("a,b", [(5 / 8, 7 / 8), (0.3, 0.45), (0.25, 0.125), (0.25, 0.875)])
    def test_block_angles_match_the_two_draw_kernel(self, a, b, n):
        # by unitary invariance Pi_p = E_k1 against one Haar-rotated Pi_q, each
        # read on its smaller side, has the angle law of two independently
        # rotated projections.  Where the kernel's frame is mixed it measures
        # the sines, and the reference's 1 - c^2 stands for s^2.
        laws = (TwoAtomLaw(a, 0.0, 1.0), TwoAtomLaw(b, 0.0, 0.8))
        k1, k2 = (model._realize(law, n)[0] for law in laws)
        mixed = (2 * k1 <= n) != (2 * k2 <= n)
        new, old, counts, old_counts = [], [], set(), set()
        for i in range(8):
            kernel = model._kernel_angles(ModelSpec(*laws, n=n, seed=i))
            reference = _two_draw_kernel_angles(ModelSpec(*laws, n=n, seed=100 + i))
            counts.add(kernel.intersection_dims())
            old_counts.add(reference.intersection_dims())
            new.append(kernel.s**2 if mixed else kernel.c**2)
            old.append(1.0 - reference.c**2 if mixed else reference.c**2)
        assert counts == old_counts == {reference.excess()}
        assert ks_2samp(np.concatenate(new), np.concatenate(old), method="asymp").pvalue >= 0.01
