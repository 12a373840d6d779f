"""Random matrix model: sums of independently Haar-rotated two-atom Hermitian matrices.

The model is X_n = P_n + i*Q_n where P_n = U P' U* = alpha + A*Pi1 and Q_n = V Q' V*
= beta + B*Pi2: P', Q' are diagonal with two-atom spectra, U, V independent Haar
unitaries, and Pi1, Pi2 the projections onto the leading k1 columns of U and k2 of V.

Realizations are taken in P_n's eigenbasis.  Conjugation by U* maps
(P_n, Q_n) to (P', W Q' W*) with W = U* V, and W is Haar distributed, since
V is Haar and independent of U.  A unitary conjugation changes neither the
spectrum of X_n nor any other unitarily invariant statistic (the singular
values of z - X_n, log|det(z - X_n)|, the principal angles between the
ranges), so these have the same law when P_n = alpha + A*E_k1, with E_k1 the
projection onto the first k1 coordinates.  Only V is drawn.

Every constructor here is a pure function of (law parameters, dimension, seed),
so realizations reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "UsageError",
    "InvalidDimensionError",
    "TwoAtomLaw",
    "ModelSpec",
    "ModelRealization",
    "sample_haar_unitary",
    "assemble_model",
    "two_projection_eigenvalues",
    "pooled_eigenvalues",
    "substream_rng",
    "substream_seed",
]

# Substream table: every spawn key derived from a seed starts with its owner's id.
# ids 0 and 4 are retired: their streams are gone, and no new stream may take the ids
HAAR_Q = 1  # the smaller of ran Pi2 and ker Pi2, in _q_frame (assemble_model, the kernel): (HAAR_Q,)
GRID = 2  # sample_potential_grid, sample i: (GRID, i) via pooled_eigenvalues
CHECK_Z = 3  # the random z points of `projsum check`: (CHECK_Z,)
CONVERGE = 5  # convergence_run, dimension n, sample i: (CONVERGE, n, i) via pooled_eigenvalues


class UsageError(ValueError):
    """Raised for bad input: a flag, a manifest or an input file."""


class InvalidDimensionError(UsageError):
    """Raised when a matrix dimension is not a positive integer."""


@dataclass(frozen=True)
class TwoAtomLaw:
    """The probability law weight*delta_loc + (1 - weight)*delta_loc_alt on the reals.

    Parameters
    ----------
    weight : float
        Mass of the atom at ``loc``; must lie in [0, 1].
    loc, loc_alt : float
        Atom positions, finite and with a finite gap.  At most two atoms:
        a weight of 0 or 1 leaves one, and the locations may coincide,
        which ``geometry.make_geometry`` refuses.
    """

    weight: float
    loc: float
    loc_alt: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and 0.0 <= self.weight <= 1.0):
            raise UsageError(f"weight must lie in [0, 1], got {self.weight!r}")
        if not (math.isfinite(self.loc) and math.isfinite(self.loc_alt)):
            raise UsageError("atom locations must be finite")
        if not math.isfinite(self.gap):
            raise UsageError(f"atom gap must be finite, got {self.loc!r} to {self.loc_alt!r}")

    @property
    def gap(self) -> float:
        """Signed atom gap loc_alt - loc."""
        return self.loc_alt - self.loc


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one model draw: laws for p and q, dimension, seed."""

    p_law: TwoAtomLaw
    q_law: TwoAtomLaw
    n: int
    seed: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise InvalidDimensionError(f"dimension must be a positive integer, got {self.n!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise UsageError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class ModelRealization:
    """One sampled X_n = P_n + i*Q_n together with the discretized laws.

    Only X_n is stored.  Every square matrix is one Hermitian matrix plus i
    times another in exactly one way, so ``p_matrix`` and ``q_matrix`` are
    X_n's Hermitian and skew-Hermitian parts, computed on each access.  The
    matrices are read-only; share them freely across threads.  The
    realized laws carry the weights k/n actually used at dimension n, which
    downstream exact checks must use instead of the requested weights.

    A realization takes its dense spectra once: ``_eigenvalues`` and
    ``_dense_spectra`` fill lazily on first access and are reused after.
    The cache holds no n x n matrix: n eigenvalues, the angle core and eps.
    Two threads that reach one first at the same time compute the same
    values twice.  ``dataclasses.replace`` starts with an empty cache, so a
    perturbed copy never sees the statistics of the matrix it came from.
    """

    x_matrix: np.ndarray
    realized_p_law: TwoAtomLaw
    realized_q_law: TwoAtomLaw

    @property
    def n(self) -> int:
        return self.x_matrix.shape[0]

    @property
    def p_matrix(self) -> np.ndarray:
        """P_n = (X_n + X_n*)/2, read-only."""
        x, xh = self.x_matrix, self.x_matrix.conj().T
        return _finite_part(lambda: (x + xh) * 0.5, lambda: x * 0.5 + xh * 0.5)

    @property
    def q_matrix(self) -> np.ndarray:
        """Q_n = (X_n* - X_n)/2i, read-only; (X_n - X_n*) * -0.5j leaves -0.0 in Im of the diagonal."""
        x, xh = self.x_matrix, self.x_matrix.conj().T
        return _finite_part(lambda: (xh - x) * 0.5j, lambda: xh * 0.5j - x * 0.5j)

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """Read-only ``np.linalg.eigvals`` of X_n; ``spectra.esd`` reports its failure."""
        return _read_only(np.linalg.eigvals(self.x_matrix))

    @cached_property
    def _dense_spectra(self) -> _ProjectionSpectra:
        """``_projection_spectra`` of this realization."""
        return _projection_spectra(self)


def substream_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, key) substream, independent across keys."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def substream_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit child seed from (seed, key); stable across runs."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _ginibre_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Leading k columns of an n x n standard complex Ginibre matrix drawn from ``rng``.

    The matrix is drawn column by column, each entry as a (real, imaginary)
    pair of normals scaled by 1/sqrt(2).  So the k-column draw consumes 2nk
    normals and equals the leading k columns of the n-column draw bit for
    bit.
    """
    g = rng.standard_normal((k, n, 2))
    g /= math.sqrt(2.0)
    return g.view(np.complex128)[..., 0].T


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n x n unitary matrix from Haar measure on U(n).

    A standard complex Ginibre matrix, drawn column by column (the leading k
    columns take the first 2nk normals of ``rng``), is orthonormalized by
    QR, then each column of Q is multiplied by the phase of the matching
    diagonal entry of R.  This makes the factorization G = (Q Lambda)(Lambda*
    R) the unique one with positive triangular diagonal, and the orthogonal
    factor of that unique factorization is exactly Haar distributed; raw QR
    output is not.

    ``assemble_model`` draws only the leading min(k2, n - k2) columns; its
    tests rebuild Q_n from this full V as the reference.

    Parameters
    ----------
    n : int
        Dimension, at least 1.
    rng : numpy.random.Generator
        Source of randomness; 2n^2 normals are consumed.

    Returns
    -------
    numpy.ndarray
        Unitary matrix with ||U*U - I||_max <= 1e-12 * sqrt(n).
    """
    if type(n) is not int or n < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {n!r}")
    q, r = np.linalg.qr(_ginibre_columns(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _q_frame(spec: ModelSpec) -> tuple[np.ndarray, TwoAtomLaw]:
    """The leading q = min(k2, n - k2) HAAR_Q Ginibre columns and the law of Q_n on their range:
    ran Pi2 and the realized law when 2k2 <= n, else ker Pi2 (Haar distributed
    too) and that law with loc and loc_alt swapped, Q_n = loc_alt*I - gap*Vc Vc*."""
    k2, law = _realize(spec.q_law, spec.n)
    if 2 * k2 > spec.n:
        k2, law = spec.n - k2, TwoAtomLaw(k2 / spec.n, law.loc_alt, law.loc)
    return _ginibre_columns(substream_rng(spec.seed, HAAR_Q), spec.n, k2), law


def _range_factors(g: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor R of the Gram matrix g* g: g R^-1 is an orthonormal basis of ran g.

    About half the flops of a Householder QR, whose triangular factor R
    equals up to column phases, but with error u*kappa(g)^2, not u*kappa(g):
    ``_q_frame`` draws k <= n/2 columns, where the n x k Ginibre matrix is
    well conditioned (P(sigma_min < eps) ~ eps^(2(n - k + 1))).  BLAS zherk
    would reject k = 0 with an "illegal value" message on the console.
    """
    from scipy.linalg import cholesky

    return cholesky(g.conj().T @ g, lower=False, check_finite=False)


def _frame(x):
    """The largest power of two <= x, elementwise (1/2 at 0).  Every closed form that squares
    a gap divides by it: exact, and the quotient squares into [1, 4) without over- or underflow."""
    return np.ldexp(1.0, np.frexp(x)[1] - 1)


def _divide(x: np.ndarray, d: float) -> np.ndarray:
    """The complex array x over the real d, for a subnormal d too; where the quotient does not
    underflow, rounded as ``x / d`` rounds it.

    NumPy divides a complex array by a real through the real's reciprocal,
    and the reciprocal of a subnormal overflows.  The real and imaginary
    parts are divided apart by the frame of d (exact), and then by d over its
    frame, a number in [1, 2) in magnitude."""
    e = int(np.frexp(d)[1]) - 1
    q = np.empty_like(x)
    np.ldexp(x.real, -e, out=q.real)
    np.ldexp(x.imag, -e, out=q.imag)
    q /= np.ldexp(d, -e)
    return q


def _realize(law: TwoAtomLaw, n: int) -> tuple[int, TwoAtomLaw]:
    """Number k of loc_alt entries at a validated dimension n, and the realized law."""
    k = round(n * (1.0 - law.weight))
    return k, TwoAtomLaw(weight=(n - k) / n, loc=law.loc, loc_alt=law.loc_alt)


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _finite_part(whole, halves) -> np.ndarray:
    """Read-only ``whole()`` with the entries of ``halves()`` where it overflows: a sum of two
    entries beyond about 9e307 does, and halving each first would round subnormal ones."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = whole()
        far = ~np.isfinite(m)
        if far.any():
            m[far] = halves()[far]
    return _read_only(m)


def _two_atom_matrix(law: TwoAtomLaw, basis: np.ndarray) -> np.ndarray:
    """Read-only loc*I + gap*B B* for the orthonormal columns B = ``basis``, exactly Hermitian."""
    m = (basis * law.gap) @ basis.conj().T
    # exact Hermitian symmetrization; B B* is Hermitian only to roundoff.  Halved
    # first, so that a gap near the float limit does not overflow in the sum
    m *= 0.5
    m += m.conj().T
    m.flat[:: m.shape[0] + 1] += law.loc
    return _read_only(m)


def assemble_model(spec: ModelSpec) -> ModelRealization:
    """Sample one realization of the model from ``spec``, in P_n's eigenbasis.

    P_n = alpha + A*E_k1 exactly, E_k1 the projection onto the first k1
    coordinates (see the module docstring for why this loses nothing).
    Q_n = V Q' V* is built on the smaller side of Pi2 from the columns
    ``_q_frame`` draws for the kernel too: their thin QR factor equals the
    leading columns of V up to column phases (Householder QR makes its
    first k columns from those of G alone), which cancel in V2 V2*.
    """
    k1, realized_p = _realize(spec.p_law, spec.n)
    g, q_law = _q_frame(spec)
    p = np.diag((realized_p.loc + np.where(np.arange(spec.n) < k1, realized_p.gap, 0.0)).astype(np.complex128))
    x = _read_only(p + 1j * _two_atom_matrix(q_law, np.linalg.qr(g)[0]))
    return ModelRealization(x_matrix=x, realized_p_law=realized_p, realized_q_law=_realize(spec.q_law, spec.n)[1])


# a block counts in an intersection of ranges and kernels when its c or s lies within _ANGLE_TOL of 1
_ANGLE_TOL = 1e-9
# unit roundoff of float64
_U = np.finfo(np.float64).eps / 2


def _corner_law(a, b, whole):
    """The parallelogram law, in corner order: (a + b - whole)+, (a - b)+, (b - a)+, (whole - a - b)+,
    in the type of ``whole``.  Of the limit law's weights a, b with whole 1.0 (``geometry.atom_weights``),
    and of the kernel dimensions n - k1, n - k2 with whole n (``_AngleSpectrum.excess``)."""
    zero = whole - whole
    return max(zero, a + b - whole), max(zero, a - b), max(zero, b - a), max(zero, whole - a - b)


def _rectangle_corners(x0, x1, y0, y1) -> tuple[tuple, tuple, tuple, tuple]:
    """The corner order, on atom locations or on offsets (0, A) and (0, B): (x0, y0), (x0, y1), (x1, y0), (x1, y1)."""
    return (x0, y0), (x0, y1), (x1, y0), (x1, y1)


class _AngleSpectrum(NamedTuple):
    """Two projections Pi_p, Pi_q of ranks k1, k2 on C^n, up to unitary equivalence.

    By the two-subspace theorem (Halmos, 1969) one unitary splits C^n into
    the four intersections of ranges and kernels, where Pi_p and Pi_q are 0
    or 1, and m = min(k1, k2, n - k1, n - k2) 2 x 2 blocks on which
    Pi_p = diag(1, 0) and Pi_q = v v^T, v = (c, s) = (cos theta, sin theta).
    In the corner order (``corners``), ker int ker, ker Pi_p int ran Pi_q, ran
    Pi_p int ker Pi_q and ran int ran hold the excess (``excess``), counted,
    never measured, plus the blocks at angle 0 or pi/2 (``intersection_dims``).
    ``c`` holds the m block cosines, descending, and ``s`` their sines,
    ascending; a producer that measures one leaves the other None, never
    sqrt(1 - x^2), which loses digits.
    """

    n: int
    k1: int
    k2: int
    c: np.ndarray | None
    s: np.ndarray | None = None

    def excess(self) -> tuple[int, int, int, int]:
        """The excess dimension at each corner, in corner order: the corner law of the kernel dimensions."""
        return _corner_law(self.n - self.k1, self.n - self.k2, self.n)

    def corners(self, a, b) -> tuple[tuple[tuple, int], ...]:
        """(offset (x, y) from (alpha, beta), excess dimension) per corner, for gaps A, B (scalars or arrays)."""
        return tuple(zip(_rectangle_corners(0.0, a, 0.0, b), self.excess()))

    def intersection_dims(self) -> tuple[int, int, int, int]:
        """dim(E_a(P) int E_b(Q)) per corner, in corner order: the excess plus the blocks whose c
        (aligned corners) or s (mixed) lies within ``_ANGLE_TOL`` of 1, an unmeasured field read as
        sqrt(1 - x^2) of the other.  No gap enters: a small gap puts roots, not subspaces, near a corner."""
        c = np.sqrt(np.maximum(0.0, 1.0 - self.s**2)) if self.c is None else self.c
        s = np.sqrt(np.maximum(0.0, 1.0 - c**2)) if self.s is None else self.s
        aligned, crossed = int(np.sum(c > 1.0 - _ANGLE_TOL)), int(np.sum(s > 1.0 - _ANGLE_TOL))
        return tuple(e + k for e, k in zip(self.excess(), (aligned, crossed, crossed, aligned)))


def _kernel_angles(spec: ModelSpec) -> _AngleSpectrum:
    """Kernel producer: the m block angles of ``assemble_model(spec)`` from its Ginibre draw alone.

    The singular values of the r = min(k1, n - k1) rows of V that span ran
    E_k1 (2k1 <= n) or ker E_k1, against the q columns of ``_q_frame``, are
    the cosines between those sides (Bjorck & Golub, 1973): r + q <= n, so
    min(r, q) = m block angles and no intersection.  A same-side pair is at
    the block angle (``c``), a mixed pair at its complement (``s``).
    """
    from scipy.linalg import solve_triangular

    n = spec.n
    k1, k2 = (_realize(law, n)[0] for law in (spec.p_law, spec.q_law))
    g = _q_frame(spec)[0]
    # V = g R^-1, so V[rows] solves X R = g[rows]
    rows = solve_triangular(_range_factors(g), (g[:k1] if 2 * k1 <= n else g[k1:]).T, trans="T").T
    # svd returns descending values: the cosines in order, the sines reversed
    values = np.linalg.svd(rows, compute_uv=False)
    if (2 * k1 <= n) == (2 * k2 <= n):
        return _AngleSpectrum(n, k1, k2, values)
    return _AngleSpectrum(n, k1, k2, None, values[::-1])


class _ProjectionSpectra(NamedTuple):
    """The angle spectrum of a realization's Pi_q against E_k1, and eps >= ||X_n - Y|| (``spectra.verify_sv_bound``)."""

    angles: _AngleSpectrum
    eps: float


def _projection_spectra(realization: ModelRealization) -> _ProjectionSpectra:
    """Dense producer: the angle spectrum of the projection Pi_q = (Q_n - beta)/B onto Q_n's
    loc_alt eigenspace (distinct atoms only), Q_n the skew-Hermitian part of X_n, against
    E_k1, P_n's projection in the eigenbasis every realization is taken in, and the Weyl
    bound eps of ``spectra.verify_sv_bound`` on that Pi_q.  Nothing else forms Pi_q.

    The singular values of E_k1 Pi_q, the first k1 rows of Pi_q, are 1 on ran int ran,
    c on a block and 0 elsewhere; those of its last n - k1 rows 1 on ker E_k1 int ran
    Pi_q, s and 0 (Bjorck & Golub, 1973): the m block values lie next to the excess.
    eps is inf when Pi_q is too far from an exact projection of rank k2 to certify; where
    an entry of Pi_q is not finite or exceeds 9/8 in modulus, c and s are NaN as well.
    Read it through ``ModelRealization._dense_spectra``, once per realization.
    """
    n, p_law, q_law = realization.n, realization.realized_p_law, realization.realized_q_law
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal gap can overflow a Q_n off beta + B*Pi
        pi_q = _divide(realization.q_matrix - q_law.loc * np.eye(n), q_law.gap)
    k1, k2 = (_realize(law, n)[0] for law in (p_law, q_law))
    (_, e1, _, rr), m = _corner_law(n - k1, n - k2, n), min(k1, k2, n - k1, n - k2)
    # Pi_q is Hermitian, so its entries are at most ||Pi_q||_2, which is below 9/8 wherever the layout
    # gate below passes: past that no angle is a measurement, and no LAPACK call sees inf or nan
    mags = np.abs(pi_q)
    if not mags.max() <= 1.125:
        nan = np.full(m, math.nan)
        return _ProjectionSpectra(_AngleSpectrum(n, k1, k2, nan, nan), math.inf)
    # descending values: the j-th largest cosine pairs with the j-th smallest sine
    top, bottom = (np.linalg.svd(rows, compute_uv=False) for rows in (pi_q[:k1], pi_q[k1:]))
    angles = _AngleSpectrum(n, k1, k2, top[rr : rr + m], bottom[e1 : e1 + m][::-1])
    a, b = abs(p_law.gap), abs(q_law.gap)
    # ||Pi_q^2 - Pi_q||_F plus its rounding, (n + 3)u || |Pi_q| |Pi_q| ||_F at most;
    # || |Pi_q| |Pi_q| ||_F <= ||Pi_q||_F times the largest row sum of |Pi_q|
    q_norm = float(np.linalg.norm(pi_q))
    i_q = float(np.linalg.norm(pi_q @ pi_q - pi_q)) + (n + 3) * _U * float(mags.sum(axis=1).max()) * q_norm
    # every eigenvalue of Pi_q within 1/8 of 0 or 1, k2 of them near 1
    if not 2.0 * math.sqrt(n) * i_q + abs(float(np.trace(pi_q).real) - k2) < 0.25:
        return _ProjectionSpectra(angles, math.inf)
    # the residual and its norms in the frame f of the larger gap, multiplied back: both exact
    f = float(_frame(max(a, b)))
    resid, center = _divide(realization.x_matrix, f), complex(p_law.loc, q_law.loc) / f
    norms = (np.linalg.norm(resid), a / f * math.sqrt(k1), b / f * q_norm)
    resid -= 1j * ((q_law.gap / f) * pi_q)  # in place, on the copy X_n / f
    resid.flat[:: n + 1] -= center
    resid.flat[: k1 * (n + 1) : n + 1] -= p_law.gap / f
    resid_bound = f * (float(np.linalg.norm(resid)) + 4.0 * _U * (float(sum(norms)) + math.sqrt(n) * abs(center)))
    delta = 2.0 * i_q + 4.0 * (n + 1) * _U
    eps = resid_bound + 2.0 * b * i_q + b * math.sqrt(2.0) * delta * (2.0 + math.sqrt(2.0) * delta)
    return _ProjectionSpectra(angles, eps)


def _angle_roots(angles: _AngleSpectrum, p_law: TwoAtomLaw, q_law: TwoAtomLaw) -> np.ndarray:
    """The root map: the n eigenvalues of alpha + i*beta + A*Pi_p + iB*Pi_q for projections with ``angles``.

    Per block, trace t = A + iB and determinant iAB s^2 = iAB(1 - c^2), with s where measured: its
    larger root, taken directly, and det/root; then the excess corners as exact atoms, A + iB first."""
    a, b = p_law.gap, q_law.gap
    # solve the blocks in the frame of the larger gap, so that no square overflows
    f = _frame(max(abs(a), abs(b)))
    t = complex(a / f, b / f)
    det = 1j * (a / f) * (b / f) * (1.0 - angles.c**2 if angles.s is None else angles.s**2)
    disc = np.sqrt(t * t - 4.0 * det)
    # the sign that avoids cancellation gives the larger-modulus root
    big = 0.5 * (t + np.where((t.conjugate() * disc).real >= 0.0, disc, -disc))
    # big is 0 only when A = B = 0, where det is 0 as well
    small = np.divide(det, big, out=np.zeros_like(det), where=big != 0)
    corners = reversed(angles.corners(a, b))
    roots = np.concatenate([f * big, f * small, *(np.full(k, complex(*o), dtype=np.complex128) for o, k in corners)])
    return complex(p_law.loc, q_law.loc) + roots


def two_projection_eigenvalues(spec: ModelSpec) -> np.ndarray:
    """Eigenvalues of X_n for ``assemble_model(spec)``, the root map of its kernel angles; no n x n product."""
    return _angle_roots(_kernel_angles(spec), spec.p_law, spec.q_law)


def pooled_eigenvalues(spec: ModelSpec, samples: int, *key: int) -> np.ndarray:
    """Kernel spectra of ``samples`` independent draws of ``spec``, concatenated.

    Sample i is ``two_projection_eigenvalues`` at the child seed
    ``substream_seed(spec.seed, *key, i)``; ``key`` is the caller's entry of
    the substream table, so the pools of different callers share no draw.
    The uniform measure on the result is the pooled ESD.
    """
    if type(samples) is not int:
        raise UsageError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples!r}")
    children = [replace(spec, seed=substream_seed(spec.seed, *key, i)) for i in range(samples)]
    return np.concatenate([two_projection_eigenvalues(child) for child in children])
