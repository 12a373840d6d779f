"""Random matrix model: sums of independently Haar-rotated two-atom Hermitian matrices.

The model is X_n = P_n + i*Q_n where P_n = U P' U* and Q_n = V Q' V*.  The seeds
P', Q' are deterministic diagonal matrices whose spectra are two-atom laws, and
U, V are independent Haar unitaries.  Every constructor here is a pure function
of (law parameters, dimension, seed), so realizations reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidDimensionError",
    "TwoAtomLaw",
    "ModelSpec",
    "ModelRealization",
    "sample_haar_unitary",
    "build_two_atom_hermitian",
    "assemble_model",
    "substream_rng",
    "substream_seed",
]

# Substream table: every spawn key derived from a seed starts with its owner's id.
HAAR_P = 0  # U in assemble_model: (HAAR_P,)
HAAR_Q = 1  # V in assemble_model: (HAAR_Q,)
GRID = 2  # sample_potential_grid, sample i: (GRID, i)
CHECK_Z = 3  # the random z points of `projsum check`: (CHECK_Z,)
TIGHTNESS = 4  # tightness_probe, law pair i: (TIGHTNESS, i)
CONVERGE = 5  # convergence_run, dimension n, sample i: (CONVERGE, n, i)


class InvalidDimensionError(ValueError):
    """Raised when a matrix dimension is not a positive integer."""


@dataclass(frozen=True)
class TwoAtomLaw:
    """The probability law weight*delta_loc + (1 - weight)*delta_loc_alt on the reals.

    Parameters
    ----------
    weight : float
        Mass of the atom at ``loc``; must lie in [0, 1].
    loc, loc_alt : float
        Atom positions.  They may coincide (degenerate one-atom law), in
        which case :attr:`is_two_atom` is False and geometry constructors
        will refuse the law.
    """

    weight: float
    loc: float
    loc_alt: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and 0.0 <= self.weight <= 1.0):
            raise ValueError(f"weight must lie in [0, 1], got {self.weight!r}")
        if not (math.isfinite(self.loc) and math.isfinite(self.loc_alt)):
            raise ValueError("atom locations must be finite")

    @property
    def is_two_atom(self) -> bool:
        """True when both atoms carry positive mass at distinct locations."""
        return 0.0 < self.weight < 1.0 and self.loc != self.loc_alt

    @property
    def gap(self) -> float:
        """Signed atom gap loc_alt - loc."""
        return self.loc_alt - self.loc

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.loc + self.loc_alt)


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one model draw: laws for p and q, dimension, seed."""

    p_law: TwoAtomLaw
    q_law: TwoAtomLaw
    n: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidDimensionError(f"dimension must be a positive integer, got {self.n!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class ModelRealization:
    """One sampled triple (P_n, Q_n, X_n) together with the discretized laws.

    The matrices are read-only; share them freely across threads.  The
    realized laws carry the weights k/n actually used at dimension n, which
    downstream exact checks must use instead of the requested weights.
    """

    p_matrix: np.ndarray
    q_matrix: np.ndarray
    x_matrix: np.ndarray
    realized_p_law: TwoAtomLaw
    realized_q_law: TwoAtomLaw
    seed: int

    @property
    def n(self) -> int:
        return self.p_matrix.shape[0]


def substream_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, key) substream, independent across keys."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def substream_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit child seed from (seed, key); stable across runs."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n x n unitary matrix from Haar measure on U(n).

    A standard complex Ginibre matrix is orthonormalized by QR, then each
    column of Q is multiplied by the phase of the matching diagonal entry of
    R.  This makes the factorization G = (Q Lambda)(Lambda* R) the unique one
    with positive triangular diagonal, and the orthogonal factor of that
    unique factorization is exactly Haar distributed; raw QR output is not.

    Parameters
    ----------
    n : int
        Dimension, at least 1.
    rng : numpy.random.Generator
        Source of randomness; consumed.

    Returns
    -------
    numpy.ndarray
        Unitary matrix with ||U*U - I||_max <= 1e-12 * sqrt(n).
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {n!r}")
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def build_two_atom_hermitian(law: TwoAtomLaw, n: int) -> tuple[np.ndarray, TwoAtomLaw]:
    """Diagonal Hermitian seed matrix realizing ``law`` at dimension n.

    The leading k = round(n * (1 - weight)) diagonal entries equal loc_alt
    and the remaining n - k equal loc, so the realized weight of loc is
    (n - k) / n.  Rounding is round-half-even.

    Returns
    -------
    (numpy.ndarray, TwoAtomLaw)
        The n x n real diagonal matrix and the law actually realized.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {n!r}")
    k = round(n * (1.0 - law.weight))
    diag = np.full(n, law.loc, dtype=np.float64)
    diag[:k] = law.loc_alt
    realized = TwoAtomLaw(weight=(n - k) / n, loc=law.loc, loc_alt=law.loc_alt)
    return np.diag(diag), realized


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def assemble_model(spec: ModelSpec, *, commuting: bool = False) -> ModelRealization:
    """Sample one realization of the model from ``spec``.

    P_n and Q_n are conjugations of the diagonal seeds by independent Haar
    unitaries drawn from disjoint substreams of ``spec.seed``, so adding
    further consumers of the seed never perturbs these draws.  The result is
    a pure function of ``spec``: identical inputs give bit-identical
    matrices regardless of thread count.

    With ``commuting=True`` the rotations are skipped (U = V = I), leaving
    the diagonal seeds themselves.  This deterministic variant exists for
    tests with closed-form spectra and is exposed on the command line.
    """
    p_diag, realized_p = build_two_atom_hermitian(spec.p_law, spec.n)
    q_diag, realized_q = build_two_atom_hermitian(spec.q_law, spec.n)
    if commuting:
        p = p_diag.astype(np.complex128)
        q = q_diag.astype(np.complex128)
    else:
        u = sample_haar_unitary(spec.n, substream_rng(spec.seed, HAAR_P))
        v = sample_haar_unitary(spec.n, substream_rng(spec.seed, HAAR_Q))
        p = (u * np.diagonal(p_diag)) @ u.conj().T
        q = (v * np.diagonal(q_diag)) @ v.conj().T
        # exact Hermitian symmetrization; conjugation is Hermitian only to roundoff
        p = 0.5 * (p + p.conj().T)
        q = 0.5 * (q + q.conj().T)
    x = p + 1j * q
    return ModelRealization(
        p_matrix=_freeze(p),
        q_matrix=_freeze(q),
        x_matrix=_freeze(x),
        realized_p_law=realized_p,
        realized_q_law=realized_q,
        seed=spec.seed,
    )
