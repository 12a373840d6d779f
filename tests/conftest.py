"""Shared fixtures: the demo laws used throughout the test suite.

The p law puts mass 5/8 at 0 and 3/8 at 1; the q law puts mass 7/8 at 0
and 1/8 at 4/5.  This pair exercises every regime at once: one corner
atom from a + b - 1 > 0, one from b - a > 0, and a continuous part of
mass 1/4 on the hyperbola arc.
"""

from __future__ import annotations

import numpy as np
import pytest

from projsum import ModelRealization, ModelSpec, TwoAtomLaw, assemble_model
from projsum.model import _realize, _two_atom_matrix

P_LAW = TwoAtomLaw(weight=5 / 8, loc=0.0, loc_alt=1.0)
Q_LAW = TwoAtomLaw(weight=7 / 8, loc=0.0, loc_alt=0.8)


def commuting_model(spec: ModelSpec) -> ModelRealization:
    """The realization of ``spec`` with V = I: P_n and Q_n diagonal, with closed-form spectra.

    Both sides are ``_two_atom_matrix`` of the standard basis columns E_k1 and E_k2: P_n
    equals ``assemble_model``'s diagonal bit for bit at gaps of at least 2^-1021, and Q_n is
    its drawn side at V = I.
    """
    (k1, p_law), (k2, q_law) = (_realize(law, spec.n) for law in (spec.p_law, spec.q_law))
    p = _two_atom_matrix(p_law, np.eye(spec.n, k1, dtype=np.complex128))
    q = _two_atom_matrix(q_law, np.eye(spec.n, k2, dtype=np.complex128))
    x = p + 1j * q
    x.setflags(write=False)
    return ModelRealization(x_matrix=x, realized_p_law=p_law, realized_q_law=q_law)


@pytest.fixture(scope="session")
def demo_laws() -> tuple[TwoAtomLaw, TwoAtomLaw]:
    return P_LAW, Q_LAW


@pytest.fixture(scope="session")
def demo_realization():
    return assemble_model(ModelSpec(P_LAW, Q_LAW, n=200, seed=42))


@pytest.fixture(scope="session")
def small_realization():
    return assemble_model(ModelSpec(P_LAW, Q_LAW, n=64, seed=7))


@pytest.fixture
def dense_solves(monkeypatch) -> dict[str, list[tuple[int, ...]]]:
    """The shapes of the matrices that ``np.linalg.eigvals``, ``eigvalsh`` and ``svd`` take while the test runs."""
    calls = {"eigvals": [], "eigvalsh": [], "svd": []}

    def recording(name, real):
        def solve(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return real(a, *args, **kwargs)
        return solve

    for name in calls:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    return calls
