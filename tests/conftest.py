"""Shared fixtures: the demo laws used throughout the test suite.

The p law puts mass 5/8 at 0 and 3/8 at 1; the q law puts mass 7/8 at 0
and 1/8 at 4/5.  This pair exercises every regime at once: one corner
atom from a + b - 1 > 0, one from b - a > 0, and a continuous part of
mass 1/4 on the hyperbola arc.
"""

from __future__ import annotations

import numpy as np
import pytest

from projsum import ModelSpec, TwoAtomLaw, assemble_model

P_LAW = TwoAtomLaw(weight=5 / 8, loc=0.0, loc_alt=1.0)
Q_LAW = TwoAtomLaw(weight=7 / 8, loc=0.0, loc_alt=0.8)


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
def dense_solves(monkeypatch) -> dict[str, int]:
    """Counts of the ``np.linalg.eigvals`` and ``eigvalsh`` calls made while the test runs."""
    calls = {"eigvals": 0, "eigvalsh": 0}

    def counting(name, real):
        def solve(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return solve

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls
