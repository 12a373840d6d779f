"""Simulation and verification toolkit for the matrix model X_n = P_n + i*Q_n.

P_n and Q_n are independently Haar-rotated Hermitian matrices with two-atom
spectra.  The package samples the model, builds the hyperbola-rectangle
support geometry and the corner atom weights of the limit law, verifies the
finite-n structure theorems (support, normality of the centered square, the
minimum-singular-value bound), runs the hermitization pipeline that recovers
the spectral measure from log potentials, and measures convergence across
dimensions.
"""

__version__ = "0.31.0"

from .model import *
from .geometry import *
from .spectra import *
from .hermitization import *
from .convergence import *

from . import convergence, geometry, hermitization, model, spectra

__all__ = [
    name
    for module in (model, geometry, spectra, hermitization, convergence)
    for name in module.__all__
]
