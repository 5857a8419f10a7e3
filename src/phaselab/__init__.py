"""phaselab: a numerical laboratory for the integer phase invariant of an
S3-parametrized spin-1/2 dimer chain, with the projective-geometric,
C*-algebraic, Cech-cohomological and homotopy-theoretic machinery it is
built from."""

from .dimer import ModelConfig, ParamPoint, invariant_sweep
from .util import NumericalGateError

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "ParamPoint",
    "invariant_sweep",
    "NumericalGateError",
    "__version__",
]
