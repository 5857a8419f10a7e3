"""Exact rational positivity of small Hermitian matrices, for the tests.

A Hermitian matrix is positive semidefinite exactly when every principal
minor is >= 0. For a 2x2 or 3x3 matrix of doubles those minors are a few
products, so rational arithmetic (fractions.Fraction, exact for every
double) decides them with no rounding: an oracle that shares no kernel
with eigvalsh.
"""

import math
from fractions import Fraction

import numpy as np


def exactly_above(cell: np.ndarray, floor: float) -> bool:
    """Whether every eigenvalue of the packed (linalg.pack_hermitian) 2x2 or
    3x3 Hermitian matrix `cell` (n²,) is at least -floor, in exact rational
    arithmetic: every principal minor of H + floor 1 is >= 0."""
    n = math.isqrt(len(cell))
    x = [Fraction(float(v)) for v in cell]
    d = [x[k] + Fraction(float(floor)) for k in range(n)]
    if n == 2:
        return d[0] >= 0 and d[1] >= 0 and d[0] * d[1] - x[2] ** 2 - x[3] ** 2 >= 0
    (r01, r02, r12), (i01, i02, i12) = x[3:6], x[6:9]
    n01, n02, n12 = r01 ** 2 + i01 ** 2, r02 ** 2 + i02 ** 2, r12 ** 2 + i12 ** 2
    cycle = (r01 * r12 - i01 * i12) * r02 + (r01 * i12 + i01 * r12) * i02  # Re(b01 b12 conj(b02))
    det = d[0] * d[1] * d[2] + 2 * cycle - d[0] * n12 - d[1] * n02 - d[2] * n01
    return (all(v >= 0 for v in d) and d[0] * d[1] >= n01 and d[0] * d[2] >= n02 and d[1] * d[2] >= n12
            and det >= 0)
