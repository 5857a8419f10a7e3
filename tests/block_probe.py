"""The contractor's row probe on a stage's whole block of rows, for the tests.

homotopy._grown_rows bounds a stage's s-steps from its pencil and makes the
two cells of a step only where the step can pass the modulus. Before, it
made the stage's block of rows at the rule's rows (homotopy._rule_block)
and measured every step on it, with packed Frobenius bounds first. That
probe is kept here, unchanged but for the packed entry point of the step
kernel (homotopy._masked_steps, every step kept), as the reference its
rows must equal.
"""

import numpy as np

from phaselab import homotopy


def block_grown_rows(p: np.ndarray, c: np.ndarray, rows: int, target: float) -> int:
    """homotopy._grown_rows by a scan of the stage's block: `rows`, unless a
    step from the input R0 to row 1 or between rows passes 2 target."""
    block = homotopy._rule_block(p, c, rows)
    first = homotopy._masked_steps(block[:, 0] - p[0], np.ones(block.shape[2], bool), 2.0 * target)
    floor = max(first.max(), 2.0 * target)
    steps = homotopy._masked_steps(block[:, 1:] - block[:, :-1], np.ones(block.shape[1:], bool)[1:], floor)
    step = max(first.max(), steps.max(initial=0.0))
    return rows if step <= 2.0 * target else int(np.ceil(rows * step / target))
