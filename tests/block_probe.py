"""A stage's whole block of rows and the contractor's row probe on it, for
the tests.

homotopy._grown_rows bounds a stage's s-steps from its pencil, a chunk of
rows at a time, and makes the two cells of a step only where the step can
pass the modulus. Before, it made the stage's block of rows at the rule's
rows (rule_block) and measured every step on it, with packed Frobenius
bounds first. That probe is kept here, unchanged but for the packed entry
point of the step kernel (homotopy._masked_steps, every step kept), as the
reference its rows must equal.
"""

import numpy as np

from phaselab import homotopy


def rule_block(p: np.ndarray, c: np.ndarray, rows: int) -> np.ndarray:
    """The `rows` rows of a stage of pencil (p, c) at the rule's s rows
    (homotopy._rule_rows), packed as (b², rows, T) (homotopy._stage_rows),
    in one block."""
    return homotopy._stage_rows(p, c, homotopy._rule_rows(c, rows, 0, rows))


def block_grown_rows(p: np.ndarray, c: np.ndarray, rows: int, target: float) -> int:
    """homotopy._grown_rows by a scan of the stage's block: `rows`, unless a
    step from the input R0 to row 1 or between rows passes 2 target."""
    block = rule_block(p, c, rows)
    first = homotopy._masked_steps(block[:, 0] - p[0], np.ones(block.shape[2], bool), 2.0 * target)
    floor = max(first.max(), 2.0 * target)
    steps = homotopy._masked_steps(block[:, 1:] - block[:, :-1], np.ones(block.shape[1:], bool)[1:], floor)
    step = max(first.max(), steps.max(initial=0.0))
    return rows if step <= 2.0 * target else int(np.ceil(rows * step / target))
