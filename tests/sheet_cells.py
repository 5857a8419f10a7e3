"""Whole-sheet views of a contraction sheet, for the tests.

The program never holds a sheet's S x T cells at once: it evaluates them a
stage at a time on the loop it is given (homotopy.sheet_blocks). The tests
read them whole, and forge them, through these helpers, which are built
from that generator.
"""

import numpy as np

from phaselab import homotopy


def cells(sheet, loop) -> np.ndarray:
    """The sheet's cells on `loop` as one (S, T, n, n) array."""
    return np.concatenate(list(homotopy.sheet_blocks(sheet, loop)))


def forge_cells(monkeypatch, edit):
    """Make every expansion of a sheet, the verifier's included, yield its
    cells with edit(cells) applied to the whole array, in the same blocks."""
    blocks = homotopy.sheet_blocks

    def forged(sheet, loop):
        parts = list(blocks(sheet, loop))
        arr = np.concatenate(parts)
        edit(arr)
        yield from np.split(arr, np.cumsum([len(p) for p in parts])[:-1])

    monkeypatch.setattr(homotopy, "sheet_blocks", forged)
