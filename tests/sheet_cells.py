"""Whole-sheet views of a contraction sheet, for the tests.

The program never holds a sheet's S x T cells at once: it evaluates them a
stage at a time on the loop it is given (homotopy.sheet_blocks), every
block, row 0 the loop's included, in the packed Hermitian layout
(linalg.pack_hermitian). The tests read them whole, as complex cells, and
forge them, through these helpers, which are built from that generator;
and they forge the loop itself, row 0, with forge_loop alone.
"""

import numpy as np

from phaselab import homotopy
from phaselab.linalg import pack_hermitian, unpack_hermitian


def cells(sheet, loop) -> np.ndarray:
    """The sheet's cells on `loop` as one (S, T, n, n) complex array."""
    return np.concatenate([unpack_hermitian(x) for _, _, x in homotopy.sheet_blocks(sheet, loop)])


def forge_cells(monkeypatch, edit):
    """Make every expansion of a sheet, the verifier's included, yield its
    cells with edit(cells) applied to the whole complex array, in the same
    blocks, each with the stage and pencil traces the expansion gave it.
    Each block is packed again, so a cell keeps its diagonal's real parts
    and its upper triangle, and its lower triangle mirrors the upper one."""
    blocks = homotopy.sheet_blocks

    def forged(sheet, loop):
        parts = list(blocks(sheet, loop))
        arr = np.concatenate([unpack_hermitian(x) for _, _, x in parts])
        edit(arr)
        edges = np.cumsum([x.shape[1] for _, _, x in parts])[:-1]
        for (stage, c, _), part in zip(parts, np.split(arr, edges)):
            yield stage, c, pack_hermitian(part)

    monkeypatch.setattr(homotopy, "sheet_blocks", forged)


def forge_loop(n: int, rhos) -> homotopy.StateLoop:
    """A StateLoop on M_n holding the samples `rhos` as given, with none of
    StateLoop's validation: a loop no document or constructor can make,
    for showing what the verifier does with a row 0 that is not a loop of
    states. Its samples and their packed rows (StateLoop.x) are read-only,
    as a validated loop's are."""
    rhos = np.array(rhos, dtype=np.complex128)
    x = pack_hermitian(rhos)
    rhos.flags.writeable = x.flags.writeable = False
    loop = object.__new__(homotopy.StateLoop)
    vars(loop).update(n=n, rhos=rhos, x=x)
    return loop
