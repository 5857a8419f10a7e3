"""Whole-sheet views of a contraction sheet, for the tests.

The program never holds a sheet's S x T cells at once: it evaluates them a
chunk of a stage's rows at a time on the loop it is given
(homotopy.sheet_blocks), every chunk, row 0 the loop's included, in the
packed Hermitian layout (linalg.pack_hermitian) of its own b x b cells. The
tests read them whole, as complex n x n cells with each b x b cell
zero-padded into the leading corner, and forge them, through these
helpers, which are built from that generator; and they forge the loop
itself, row 0, with forge_loop alone.
"""

import math

import numpy as np

from phaselab import homotopy
from phaselab.linalg import pack_hermitian, unpack_hermitian


def cells(sheet, loop) -> np.ndarray:
    """The sheet's cells on `loop` as one (S, T, n, n) complex array, each
    chunk's b x b cells zero-padded into the n x n corner."""
    return np.concatenate([unpack_hermitian(homotopy._packed_corner(x, sheet.n))
                           for _, _, x in homotopy.sheet_blocks(sheet, loop)])


def forge_cells(monkeypatch, edit):
    """Make every expansion of a sheet, the verifier's included, yield its
    cells with edit(cells) applied to the whole complex (S, T, n, n) array
    (cells), in the same chunks, each with the stage and pencil traces the
    expansion gave it. Each chunk is packed again at its own size, from the
    leading b x b corner of its cells: a cell keeps its corner's diagonal
    real parts and upper triangle, its lower triangle mirrors the upper
    one, and an edit outside the corner is dropped."""
    blocks = homotopy.sheet_blocks

    def forged(sheet, loop):
        parts = list(blocks(sheet, loop))
        arr = np.concatenate([unpack_hermitian(homotopy._packed_corner(x, sheet.n)) for _, _, x in parts])
        edit(arr)
        edges = np.cumsum([x.shape[1] for _, _, x in parts])[:-1]
        for (stage, c, x), part in zip(parts, np.split(arr, edges)):
            b = math.isqrt(len(x))
            yield stage, c, pack_hermitian(part[..., :b, :b])

    monkeypatch.setattr(homotopy, "sheet_blocks", forged)


def forge_loop(n: int, rhos) -> homotopy.StateLoop:
    """A StateLoop on M_n holding the packed rows (StateLoop.x) of the
    samples `rhos` as given, with none of StateLoop's validation: a loop no
    document or constructor can make, for showing what the verifier does
    with a row 0 that is not a loop of states. Its rows are read-only, as a
    validated loop's are."""
    x = pack_hermitian(np.array(rhos, dtype=np.complex128))
    x.flags.writeable = False
    loop = object.__new__(homotopy.StateLoop)
    vars(loop).update(n=n, x=x)
    return loop
