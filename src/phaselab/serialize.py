"""JSON encoding of the artifact's documents.

Matrices are row-major nested arrays of [re, im] pairs. Loops are
{n, samples: [matrix, ...]} and sheets {meta, n, rows: [[matrix, ...], ...]}.
All documents are UTF-8 JSON, written compactly with sorted keys.
"""

from __future__ import annotations

import json

import numpy as np

from .homotopy import HomotopySheet, StateLoop
from .states import validate_densities


def encode_matrix(m: np.ndarray) -> list:
    """Row-major nested [re, im] pairs; a stack of matrices nests one
    level deeper per leading axis."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def decode_matrix(rows) -> np.ndarray:
    """Inverse of encode_matrix, for one matrix or a stack of them."""
    pairs = np.array(rows, dtype=np.float64)
    if pairs.ndim < 3 or pairs.shape[-1] != 2:
        raise ValueError("matrices must be nested arrays of [re, im] pairs")
    return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]


def loop_to_doc(loop: StateLoop) -> dict:
    return {"n": loop.n, "samples": encode_matrix(loop.as_array())}


def loop_from_doc(doc: dict) -> StateLoop:
    try:
        n = int(doc["n"])
        rhos = decode_matrix(doc["samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed loop document: {exc}") from exc
    return StateLoop(n, rhos)


def sheet_to_doc(sheet: HomotopySheet) -> dict:
    return {"n": sheet.n, "rows": encode_matrix(sheet.as_array()), "meta": sheet.meta}


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document; every cell is validated as a state."""
    try:
        cells = decode_matrix(doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sheet document: {exc}") from exc
    return HomotopySheet(int(doc["n"]), validate_densities(cells), list(doc.get("meta", [])))


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_sheet(path: str, sheet: HomotopySheet):
    """Write `dumps(sheet_to_doc(sheet))` and a newline, byte for byte, one
    row at a time: a row's floats fill one nested %r template (float repr is
    what json writes), so no nested lists are built. A NaN or infinite
    entry, which JSON cannot hold, raises ValueError before any write."""
    cells = np.ascontiguousarray(sheet.as_array())
    if not np.isfinite(cells).all():
        raise ValueError("sheet has non-finite entries")
    rows = cells.view(np.float64).reshape(cells.shape[0], -1)
    t_count, n = cells.shape[1], cells.shape[2]
    matrix = "[" + ",".join(["[" + ",".join(["[%r,%r]"] * n) + "]"] * n) + "]"
    template = "[" + ",".join([matrix] * t_count) + "]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"meta":{dumps(sheet.meta)},"n":{dumps(sheet.n)},"rows":[')
        for i, row in enumerate(rows):
            fh.write(("," if i else "") + template % tuple(row.tolist()))
        fh.write("]}\n")


def write_doc(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def read_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
