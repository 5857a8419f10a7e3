"""JSON encoding of the artifact's documents.

Matrices are row-major nested arrays of [re, im] pairs. Loops are
{n, samples: [matrix, ...]}. A sheet document holds the contraction's
recipe, not its cells: {n, loop: [matrix, ...], levels: [{unitaries,
s_unitary, s_projection}, ...]}, with level k on the corner block
b = n - k: its T unitaries and the rows x T tables of interpolation
parameters of its unitary and projection stages. The block and the
projection P^b_1 are implied, never stored. Reading a sheet document gives
the recipe, a homotopy.HomotopySheet, without expanding it. All documents
are UTF-8 JSON, written compactly with sorted keys.
"""

from __future__ import annotations

import json

import numpy as np

from .homotopy import HomotopySheet, Level, StateLoop
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


def _integer(doc: dict, key: str) -> int:
    """doc[key] if it is a JSON integer (a bool is not), else ValueError."""
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def loop_to_doc(loop: StateLoop) -> dict:
    return {"n": loop.n, "samples": encode_matrix(loop.rhos)}


def loop_from_doc(doc: dict) -> StateLoop:
    """Decode and validate a loop document; every error is a ValueError
    that names the document once."""
    try:
        return StateLoop(_integer(doc, "n"), decode_matrix(doc["samples"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid loop document: {exc}") from exc


def sheet_to_doc(sheet: HomotopySheet) -> dict:
    """The sheet's recipe: its input loop (row 0) and its levels."""
    levels = [
        {"unitaries": encode_matrix(lv.unitaries), "s_unitary": lv.s_unitary.tolist(),
         "s_projection": lv.s_projection.tolist()}
        for lv in sheet.levels
    ]
    return {"n": sheet.n, "loop": encode_matrix(sheet.loop), "levels": levels}


def _level(doc: dict) -> Level:
    if sorted(doc) != ["s_projection", "s_unitary", "unitaries"]:
        raise ValueError("a level holds 'unitaries', 's_unitary' and 's_projection' since the "
                         f"format changed, got {sorted(doc)}")
    return Level(decode_matrix(doc["unitaries"]), np.array(doc["s_unitary"], dtype=float),
                 np.array(doc["s_projection"], dtype=float))


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document into its recipe, unexpanded: the loop is
    validated as states, the recipe's shapes against it, and every entry
    must be finite. The other cells are validated as sheet_blocks makes them."""
    try:
        n = _integer(doc, "n")
        loop = decode_matrix(doc["loop"])
        levels = [_level(level) for level in doc["levels"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sheet document: {exc}") from exc
    if loop.ndim != 3 or loop.shape[-1] != n:
        raise ValueError(f"malformed sheet document: the loop is not a stack of states on M_{n}")
    sheet = HomotopySheet(n, validate_densities(loop), levels)
    _check_finite(sheet)
    return sheet


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_finite(sheet: HomotopySheet):
    if not all(np.isfinite(a).all() for a in [sheet.loop, *(a for lv in sheet.levels for a in lv)]):
        raise ValueError("sheet has non-finite entries")


def write_sheet(path: str, sheet: HomotopySheet):
    """Write the sheet document (sheet_to_doc). A NaN or infinite entry in
    the recipe, which JSON cannot hold, raises ValueError before the file
    is opened."""
    _check_finite(sheet)
    write_doc(path, sheet_to_doc(sheet))


def write_doc(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def read_doc(path: str) -> dict:
    """The JSON document at `path`; bad JSON raises ValueError
    'path:line:col: msg'."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
