"""JSON encoding of the artifact's documents.

Matrices are row-major nested arrays of [re, im] pairs. Loops are
{n, samples: [matrix, ...]}. A sheet document holds the contraction's
recipe, not its cells and not its loop: {n, s_den, levels: [{unitaries,
s_unitary, s_projection}, ...]}, with level k on the corner block
b = n - k: its T unitaries and the rows x T tables of interpolation
parameters of its unitary and projection stages. Every s is a multiple of
1 / s_den, s_den = homotopy.S_DEN = 65536, and its table holds the integer
numerators; dividing them by the power of two s_den gives back the
contractor's s bit for bit. The block and the projection P^b_1 are
implied, never stored. Reading a sheet document gives the recipe, a
homotopy.HomotopySheet, without expanding it; it is expanded, and
verified, on the loop document's loop. All documents are UTF-8 JSON,
written compactly with sorted keys.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .homotopy import S_DEN, HomotopySheet, Level, StateLoop


def encode_matrix(m: np.ndarray) -> list:
    """Row-major nested [re, im] pairs; a stack of matrices nests one
    level deeper per leading axis."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def decode_matrix(rows) -> np.ndarray:
    """Inverse of encode_matrix, for one matrix or a stack of them; every
    entry must be a JSON number (a bool or a string is not)."""
    pairs = np.array(rows, dtype=np.float64)
    if pairs.ndim < 3 or pairs.shape[-1] != 2:
        raise ValueError("matrices must be nested arrays of [re, im] pairs")
    entries = rows
    for _ in range(pairs.ndim - 1):
        entries = chain.from_iterable(entries)
    kinds = set(map(type, entries)) - {float, int}
    if kinds:
        raise ValueError("matrix entries must be numbers, got "
                         f"{', '.join(sorted(k.__name__ for k in kinds))} entries")
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
    """The sheet's recipe: its levels and s_den, and no loop. A NaN or
    infinite entry, which JSON cannot hold, or an s off the grid of
    multiples of 1 / S_DEN raises ValueError."""
    _check_finite(sheet)
    levels = [
        {"unitaries": encode_matrix(lv.unitaries), "s_unitary": _numerators(lv.s_unitary),
         "s_projection": _numerators(lv.s_projection)}
        for lv in sheet.levels
    ]
    return {"n": sheet.n, "s_den": S_DEN, "levels": levels}


def _numerators(s: np.ndarray) -> list:
    """An s table's integer numerators over S_DEN, as nested lists."""
    scaled = s * S_DEN
    if not (scaled == np.round(scaled)).all():
        raise ValueError(f"an s table holds values that are not multiples of 1/{S_DEN}")
    return scaled.astype(np.int64).tolist()


def _s_table(rows) -> np.ndarray:
    """An s table from its rows of JSON integer numerators (a bool is not)."""
    kinds = {type(m) for row in rows for m in row} - {int}
    if kinds:
        raise ValueError("s tables hold integer numerators over 's_den' since the format "
                         f"changed, got {', '.join(sorted(k.__name__ for k in kinds))} entries")
    return np.array(rows, dtype=float) / S_DEN


def _level(doc: dict) -> Level:
    if sorted(doc) != ["s_projection", "s_unitary", "unitaries"]:
        raise ValueError("a level holds 'unitaries', 's_unitary' and 's_projection' since the "
                         f"format changed, got {sorted(doc)}")
    return Level(decode_matrix(doc["unitaries"]), _s_table(doc["s_unitary"]),
                 _s_table(doc["s_projection"]))


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document into its recipe, unexpanded: its shapes must
    fit n and every entry must be finite. Its cells are judged by
    verify_homotopy, on the loop it is handed."""
    try:
        if sorted(doc) != ["levels", "n", "s_den"]:
            raise ValueError("a sheet document holds 'n', 's_den' and 'levels' since the format "
                             f"changed, got {sorted(doc)}")
        n = _integer(doc, "n")
        if _integer(doc, "s_den") != S_DEN:
            raise ValueError(f"'s_den' must be {S_DEN}, got {doc['s_den']}")
        levels = [_level(level) for level in doc["levels"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed sheet document: {exc}") from exc
    return _check_finite(HomotopySheet(n, levels))


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_finite(sheet: HomotopySheet) -> HomotopySheet:
    if not all(np.isfinite(a).all() for lv in sheet.levels for a in lv):
        raise ValueError("sheet has non-finite entries")
    return sheet


def write_sheet(path: str, sheet: HomotopySheet):
    """Write the sheet document (sheet_to_doc); a recipe it refuses raises
    ValueError before the file is opened."""
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
