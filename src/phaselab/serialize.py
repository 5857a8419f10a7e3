"""JSON encoding of the artifact's documents.

Matrices are row-major nested arrays of [re, im] pairs. Loops are
{n, samples: [matrix, ...]}. A sheet document holds the contraction's
recipe, not its cells and not its loop: {n, u_den, levels: [{unitaries,
rows}, ...]}, with level k on the corner block b = n - k: its T unitaries
and the row counts [r_unitary, r_projection] of its unitary and
projection stages. Every real and imaginary part of a unitary is a
multiple of 1 / u_den, u_den = homotopy.U_DEN = 2^40; the document holds
their integer numerators, and dividing them by the power of two gives
back the contractor's values bit for bit (a numerator is at most
2^40 < 2^53 in modulus). The block, the projection P^b_1 and each
stage's s rows (homotopy._rule_rows) are implied, never stored. Reading
a sheet document gives the recipe, a homotopy.HomotopySheet, without
expanding it; it is expanded, and verified, on the loop document's loop.
All documents are UTF-8 JSON, written compactly with sorted keys.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .homotopy import U_DEN, HomotopySheet, Level, StateLoop


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
    kinds = _entry_kinds(rows, pairs.ndim) - {float, int}
    if kinds:
        raise ValueError("matrix entries must be numbers, got "
                         f"{', '.join(sorted(k.__name__ for k in kinds))} entries")
    return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]


def _entry_kinds(rows, ndim: int) -> set:
    """The types of the entries of nested lists `rows` of depth `ndim`."""
    for _ in range(ndim - 1):
        rows = chain.from_iterable(rows)
    return set(map(type, rows))


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
    """The sheet's recipe: its levels and u_den, and no loop. A NaN or
    infinite entry, which JSON cannot hold, or a unitary entry off its
    dyadic grid raises ValueError."""
    levels = [{"unitaries": _numerators(lv.unitaries), "rows": list(lv.rows)} for lv in sheet.levels]
    return {"n": sheet.n, "u_den": U_DEN, "levels": levels}


def _numerators(unitaries: np.ndarray) -> list:
    """The integer numerators over U_DEN of the unitaries' [re, im] pairs,
    as nested lists."""
    if not np.isfinite(unitaries).all():
        raise ValueError("sheet has non-finite entries")  # inf passes the grid test
    scaled = np.stack([unitaries.real, unitaries.imag], axis=-1) * U_DEN
    if not (scaled == np.round(scaled)).all():
        raise ValueError(f"a unitary holds values that are not multiples of 1/{U_DEN}")
    return scaled.astype(np.int64).tolist()


def _unitaries(rows) -> np.ndarray:
    """Unitaries from nested [re, im] pairs of JSON integer numerators over
    U_DEN (a bool is not one)."""
    pairs = np.array(rows, dtype=np.float64)
    kinds = _entry_kinds(rows, pairs.ndim) - {int}
    if kinds:
        raise ValueError("unitaries hold integer numerators over 'u_den' since the format "
                         f"changed, got {', '.join(sorted(k.__name__ for k in kinds))} entries")
    if pairs.ndim != 4 or pairs.shape[-1] != 2:
        raise ValueError("unitaries must be nested arrays of [re, im] pairs")
    return np.ascontiguousarray(pairs / U_DEN).view(np.complex128)[..., 0]


def _level(doc: dict) -> Level:
    if sorted(doc) != ["rows", "unitaries"]:
        raise ValueError("a level holds 'unitaries' and 'rows' since the format changed, "
                         f"got {sorted(doc)}")
    return Level(_unitaries(doc["unitaries"]), tuple(doc["rows"]))


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document into its recipe, unexpanded: its shapes must
    fit n, and its row counts be positive integers within the budget
    (HomotopySheet). Every unitary entry is a JSON integer over a power of
    two, so finite (a numerator past a double's range raises
    OverflowError). Its cells are judged by verify_homotopy, on the loop
    it is handed."""
    try:
        if sorted(doc) != ["levels", "n", "u_den"]:
            raise ValueError("a sheet document holds 'n', 'u_den' and 'levels' since "
                             f"the format changed, got {sorted(doc)}")
        n = _integer(doc, "n")
        if _integer(doc, "u_den") != U_DEN:
            raise ValueError(f"'u_den' must be {U_DEN}, got {doc['u_den']}")
        levels = [_level(level) for level in doc["levels"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed sheet document: {exc}") from exc
    return HomotopySheet(n, levels)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
