"""JSON encoding of the artifact's documents.

Matrices are row-major nested arrays of [re, im] pairs. Loops are
{n, samples: [matrix, ...]}. A sheet document holds the contraction's
recipe, not its cells and not its loop: {n, s_den, u_den, levels:
[{unitaries, s_unitary, s_projection}, ...]}, with level k on the corner
block b = n - k: its T unitaries and the rows x T tables of interpolation
parameters of its unitary and projection stages. Every s is a multiple of
1 / s_den, s_den = homotopy.S_DEN = 65536, and every real and imaginary
part of a unitary a multiple of 1 / u_den, u_den = homotopy.U_DEN = 2^40;
the document holds their integer numerators, and dividing them by the
power of two gives back the contractor's values bit for bit (a numerator
of a unitary's entry is at most 2^40 < 2^53 in modulus). The block and
the projection P^b_1 are implied, never stored. Reading a sheet document
gives the recipe, a homotopy.HomotopySheet, without expanding it; it is
expanded, and verified, on the loop document's loop. All documents are UTF-8 JSON,
written compactly with sorted keys.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .homotopy import S_DEN, U_DEN, HomotopySheet, Level, StateLoop


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
    """The sheet's recipe: its levels, s_den and u_den, and no loop. A NaN
    or infinite entry, which JSON cannot hold, or an s or a unitary off its
    dyadic grid raises ValueError."""
    if not all(np.isfinite(a).all() for lv in sheet.levels for a in lv):
        raise ValueError("sheet has non-finite entries")  # inf passes the grid test
    levels = [
        {"unitaries": _numerators(np.stack([lv.unitaries.real, lv.unitaries.imag], axis=-1),
                                  U_DEN, "a unitary"),
         "s_unitary": _numerators(lv.s_unitary, S_DEN, "an s table"),
         "s_projection": _numerators(lv.s_projection, S_DEN, "an s table")}
        for lv in sheet.levels
    ]
    return {"n": sheet.n, "s_den": S_DEN, "u_den": U_DEN, "levels": levels}


def _numerators(values: np.ndarray, den: int, what: str) -> list:
    """The integer numerators over `den` of real values, as nested lists."""
    scaled = values * den
    if not (scaled == np.round(scaled)).all():
        raise ValueError(f"{what} holds values that are not multiples of 1/{den}")
    return scaled.astype(np.int64).tolist()


def _from_numerators(rows, den: int, what: str, den_key: str) -> np.ndarray:
    """Real values from nested rows of JSON integer numerators over `den`
    (a bool is not one)."""
    values = np.array(rows, dtype=np.float64)
    kinds = _entry_kinds(rows, values.ndim) - {int}
    if kinds:
        raise ValueError(f"{what} hold integer numerators over {den_key!r} since the format "
                         f"changed, got {', '.join(sorted(k.__name__ for k in kinds))} entries")
    return values / den


def _unitaries(rows) -> np.ndarray:
    pairs = _from_numerators(rows, U_DEN, "unitaries", "u_den")
    if pairs.ndim != 4 or pairs.shape[-1] != 2:
        raise ValueError("unitaries must be nested arrays of [re, im] pairs")
    return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]


def _level(doc: dict) -> Level:
    if sorted(doc) != ["s_projection", "s_unitary", "unitaries"]:
        raise ValueError("a level holds 'unitaries', 's_unitary' and 's_projection' since the "
                         f"format changed, got {sorted(doc)}")
    s_unitary, s_projection = (_from_numerators(doc[key], S_DEN, "s tables", "s_den")
                               for key in ("s_unitary", "s_projection"))
    return Level(_unitaries(doc["unitaries"]), s_unitary, s_projection)


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document into its recipe, unexpanded: its shapes must
    fit n. Every entry is a JSON integer over a power of two, so finite (a
    numerator past a double's range raises OverflowError). Its cells are
    judged by verify_homotopy, on the loop it is handed."""
    try:
        if sorted(doc) != ["levels", "n", "s_den", "u_den"]:
            raise ValueError("a sheet document holds 'n', 's_den', 'u_den' and 'levels' since "
                             f"the format changed, got {sorted(doc)}")
        n = _integer(doc, "n")
        for key, den in (("s_den", S_DEN), ("u_den", U_DEN)):
            if _integer(doc, key) != den:
                raise ValueError(f"{key!r} must be {den}, got {doc[key]}")
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
