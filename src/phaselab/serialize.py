"""JSON encoding of the artifact's documents.

Matrices are row-major nested arrays of [re, im] pairs. Loops are
{n, samples: [matrix, ...]}. A sheet document holds the contraction's
recipe, not its cells and not its loop: {n, u_den, levels: [{runs,
vectors, phases, rows}, ...]}, with level k on the corner block
b = n - k. Its T unitaries A_t = lambda_t U_t are stored as what they are
rebuilt from (homotopy.level_unitaries): `runs`, the edges
[0, e_1, ..., T] between its near-pure runs and non-pure gaps, which
alternate, starting and ending with a run; `vectors`, the continued top
eigenvector x_t of each run sample, from which projective.transport_to_e0
makes U_t on the runs and the geodesic bridge U_t on the gaps, as one
flat list of 2 b (run samples) integer numerators over
u_den = homotopy.U_DEN = 2^20, sample by sample, each entry's re then im;
and `phases`, the integer k_t of lambda_t = exp(2 pi i k_t / u_den) for
every sample. `rows` holds the row counts [r_unitary, r_projection] of
its unitary and projection stages. A numerator is at most 2^20 < 2^53 in
modulus, so dividing it by the power of two gives back the contractor's
value bit for bit, and the rebuild gives back its unitaries bit for bit.
The block, the projection P^b_1 and each stage's s rows
(homotopy._rule_rows) are implied, never stored.
Reading a sheet document gives the recipe, a homotopy.HomotopySheet,
without expanding it; it is expanded, and verified, on the loop
document's loop. All documents are UTF-8 JSON, written compactly with
sorted keys.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .homotopy import (U_DEN, HomotopySheet, Level, StateLoop, check_level_count, level_unitaries,
                       recipe_levels)


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
    infinite entry, which JSON cannot hold, or a level whose unitaries are
    not the rebuild of the vectors and phases written for it
    (homotopy.level_unitaries) raises ValueError, so a document expands to
    the cells of the recipe it came from and no others."""
    return {"n": sheet.n, "u_den": U_DEN, "levels": [_level_doc(lv) for lv in sheet.levels]}


def _level_doc(level: Level) -> dict:
    if not (np.isfinite(level.unitaries).all() and np.isfinite(level.vectors).all()):
        raise ValueError("sheet has non-finite entries")
    numerators = np.round(np.stack([level.vectors.real, level.vectors.imag], axis=-1) * U_DEN)
    phases = np.asarray(level.phases, dtype=np.int64)
    if not np.array_equal(level_unitaries(level.runs, _vectors(numerators), phases), level.unitaries):
        raise ValueError("a level's unitaries are not the rebuild of its vectors and phases")
    return {"runs": [int(e) for e in level.runs], "vectors": numerators.ravel().astype(np.int64).tolist(),
            "phases": phases.tolist(), "rows": list(level.rows)}


def _vectors(numerators: np.ndarray) -> np.ndarray:
    """Complex vectors from numerators over U_DEN, (..., b, 2) of re, im."""
    return np.ascontiguousarray(numerators / U_DEN).view(np.complex128)[..., 0]


def _integers(values, key: str) -> np.ndarray:
    """A non-empty flat list of JSON integers (a bool is not one) as an
    int64 array."""
    kinds = _entry_kinds(values, 1) - {int}
    if kinds:
        raise ValueError(f"{key!r} holds JSON integers, got "
                         f"{', '.join(sorted(k.__name__ for k in kinds))} entries")
    if not values:
        raise ValueError(f"{key!r} must be a non-empty array")
    return np.array(values, dtype=np.int64)


def _level(doc: dict, b: int) -> tuple:
    """A level document's (runs, vectors, phases, rows), for the level on
    the corner block b: its run edges start at 0, end at T, the number of
    its phases, and increase, so that runs and gaps alternate, starting and
    ending with a run; its vectors are 2 b integer numerators over U_DEN
    per run sample, each entry's re then im."""
    if sorted(doc) != ["phases", "rows", "runs", "vectors"]:
        raise ValueError("a level holds 'runs', 'vectors', 'phases' and 'rows' since the format "
                         f"changed, got {sorted(doc)}")
    phases, runs = _integers(doc["phases"], "phases"), _integers(doc["runs"], "runs")
    if runs[0] != 0 or runs[-1] != len(phases) or len(runs) % 2 or not (np.diff(runs) > 0).all():
        raise ValueError(f"'runs' must rise from 0 to the {len(phases)} phases in an even number "
                         f"of edges, got {runs.tolist()}")
    if list in _entry_kinds(doc["vectors"], 1):
        raise ValueError("'vectors' is one flat list of integers since the format changed")
    numerators = _integers(doc["vectors"], "vectors")
    samples = int((runs[1::2] - runs[0::2]).sum())
    if len(numerators) != 2 * b * samples:
        raise ValueError(f"'vectors' holds 2 b = {2 * b} integers for each of {samples} run samples, "
                         f"{2 * b * samples}, got {len(numerators)}")
    return tuple(runs.tolist()), _vectors(numerators.reshape(samples, b, 2)), phases, tuple(doc["rows"])


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document into its recipe, unexpanded: its shapes must
    fit n, and its row counts be positive integers within the budget, both
    checked before any unitary is rebuilt (homotopy.recipe_levels). Every
    numerator is a JSON integer (one past int64 raises OverflowError), and
    a zero vector has no transport. Its cells are judged by
    verify_homotopy, on the loop it is handed."""
    try:
        if sorted(doc) != ["levels", "n", "u_den"]:
            raise ValueError("a sheet document holds 'n', 'u_den' and 'levels' since "
                             f"the format changed, got {sorted(doc)}")
        n = _integer(doc, "n")
        if _integer(doc, "u_den") != U_DEN:
            raise ValueError(f"'u_den' is {U_DEN} since the format changed, got {doc['u_den']}")
        check_level_count(n, len(doc["levels"]))
        levels = recipe_levels(n, [_level(level, n - k) for k, level in enumerate(doc["levels"])])
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
