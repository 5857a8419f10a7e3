"""JSON encoding of the artifact's documents.

A loop document is {n, format: 2, packed}: the loop's packed rows
(StateLoop.x), n² numbers a sample, sample by sample, as one flat list;
loop_from_doc names what it refuses. A sheet document holds the contraction's
recipe, not its cells and not its loop: {n, u_den, levels: [{runs,
vectors_d2, phases_d1, rows}, ...]}, with level k on the corner block
b = n - k, the fields of its homotopy.Level, from which every expansion
rebuilds its T operators A_t = lambda_t U_t: `runs`, the edges
[0, e_1, ..., T] between its near-pure runs and non-pure gaps, which
alternate, starting and ending with a run; the continued top
eigenvector x_t of each run sample, from which
projective.transport_to_e0 makes U_t on the runs and the geodesic bridge
U_t on the gaps, as 2 b (run samples) integer numerators over
u_den = homotopy.U_DEN = 2^20, sample by sample, each entry's re then
im; and the integer k_t of lambda_t = exp(2 pi i k_t / u_den) for every
sample. `vectors_d2` holds each numerator coordinate's second
differences along each run, and `phases_d1` the first differences of
the k_t, each from zeros before its first value (_differences): x_t
samples a smooth path, so most are small. `rows` holds the row counts
[r_unitary, r_projection] of its unitary and projection stages. A Level
holds these integers, int64 within the range homotopy.HomotopySheet
checks, a numerator of modulus at most 2^20 and a k_t of at most 2^19,
so the writer only differences them; the reader decodes the differences
in int64, refusing any that would leave that range before it sums them
(_decoded), and gives back the contractor's integers exactly. The
operators, the block, the projection P^b_1 and each stage's s rows
(homotopy._rule_rows) are implied, never stored. Reading a sheet document
gives the recipe, a homotopy.HomotopySheet, with no operator rebuilt; it
is expanded, and verified, on the loop document's loop. All documents
are UTF-8 JSON, written compactly with sorted keys.
"""

from __future__ import annotations

import json

import numpy as np

from . import util
from .homotopy import U_DEN, HomotopySheet, Level, StateLoop, check_level_count, check_runs
from .linalg import unpack_hermitian

LOOP_FORMAT = 2
read_doc = util.read_doc  # the one JSON reader, which the CLI's --config takes from util


def _check_entry_kinds(values, kinds: set, key: str, what: str) -> None:
    """ValueError unless every entry of the flat list `values` has a type in `kinds`."""
    others = set(map(type, values)) - kinds
    if others:
        raise ValueError(f"{key!r} holds {what}, got {', '.join(sorted(k.__name__ for k in others))} entries")


def _integer(doc: dict, key: str) -> int:
    """doc[key] if it is a JSON integer (a bool is not), else ValueError."""
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def loop_to_doc(loop: StateLoop) -> dict:
    """The loop's packed rows (StateLoop.x), sample by sample, as one flat list."""
    return {"n": loop.n, "format": LOOP_FORMAT, "packed": loop.x.T.ravel().tolist()}


def loop_from_doc(doc: dict) -> StateLoop:
    """Decode and validate a loop document (loop_to_doc): its format, then
    n, bounded by the packed list of n² JSON numbers (no bool or string)
    for each of three or more samples before anything is unpacked, then the
    StateLoop; every error is a ValueError that names the document once."""
    try:
        version = doc["format"] if "format" in doc else None
        if version is None and "samples" in doc:
            raise ValueError("format 1, each sample nested as [re, im] pairs under 'samples', is no "
                             f"longer read; format {LOOP_FORMAT} holds the packed rows under 'packed'")
        if type(version) is not int or version != LOOP_FORMAT:
            raise ValueError(f"'format' must be {LOOP_FORMAT}, got {version!r}")
        n, packed = _integer(doc, "n"), doc["packed"]
        _check_entry_kinds(packed, {float, int}, "packed", "JSON numbers")
        if n < 2 or len(packed) < 3 * n * n or len(packed) % (n * n):
            raise ValueError("'packed' holds n² numbers for each of at least three samples, n >= 2, "
                             f"got n = {n} and {len(packed)}")
        return StateLoop(n, unpack_hermitian(np.array(packed, dtype=np.float64).reshape(-1, n * n).T))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid loop document: {exc}") from exc


def sheet_to_doc(sheet: HomotopySheet) -> dict:
    """The sheet's recipe: its levels and u_den, and no loop. Its integers
    are the ones HomotopySheet checked, so the document decodes to them
    and expands to the cells of the recipe it came from and no others."""
    return {"n": sheet.n, "u_den": U_DEN, "levels": [_level_doc(lv) for lv in sheet.levels]}


def _level_doc(level: Level) -> dict:
    lengths = np.diff(level.runs)[::2]
    return {"runs": [int(e) for e in level.runs], "rows": list(level.rows),
            "vectors_d2": _differences(level.vectors, lengths, 2).ravel().tolist(),
            "phases_d1": _differences(level.phases, [len(level.phases)], 1).tolist()}


def _differences(values: np.ndarray, lengths, order: int) -> np.ndarray:
    """The order-th differences of values (samples, ...) along axis 0, each
    run of `lengths` samples differenced from zeros before its start."""
    starts = np.cumsum(lengths) - lengths
    for _ in range(order):
        previous = np.concatenate([np.zeros_like(values[:1]), values[:-1]])
        previous[starts] = 0
        values = values - previous
    return values


def _decoded(steps: np.ndarray, lengths, order: int, bound: int, key: str) -> np.ndarray:
    """The integers (samples, ...) whose order-th differences along each run
    of `lengths` samples are `steps` (_differences), each at most `bound`
    in modulus. The k-th differences of values within the bound are within
    2^k bound, so an entry past that raises ValueError before it is summed,
    and a sum of fewer than 2^40 entries within 2^22 stays within int64."""
    ends = np.cumsum(lengths)[:-1]
    for k in range(order, -1, -1):
        past = np.flatnonzero((steps > bound << k) | (steps < -(bound << k)))
        if past.size:
            what = f"a difference of order {k}" if k else "a value"
            raise ValueError(f"{key!r} does not decode within {bound} in modulus: {what} reads "
                             f"{steps.flat[past[0]]}, past {bound << k}")
        if k:
            sums = np.cumsum(steps, axis=0)
            before = np.concatenate([np.zeros_like(sums[:1]), sums[ends - 1]])  # each run's offset
            steps = sums - np.repeat(before, lengths, axis=0)
    return steps


def _integers(values, key: str) -> np.ndarray:
    """A non-empty flat list of JSON integers (a bool is not one) as an
    int64 array."""
    _check_entry_kinds(values, {int}, key, "JSON integers")
    if not values:
        raise ValueError(f"{key!r} must be a non-empty array")
    return np.array(values, dtype=np.int64)


def _level(doc: dict, b: int) -> Level:
    """A level document's Level, on the corner block b: its run edges and its
    vectors, 2 b integer numerators over U_DEN per run sample, re then im,
    fit its T phases (check_runs); the vectors are stored as second differences
    along each run and the phases as first differences, decoded within the
    recipe's range (_decoded), and no vector is zero: it has no transport."""
    if sorted(doc) != ["phases_d1", "rows", "runs", "vectors_d2"]:
        raise ValueError("a level holds 'runs', 'vectors_d2', 'phases_d1' and 'rows' since the "
                         f"format changed, got {sorted(doc)}")
    phase_steps, runs, vector_steps = (_integers(doc[key], key) for key in ("phases_d1", "runs", "vectors_d2"))
    lengths = check_runs(runs, len(phase_steps), b, len(vector_steps), "'vectors_d2'")
    vectors = _decoded(vector_steps.reshape(-1, 2 * b), lengths, 2, U_DEN, "vectors_d2")
    phases = _decoded(phase_steps, [len(phase_steps)], 1, U_DEN // 2, "phases_d1")
    if not vectors.any(axis=-1).all():
        raise ValueError("zero vector does not represent a ray")
    return Level(tuple(doc["rows"]), tuple(runs.tolist()), vectors, phases)


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document into its recipe, unexpanded, with no
    operator rebuilt: every difference is a JSON integer (one past int64
    raises OverflowError) that decodes within the recipe's range
    (_decoded), no run vector is zero (_level), and the HomotopySheet made
    of the levels checks them as it checks the contractor's. Its cells are
    judged by verify_homotopy, on the loop it is handed."""
    try:
        if sorted(doc) != ["levels", "n", "u_den"]:
            raise ValueError("a sheet document holds 'n', 'u_den' and 'levels' since "
                             f"the format changed, got {sorted(doc)}")
        n = _integer(doc, "n")
        if _integer(doc, "u_den") != U_DEN:
            raise ValueError(f"'u_den' is {U_DEN} since the format changed, got {doc['u_den']}")
        check_level_count(n, len(doc["levels"]))
        return HomotopySheet(n, [_level(level, n - k) for k, level in enumerate(doc["levels"])])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed sheet document: {exc}") from exc


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_sheet(path: str, sheet: HomotopySheet):
    """Write the sheet document (sheet_to_doc). It refuses nothing: a
    recipe off the grid is refused where the HomotopySheet is made."""
    write_doc(path, sheet_to_doc(sheet))


def write_doc(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
        fh.write("\n")
