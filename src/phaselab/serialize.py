"""JSON encoding of the artifact's documents.

Complex scalars are [re, im] pairs, matrices row-major nested arrays,
covers {charts, overlaps: {"i,j": [points]}, triples: {...}}, loops
{n, samples: [matrix, ...]} and sheets {n, rows: [[matrix, ...], ...]}.
All documents are UTF-8 JSON.
"""

from __future__ import annotations

import json

import numpy as np

from .cech import PUCochain1, SampledCover, U1Cochain1
from .homotopy import HomotopySheet, StateLoop
from .states import DensityState, validate_densities


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(pair) -> complex:
    return complex(pair[0], pair[1])


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


def encode_vector(v: np.ndarray) -> list:
    return [encode_complex(z) for z in np.asarray(v, dtype=np.complex128).ravel()]


def decode_vector(entries) -> np.ndarray:
    return np.array([decode_complex(z) for z in entries], dtype=np.complex128)


def loop_to_doc(loop: StateLoop) -> dict:
    return {"n": loop.n, "samples": encode_matrix(loop.as_array())}


def loop_from_doc(doc: dict) -> StateLoop:
    try:
        n = int(doc["n"])
        rhos = decode_matrix(doc["samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed loop document: {exc}") from exc
    return StateLoop(n, [DensityState(rho) for rho in rhos])


def sheet_to_doc(sheet: HomotopySheet) -> dict:
    return {"n": sheet.n, "rows": encode_matrix(sheet.as_array()), "meta": sheet.meta}


def sheet_from_doc(doc: dict) -> HomotopySheet:
    """Decode a sheet document; every cell is validated as a state."""
    try:
        cells = decode_matrix(doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sheet document: {exc}") from exc
    return HomotopySheet(int(doc["n"]), validate_densities(cells), list(doc.get("meta", [])))


def _key(ids) -> str:
    return ",".join(str(i) for i in ids)


def _unkey(key: str, charts: dict) -> tuple:
    return tuple(charts[part] for part in key.split(","))


def cover_to_doc(cover: SampledCover) -> dict:
    return {
        "charts": list(cover.chart_ids),
        "overlaps": {_key(pair): [list(p) for p in pts] for pair, pts in cover.overlaps.items()},
        "triples": {_key(trip): [list(p) for p in pts] for trip, pts in cover.triples.items()},
    }


def cover_from_doc(doc: dict) -> SampledCover:
    charts = list(doc["charts"])
    by_name = {str(c): c for c in charts}
    overlaps = {
        _unkey(k, by_name): [tuple(p) for p in pts] for k, pts in doc.get("overlaps", {}).items()
    }
    triples = {
        _unkey(k, by_name): [tuple(p) for p in pts] for k, pts in doc.get("triples", {}).items()
    }
    return SampledCover(charts, overlaps, triples)


def u1_cochain_to_doc(c: U1Cochain1) -> dict:
    return {"values": {_key(pair): [encode_complex(z) for z in arr] for pair, arr in c.values.items()}}


def u1_cochain_from_doc(doc: dict, cover: SampledCover) -> U1Cochain1:
    by_name = {str(c): c for c in cover.chart_ids}
    values = {
        _unkey(k, by_name): np.array([decode_complex(z) for z in arr], dtype=np.complex128)
        for k, arr in doc["values"].items()
    }
    return U1Cochain1(cover, values)


def pu_cochain_to_doc(c: PUCochain1) -> dict:
    return {"values": {_key(pair): [encode_matrix(m) for m in mats] for pair, mats in c.values.items()}}


def pu_cochain_from_doc(doc: dict, cover: SampledCover) -> PUCochain1:
    by_name = {str(c): c for c in cover.chart_ids}
    values = {
        _unkey(k, by_name): [decode_matrix(m) for m in mats] for k, mats in doc["values"].items()
    }
    return PUCochain1(cover, values)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_doc(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def read_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
