"""Shared error types, tolerance scaling and the JSON document reader."""

from __future__ import annotations

import json
import os


class NumericalGateError(RuntimeError):
    """A numerical acceptance gate failed (distinct from bad input)."""


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def tol_scale() -> float:
    """Global tolerance multiplier from PHASELAB_TOL_SCALE (default 1),
    finite and > 0: an infinite scale would turn the scaled gates off."""
    raw = os.environ.get("PHASELAB_TOL_SCALE", "1")
    try:
        val = float(raw)
    except ValueError as exc:
        raise ValueError(f"PHASELAB_TOL_SCALE={raw!r} is not a number") from exc
    if not 0.0 < val < float("inf"):  # also refuses NaN
        raise ValueError(f"PHASELAB_TOL_SCALE must be finite and > 0, got {raw!r}")
    return val


def read_doc(path: str) -> dict:
    """The JSON document at `path`; bad JSON raises ValueError
    'path:line:col: msg', and JSON nested past the interpreter's recursion
    limit ValueError 'path: ...'."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
