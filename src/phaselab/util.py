"""Shared error types and tolerance scaling."""

from __future__ import annotations

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
