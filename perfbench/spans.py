"""Spans and counts around calls into phaselab's modules, installed from outside.

The wrappers live here, not in the program: `install` replaces each traced
function on its defining module and also in every phaselab module that
imported it by name (``from .states import act`` binds a second reference),
so every call path goes through the wrapper.

A span is (name, start, end, parent, op). Spans are kept in memory while the
run lasts and written out once, at the end. A span's self time is its
duration minus the time covered by its direct children; calls run on one
thread, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _nbytes(out) -> int:
    return int(getattr(out, "nbytes", 0))


def _sheet_cells(sheet) -> int:
    rows, cols = sheet.shape[:2]
    return int(rows) * int(cols)


# Traced layers: (span name, module, attribute path). A span named
# "states.DensityState" is one state validation (its __post_init__);
# the selfcheck suites are traced through the SUITES table that runs them.
LAYERS = [
    ("dimer.projected_equator_map", "phaselab.dimer", "projected_equator_map"),
    ("dimer.bloch_ground_map", "phaselab.dimer", "bloch_ground_map"),
    ("dimer.chain_operators", "phaselab.dimer", "chain_operators"),
    ("linalg.kron_all", "phaselab.linalg", "kron_all"),
    ("linalg.embed_site_operator", "phaselab.linalg", "embed_site_operator"),
    ("linalg.partial_trace", "phaselab.linalg", "partial_trace"),
    ("cech.plaquette_degree", "phaselab.cech", "plaquette_degree"),
    ("projective.elementary_transport", "phaselab.projective", "elementary_transport"),
    ("states.act", "phaselab.states", "act"),
    ("states.DensityState", "phaselab.states", "DensityState.__post_init__"),
    ("homotopy.contract_loop", "phaselab.homotopy", "contract_loop"),
    ("homotopy.rectify_to_projection", "phaselab.homotopy", "rectify_to_projection"),
    ("homotopy.interpolation_safe", "phaselab.homotopy", "interpolation_safe"),
    ("homotopy.disk_phase_lift", "phaselab.homotopy", "disk_phase_lift"),
    ("homotopy.verify_homotopy", "phaselab.homotopy", "verify_homotopy"),
    ("serialize.loop_from_doc", "phaselab.serialize", "loop_from_doc"),
    ("serialize.sheet_to_doc", "phaselab.serialize", "sheet_to_doc"),
    ("serialize.write_doc", "phaselab.serialize", "write_doc"),
]

# Counters fed from a traced function's return value: span -> (counter, measure).
# linalg.bytes_out sums the sizes of the returned arrays: computed, not measured traffic.
COUNTERS = {
    "linalg.kron_all": ("linalg.bytes_out", _nbytes),
    "linalg.embed_site_operator": ("linalg.bytes_out", _nbytes),
    "linalg.partial_trace": ("linalg.bytes_out", _nbytes),
    "homotopy.contract_loop": ("homotopy.sheet_cells", _sheet_cells),
}


class Tracer:
    """Records spans and counts while `op` is set to an operation index."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # [name_id, start, end, parent, op]
        self.counts: Counter = Counter()  # (counter name, op) -> total
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name_id, 0.0, 0.0, self._stack[-1] if self._stack else -1, op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[(counter[0], op)] += counter[1](out)
            return out

        return traced

    def summary(self, ops: list[int]) -> dict:
        """Per-name totals over the given operations: calls and self time."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        wanted = set(ops)
        for idx, (name_id, start, end, _parent, op) in enumerate(self.spans):
            if op in wanted:
                name = self.names[name_id]
                calls[name] += 1
                self_s[name] += (end - start) - child_time[idx]
        return {"calls": calls, "self_s": self_s}

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, round(a - t0, 7), round(b - t0, 7), p, op] for n, a, b, p, op in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, extra: dict | None = None) -> tuple[list, list[str]]:
    """Wrap every layer in LAYERS and each `extra` table entry.

    `extra` maps a span name to (dict, key) for functions reached through a
    table. Returns the undo list for `uninstall` and the layers not found.
    """
    undo = []
    missing = []
    modules = [m for n, m in sys.modules.items() if n.startswith("phaselab") and m is not None]
    for name, module_name, path in LAYERS:
        try:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
        except (KeyError, AttributeError):
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        for mod in modules:
            if mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    for name, (table, key) in (extra or {}).items():
        original = table[key]
        undo.append((table, key, original))
        table[key] = tracer.wrap(name, original)
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)
