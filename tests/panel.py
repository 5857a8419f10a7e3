"""Parity panel: the verdicts and figures of 45 contractions and five
`invariant` runs, against the record in tests/panel.json.

Run from the repository root, with phaselab installed or on PYTHONPATH:

    PYTHONPATH=src python tests/panel.py           # compare with tests/panel.json
    PYTHONPATH=src python tests/panel.py --write   # regenerate tests/panel.json
    PYTHONPATH=src python tests/panel.py --compare OTHER_TREE   # against OTHER_TREE/src

The loops are the bundled pure and plateau loops, constant_loop(3, 10),
and the random loops of n = 3 seeds 1-18 and of n = 4 and 5 seeds 1-12,
at 700 samples. Each records the verifier's verdict and violation kinds,
the sheet's shape, the row counts of each level, max_cell_step and the
column of its cell, safety_min and safety_at, and the byte length of the
sheet document write_sheet writes. Each invariant run, N = 2..5 on 32x64
and N = 2 on 64x128, records its --no-timestamp report. Integers,
strings, booleans and cells compare exactly, floats to a relative
tolerance of REL_TOL. The comparison prints every difference and exits 1
if there is one; it also prints how many recorded floats differ at all,
and the largest relative drift with its path, which does not fail it, so
a record gone stale under REL_TOL shows. That count is machine-dependent:
the record was written on one machine, and another machine's BLAS and
CPU round differently, so it reads the same at a parent and at a change
on the same machine. A change's own drift is what --compare shows. The
record holds one run a line. --compare runs the panel on OTHER_TREE/src
and on this tree's src, each in its own interpreter, and prints every
difference of this tree's runs from the other tree's, as if the other
tree's were the record.
pytest does not collect this file: it takes about 20 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from phaselab import serialize
from phaselab.cli import main
from phaselab.homotopy import (bundled_plateau_loop, bundled_pure_loop, constant_loop, contract_loop,
                               random_based_loop, verify_homotopy)
from phaselab.util import NumericalGateError

RECORD = Path(__file__).with_name("panel.json")
REL_TOL = 1e-9
SAMPLES = 700


def loops():
    """(name, loop factory) of the 45 panel loops."""
    yield "pure", bundled_pure_loop
    yield "plateau", bundled_plateau_loop
    yield "constant-n3", lambda: constant_loop(3, 10)
    for n, seeds in ((3, range(1, 19)), (4, range(1, 13)), (5, range(1, 13))):
        for seed in seeds:
            yield f"random-n{n}-seed{seed}", lambda n=n, seed=seed: random_based_loop(n, seed, SAMPLES)


def contraction(loop) -> dict:
    try:
        sheet = contract_loop(loop)
    except NumericalGateError as exc:
        return {"passed": False, "failure": str(exc)}
    report = verify_homotopy(sheet, loop, loop.modulus)
    return {
        "passed": report.passed,
        "violation_kinds": sorted({v[0] for v in report.violations}),
        "shape": list(report.shape),
        "rows": [list(level.rows) for level in sheet.levels],
        "max_cell_step": report.max_cell_step,
        # not the row: a column's rows space its steps equally, so the first
        # largest is an argmax over ties that rounding can move
        "max_step_column": report.max_step_at[1],
        "safety_min": report.safety_min,
        "safety_at": list(report.safety_at),
        "document_bytes": len(serialize.dumps(serialize.sheet_to_doc(sheet)).encode()) + 1,
    }


def invariant(n_dimers: int, grid: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["invariant", "--n-dimers", str(n_dimers), "--grid", grid, "--no-timestamp"])
    return json.loads(out.getvalue())


def panel() -> dict:
    runs = {name: contraction(make()) for name, make in loops()}
    for n_dimers, grid in ((2, "32x64"), (3, "32x64"), (4, "32x64"), (5, "32x64"), (2, "64x128")):
        runs[f"invariant-n{n_dimers}-{grid}"] = invariant(n_dimers, grid)
    return runs


MISSING = object()


def leaves(want, got, path: str = ""):
    """(path, recorded, now) of each leaf of the record `want` and of `got`,
    MISSING for a key that one of them lacks; lists of different lengths
    are one leaf."""
    if isinstance(want, dict) and isinstance(got, dict):
        yield from ((f"{path}/{k}", want[k], MISSING) for k in want if k not in got)
        yield from ((f"{path}/{k}", MISSING, got[k]) for k in got if k not in want)
        for k in want:
            if k in got:
                yield from leaves(want[k], got[k], f"{path}/{k}")
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            yield from leaves(w, g, f"{path}[{i}]")
    else:
        yield path, want, got


def differences(want, got) -> list[str]:
    """Every place where `got` differs from the record `want`, as text."""
    out = []
    for path, w, g in leaves(want, got):
        if g is MISSING:
            out.append(f"{path}: recorded, now missing")
        elif w is MISSING:
            out.append(f"{path}: new, not recorded")
        else:
            if type(w) is float and type(g) is float:
                same = abs(w - g) <= REL_TOL * max(abs(w), abs(g))
            else:
                same = type(w) is type(g) and w == g
            if not same:
                out.append(f"{path}: recorded {w!r}, now {g!r}")
    return out


DRIFT = "recorded floats that differ at all (machine-dependent; --compare OTHER_TREE gives a change's own drift)"


def drift(want, got) -> str:
    """How many floats of the record `want` differ from `got` at all, and
    the largest relative difference with its path: drift under REL_TOL
    that a stale record shows, and no comparison fails on. The count
    depends on the machine as well as on the tree (see the module
    docstring)."""
    moved = [(abs(w - g) / max(abs(w), abs(g)), path) for path, w, g in leaves(want, got)
             if type(w) is float and type(g) is float and w != g]
    if not moved:
        return f"{DRIFT}: 0"
    rel, path = max(moved)
    return f"{DRIFT}: {len(moved)}; largest relative drift {rel:.3g} at {path}"


def panels_of(trees) -> list[dict]:
    """The panel of each tree's src, each run in its own interpreter, all at
    once."""
    code = "import json, panel; print(json.dumps(panel.panel()))"
    runs = [subprocess.Popen([sys.executable, "-c", code], cwd=RECORD.parent, stdout=subprocess.PIPE,
                             text=True, env={**os.environ, "PYTHONPATH": str(Path(tree, "src").resolve())})
            for tree in trees]
    outs = [r.communicate()[0] for r in runs]
    if any(r.returncode for r in runs):
        raise RuntimeError("a panel run failed")
    return [json.loads(out.splitlines()[-1]) for out in outs]


def run(argv) -> int:
    if len(argv) == 2 and argv[0] == "--compare":
        theirs, got = panels_of([argv[1], RECORD.parent.parent])
        found = differences(theirs, got)
        print("\n".join(found) or f"{len(got)} runs as in {argv[1]}")
        return 1 if found else 0
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 3
    got = panel()
    if argv:
        lines = [f"{json.dumps(name)}: {json.dumps(got[name], sort_keys=True)}" for name in sorted(got)]
        RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {RECORD}: {len(got)} runs")
        return 0
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    found = differences(record, got)
    print("\n".join(found) or f"{len(got)} runs as recorded")
    print(drift(record, got))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
