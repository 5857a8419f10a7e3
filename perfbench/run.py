"""phaselab benchmark: the two certified results, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload invariant-deep --seed 1 --seconds 16 --trace 0

Each run is one fresh interpreter for one workload. It imports phaselab from
this checkout's src/, builds the workload's inputs from the seed, calls
`phaselab.cli.main` in-process on a fixed number of operations, checks every
output, and prints one JSON object as the last line of stdout. With
--trace 0 the object holds the end-to-end metrics; with --trace 1 it holds
per-layer metrics from spans recorded around the calls into each module
(see spans.py). NOTES.md explains the workloads, metrics and known defect.
"""

from __future__ import annotations

import os

# One BLAS thread. The reference machine has 2 shared cores: a second BLAS
# thread made invariant-deep slower there (8.8 s against 7.4 s an operation)
# and tied its wall time to whatever else ran on the other core. Set before
# phaselab (and with it numpy) is imported; the import probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 3
# The random loops contracted by contract-random: the first two seeds of
# homotopy.random_based_loop. Seed 1 hits the known transport defect (see
# NOTES.md), seed 2 certifies. The panel is the same for every workload seed:
# a seed-drawn panel of two loops fails 0, 1 or 2 times by chance.
LOOP_SEEDS = (1, 2)
LOOP_N, LOOP_SAMPLES = 3, 700
SUITES = ("metric-identities", "partial-trace", "gns", "cech", "supernatural")

# Calibration: the machine's speed drifts by up to 1.7x over minutes (see
# NOTES.md), so every time metric is scaled to reference seconds by a fixed
# kernel timed between the operations of the same run. CAL_REF_S is the
# kernel's median time on the reference machine; CAL_REPS is about how many
# kernel repetitions a run spreads over the gaps between its operations.
CAL_REF_S = 0.12
CAL_REPS = 24

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import phaselab.cli; print(time.perf_counter() - t)"
)


@dataclass
class Op:
    """One CLI command. `check` gets its parsed report and raw stdout after a
    zero exit and returns a problem or None; `verify`, if set, gets the report
    after the timed phase and does the same."""

    argv: list[str]
    check: Callable[[dict, str], str | None]
    verify: Callable[[dict], str | None] | None = None
    cert: Path | None = None  # certificate file the command writes


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    status: str  # "ok", "error" (raised or nonzero exit) or "wrong" (bad output)
    detail: str
    cert_bytes: int
    report: dict | None
    scale: float = 1.0  # to reference seconds, from the calibration around the op


# --- workloads ----------------------------------------------------------------


def invariant_workload(n_dimers: int, grid: str):
    def prepare(seed: int, workdir: Path, rounds: int) -> list[Op]:
        from phaselab import dimer

        # fill the chain-operator cache, from empty, before timing
        cache = getattr(dimer, "_CHAIN_CACHE", None)
        if cache is not None:
            cache.clear()
        if hasattr(dimer, "chain_operators"):
            dimer.chain_operators(2 * n_dimers)
        first: list[str] = []

        def check(rep: dict, stdout: str) -> str | None:
            if not first:
                first.append(stdout)
            if rep.get("degree") != rep.get("bloch_degree"):
                return f"degree {rep.get('degree')} != bloch degree {rep.get('bloch_degree')}"
            if abs(rep["degree"]) != 1:
                return f"|degree| = {abs(rep['degree'])}, expected 1"
            if rep.get("pass") is not True:
                return "report does not pass"
            if stdout != first[0]:
                return "report differs from the first report of this run"
            return None

        argv = ["invariant", "--n-dimers", str(n_dimers), "--grid", grid, "--no-timestamp"]
        return [Op(argv, check) for _ in range(rounds)]

    return prepare


def contract_prepare(seed: int, workdir: Path, rounds: int) -> list[Op]:
    from phaselab import homotopy, serialize

    panel = []
    for loop_seed in LOOP_SEEDS:
        loop = homotopy.random_based_loop(LOOP_N, loop_seed, LOOP_SAMPLES)
        doc = workdir / f"loop-{loop_seed}.json"
        serialize.write_doc(str(doc), serialize.loop_to_doc(loop))

        def verify(rep: dict, loop=loop) -> str | None:
            sheet = serialize.sheet_from_doc(serialize.read_doc(rep["sheet_written"]))
            verdict = homotopy.verify_homotopy(sheet, loop, rep["verifier"]["modulus"])
            return None if verdict.passed else f"read-back sheet fails: {verdict.summary()}"

        panel.append((loop_seed, doc, verify))

    def check(rep: dict, stdout: str) -> str | None:
        if rep.get("pass") is not True or not rep.get("verifier", {}).get("passed"):
            return "verifier does not pass"
        if not rep.get("sheet_written"):
            return "no sheet written"
        return None

    ops = []
    for r in range(rounds):
        for loop_seed, doc, verify in panel:
            sheet = workdir / f"sheet-{loop_seed}-{r}.json"
            argv = ["contract-loop", str(doc), "--sheet-out", str(sheet)]
            ops.append(Op(argv, check, verify, sheet))
    return ops


def selfcheck_prepare(seed: int, workdir: Path, rounds: int) -> list[Op]:
    def check(rep: dict, stdout: str) -> str | None:
        failing = [s["name"] for s in rep.get("suites", []) if not s.get("passed")]
        if failing or rep.get("pass") is not True:
            return f"suites fail: {failing}"
        if sorted(s["name"] for s in rep["suites"]) != sorted(SUITES):
            return "unexpected suite list"
        return None

    return [Op(["selfcheck", "--seed", str(seed * 1000 + r)], check) for r in range(rounds)]


@dataclass
class Workload:
    prepare: Callable[[int, Path, int], list[Op]]
    round_s: float  # one operation (a loop panel for contract-random), reference machine


# Operation counts are fixed per run from --seconds and round_s, so that
# `attempted`, and with it error_rate, does not depend on the speed of the
# code under test.
WORKLOADS = {
    "invariant-deep": Workload(invariant_workload(4, "32x64"), 8.0),
    "invariant-wide": Workload(invariant_workload(2, "64x128"), 3.2),
    "contract-random": Workload(contract_prepare, 22.0),
    "selfcheck": Workload(selfcheck_prepare, 0.8),
}


# --- measurement ----------------------------------------------------------------


class Calibration:
    """A fixed kernel that does not touch phaselab, in three parts that
    mirror the kinds of work the workloads do: Kronecker products of eight
    2x2 unitaries conjugating a 256x256 complex matrix (the dense chain
    products of invariant-deep), many numpy calls on 4x4 matrices (the
    small-operand work of invariant-wide, contract-random and selfcheck),
    and a dictionary loop (their interpreter work)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)

        def gaussian(n):
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        self._np = np
        self._us = [np.linalg.qr(gaussian(2))[0] for _ in range(8)]
        self._a = gaussian(256)
        h = gaussian(4)
        self._h = h + h.conj().T
        self.samples: list[float] = []
        self.parts: list[list[float]] = []
        self._kernel()  # warm-up, not recorded
        self.parts.clear()

    def _kernel(self) -> float:
        np = self._np
        t0 = perf_counter()
        marks = [t0]
        for _ in range(8):
            u = self._us[0]
            for factor in self._us[1:]:
                u = np.kron(u, factor)
            u @ self._a @ u.conj().T
        marks.append(perf_counter())
        for _ in range(1000):
            _, vecs = np.linalg.eigh(self._h)
            np.kron(vecs[:, :2], self._us[0])
        marks.append(perf_counter())
        counts: dict[int, int] = {}
        for i in range(150_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        t1 = perf_counter()
        self.parts.append([marks[1] - marks[0], marks[2] - marks[1], t1 - marks[2]])
        return t1 - t0

    def sample(self, reps: int) -> list[float]:
        new = [self._kernel() for _ in range(reps)]
        self.samples.extend(new)
        return new

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        return CAL_REF_S / statistics.median(self.samples)



def run_ops(main, ops: list[Op], tracer: spans.Tracer | None = None, op_base: int = 0,
            cal: Calibration | None = None):
    """Time each command and check its output. A raised exception, a nonzero
    exit or a wrong output is a failure of that operation, not of the run.
    With `cal`, the calibration kernel runs before each command and after
    the last, CAL_REPS times in all, outside the timed regions; each
    outcome's scale comes from the kernel runs just before and after it."""
    gap_reps = max(1, math.ceil(CAL_REPS / (len(ops) + 1)))
    gaps = []
    outcomes = []
    for i, op in enumerate(ops):
        if cal is not None:
            gaps.append(cal.sample(gap_reps))
        out, err = io.StringIO(), io.StringIO()
        rc = None
        raised = None
        if tracer is not None:
            tracer.op = op_base + i
        w0, c0 = perf_counter(), process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(op.argv)
        except Exception as exc:  # an operation failure, counted below
            raised = exc
        wall, cpu = perf_counter() - w0, process_time() - c0
        if tracer is not None:
            tracer.op = None
        stdout = out.getvalue()
        report = None
        if raised is not None:
            status, detail = "error", f"raised {type(raised).__name__}: {raised}"
        elif rc != 0:
            status, detail = "error", f"exit {rc}: {err.getvalue().strip()[:200]}"
        else:
            try:
                report = json.loads(stdout)
                problem = op.check(report, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report: {exc}"
            status, detail = ("wrong", problem) if problem else ("ok", "")
        cert = len(stdout.encode())
        if op.cert is not None:
            cert = op.cert.stat().st_size if status == "ok" and op.cert.is_file() else 0
        outcomes.append(Outcome(wall, cpu, status, detail, cert, report))
    if cal is not None:
        gaps.append(cal.sample(gap_reps))
        for i, oc in enumerate(outcomes):
            oc.scale = CAL_REF_S / statistics.median(gaps[i] + gaps[i + 1])
    return outcomes


def verify_deferred(ops: list[Op], outcomes: list[Outcome]) -> None:
    """Checks that read certificates back, run after the timed phase."""
    for op, oc in zip(ops, outcomes):
        if op.verify is None or oc.status != "ok":
            continue
        try:
            problem = op.verify(oc.report)
        except (OSError, ValueError, KeyError) as exc:
            problem = f"read-back failed: {exc}"
        if problem:
            oc.status, oc.detail = "wrong", problem


def setup(workload: Workload, seed: int, workdir: Path, rounds: int, import_s: float):
    """Set up SETUP_REPEATS times: import phaselab (this process's own import,
    then fresh interpreters) plus input generation and cache filling."""
    samples = []
    ops = []
    for k in range(SETUP_REPEATS):
        if k == 0:
            imp = import_s
        else:
            probe = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
            )
            imp = float(probe.stdout.strip().splitlines()[-1])
        t0 = perf_counter()
        ops = workload.prepare(seed, workdir, rounds)
        samples.append(imp + perf_counter() - t0)
    return ops, samples


def error_rate(failed: int, attempted: int) -> float:
    """Rule-of-succession estimate (failed + 1) / (attempted + 2) of the
    per-operation failure probability: never 0, and raised by each failure."""
    return (failed + 1) / (attempted + 2)


def end_to_end(outcomes: list[Outcome], setup_samples: list[float], rss_kb: int,
               scale: float = 1.0) -> dict:
    """End-to-end metrics in reference seconds: each operation's times are
    scaled by its own calibration, set-up times by the run's `scale`."""
    written = [o.cert_bytes for o in outcomes if o.status == "ok"]
    failed = sum(o.status != "ok" for o in outcomes)
    return {
        "wall_s": (statistics.median(o.scale * o.wall_s for o in outcomes), "s"),
        "cpu_s": (statistics.median(o.scale * o.cpu_s for o in outcomes), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (scale * statistics.median(setup_samples), "s"),
        "error_rate": (error_rate(failed, len(outcomes)), "ratio"),
        "sheet_bytes": (statistics.median(written) if written else 0, "B"),
    }


def per_layer(tracer: spans.Tracer, traced: list[Outcome], untraced: list[Outcome],
              op_base: int, scale: float = 1.0) -> dict:
    """Per-layer metrics, per operation; times in reference seconds, scaled
    by the run's `scale`."""
    ops = list(range(op_base, op_base + len(traced)))
    n = len(ops)
    summary = tracer.summary(ops)
    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {}
    for name, _module, _path in spans.LAYERS:
        if name in ("states.DensityState", "homotopy.contract_loop"):
            continue  # reported below as validations and through sheet_cells
        metrics[f"{name}.calls"] = (calls[name] / n, "count")
        metrics[f"{name}.self_s"] = (scale * self_s[name] / n, "s")
    metrics["states.DensityState.validations"] = (calls["states.DensityState"] / n, "count")
    metrics["states.DensityState.validate_s"] = (
        scale * self_s["states.DensityState"] / n, "s"
    )
    metrics["linalg.bytes_out"] = (
        sum(tracer.counts[("linalg.bytes_out", op)] for op in ops) / n, "B"
    )
    sheets = [op for op in ops if tracer.counts[("homotopy.sheet_cells", op)] > 0]
    cells = sum(tracer.counts[("homotopy.sheet_cells", op)] for op in sheets)
    validations = tracer.summary(sheets)["calls"]["states.DensityState"] if sheets else 0
    metrics["homotopy.sheet_cells"] = (cells / len(sheets) if sheets else 0, "count")
    metrics["homotopy.validations_per_cell"] = (validations / cells if cells else 0, "ratio")
    for suite in SUITES:
        metrics[f"selfcheck.{suite}.self_s"] = (scale * self_s[f"selfcheck.{suite}"] / n, "s")
    metrics["cli.main.self_s"] = (scale * self_s["cli.main"] / n, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(o.scale * o.wall_s for o in traced)
        - statistics.median(o.scale * o.wall_s for o in untraced),
        "s",
    )
    return metrics


# --- machine block ----------------------------------------------------------------


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


# --- entry point ----------------------------------------------------------------


def import_program():
    """Import phaselab from this checkout's src/ and nowhere else."""
    if not (SRC / "phaselab" / "__init__.py").is_file():
        raise SystemExit(f"error: no phaselab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import phaselab.cli

    import_s = perf_counter() - t0
    if not Path(phaselab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: phaselab imported from {phaselab.cli.__file__}, not {SRC}")
    return phaselab.cli, import_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, import_s = import_program()
    workload = WORKLOADS[args.workload]
    rounds = max(1, math.ceil(args.seconds / workload.round_s))
    print("machine " + json.dumps(machine(), sort_keys=True))

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        t_setup = perf_counter()
        ops, setup_samples = setup(workload, args.seed, workdir, rounds, import_s)
        t_ops = perf_counter()
        cal = Calibration()
        outcomes = run_ops(cli.main, ops, cal=cal)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t_checks = perf_counter()
        verify_deferred(ops, outcomes)
        t_end = perf_counter()
        if args.trace:
            tracer = spans.Tracer()
            suites = sys.modules["phaselab.selfcheck"].SUITES
            undo, missing = spans.install(
                tracer, {f"selfcheck.{name}": (suites, name) for name in suites}
            )
            try:
                traced = run_ops(tracer.wrap("cli.main", cli.main), ops, tracer, len(ops), cal)
            finally:
                spans.uninstall(undo)
            verify_deferred(ops, traced)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            if missing:
                print("layers not found: " + ", ".join(missing))
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            metrics = per_layer(tracer, traced, outcomes, len(ops), cal.scale())
            all_outcomes = outcomes + traced
        else:
            metrics = end_to_end(outcomes, setup_samples, rss_kb, cal.scale())
            all_outcomes = outcomes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"setup samples {[round(s, 4) for s in setup_samples]}")
    print(f"phases: set-up {t_ops - t_setup:.2f} s, operations {t_checks - t_ops:.2f} s "
          f"(calibration {sum(cal.samples):.2f} s), read-back checks {t_end - t_checks:.2f} s")
    print("calibration parts " + json.dumps(cal.parts))
    print(f"calibration: {len(cal.samples)} kernel runs, median "
          f"{statistics.median(cal.samples):.4f} s, reference {CAL_REF_S} s, "
          f"scale {cal.scale():.4f}; op lines give unscaled times and each op's scale")
    for i, oc in enumerate(all_outcomes):
        print(f"  op {i}: {oc.status} wall {oc.wall_s:.4f} s cpu {oc.cpu_s:.4f} s "
              f"scale {oc.scale:.4f} "
              f"cert {oc.cert_bytes} B {oc.detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    failed = sum(o.status != "ok" for o in all_outcomes)
    result = {
        "correct": not any(o.status == "wrong" for o in all_outcomes),
        "attempted": len(all_outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
