"""Command-line surface: reproducible runs with JSON reports.

`invariant` reports the sweep's own verdict (`InvariantRecord.passed`),
`contract-loop` the verifier's at the loop's step modulus
(`StateLoop.modulus`), and `selfcheck` passes iff every suite does. Exit
codes: 0 pass, 2 numerical-gate failure, 3 input error (usage errors
included). Each command takes only the flags, and --config keys, it reads,
and every one of them changes what the command computes or writes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

# Each command loads only what it runs: cmd_contract_loop imports homotopy and serialize. These
# stay: the benchmark swaps cli.invariant_sweep, which cmd_invariant calls, and a traced run
# reads phaselab.selfcheck's SUITES from sys.modules after the commands.
from .dimer import ModelConfig, invariant_sweep
from .selfcheck import run_selfcheck
from .supernatural import from_type_sequence, homotopy_table, iso_equivalent, q_contains
from .util import NumericalGateError, is_int, read_doc, tol_scale

EXIT_PASS = 0
EXIT_GATE = 2
EXIT_INPUT = 3


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        k, m = text.lower().split("x")
        return int(k), int(m)
    except ValueError as exc:
        raise ValueError(f"grid must look like 32x64, got {text!r}") from exc


def _is_grid(value) -> bool:
    return isinstance(value, str) or (
        isinstance(value, list) and len(value) == 2 and all(map(is_int, value))
    )


# --config keys each command reads, with the JSON values each accepts; any
# other key or value is an input error
CONFIG_KEYS = {
    "invariant": {"grid": (_is_grid, '"KxM" or [K, M]'), "n_dimers": (is_int, "an integer")},
    "selfcheck": {"seed": (is_int, "an integer")},
}


@functools.lru_cache(maxsize=None)  # built on the first call, not at import; each parse makes a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phaselab")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, config: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        if config:
            keys = ", ".join(sorted(CONFIG_KEYS[name]))
            p.add_argument("--config", help=f"JSON config file ({keys}); flags override it")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--no-timestamp", action="store_true", help="omit the timestamp for byte-stable reports"
        )
        return p

    p_inv = command("invariant", "compute the dimer-chain phase invariant", config=True)
    p_inv.add_argument("--grid", help="S^2 grid as KxM (default 32x64)")
    p_inv.add_argument("--n-dimers", type=int, help="number of dimers N (default 2)")

    p_loop = command("contract-loop", "contract a based state loop")
    p_loop.add_argument("loop", help="loop document (JSON)")
    p_loop.add_argument("--sheet-out", help="write the sheet's recipe, no cells or loop")

    p_check = command("selfcheck", "run the seeded property suites", config=True)
    p_check.add_argument("--seed", type=int, help="seed of the suites' randomness (required)")

    p_super = command("supernatural", "supernatural-number arithmetic")
    p_super.add_argument("--type", required=True, help="divisibility tower, e.g. 2,6,12")
    p_super.add_argument("--tail-ratio", type=int, help="the tower repeats forever with this ratio")
    p_super.add_argument(
        "--contains", action="append", default=[], help="rational to test for Q(a) membership"
    )
    p_super.add_argument("--k-max", type=int, default=4, help="rows of the homotopy table")
    p_super.add_argument("--iso-type", help="second tower to compare for isomorphism")
    p_super.add_argument("--iso-tail-ratio", type=int)
    return parser


def _resolved_model_config(args, file_cfg: dict) -> ModelConfig:
    grid = file_cfg.get("grid")
    if isinstance(grid, str):
        grid = _parse_grid(grid)
    elif grid is not None:
        grid = tuple(grid)
    if args.grid:
        grid = _parse_grid(args.grid)
    return ModelConfig(
        n_dimers=args.n_dimers if args.n_dimers is not None else file_cfg.get("n_dimers", 2),
        grid=grid or (32, 64),
    )


def _emit(report: dict, args) -> None:
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def cmd_invariant(args, file_cfg: dict) -> int:
    cfg = _resolved_model_config(args, file_cfg)
    report = {
        "command": "invariant",
        "config": {
            "n_dimers": cfg.n_dimers,
            "grid": list(cfg.grid),
            "tol_scale": tol_scale(),
        },
    }
    try:
        rec = invariant_sweep(cfg)
    except NumericalGateError as exc:
        report["failure"] = {"kind": "numerical-gate", "message": str(exc)}
        _emit(report, args)
        return EXIT_GATE
    report.update(
        {
            "degree": rec.degree,
            "bloch_degree": rec.bloch_degree,
            "agreement": rec.agreement,
            "max_flux": rec.max_flux,
            "y_overlap_min": rec.y_overlap_min,
            "residuals": {
                "weight_min": rec.weight_min,
                "ray_agreement_min": rec.ray_agreement_min,
                "degree_integrality": rec.integrality,
                "bloch_max_flux": rec.bloch_max_flux,
            },
        }
    )
    report["pass"] = bool(rec.passed)
    _emit(report, args)
    return EXIT_PASS if rec.passed else EXIT_GATE


def cmd_contract_loop(args, file_cfg: dict) -> int:
    from . import serialize
    from .homotopy import SAFETY_FLOOR, contract_loop, verify_homotopy

    loop = serialize.loop_from_doc(read_doc(args.loop))
    report = {
        "command": "contract-loop",
        "config": {
            "loop": args.loop,
            "n": loop.n,
            "n_samples": loop.n_samples,
            "input_step": loop.max_step,
        },
    }
    try:
        sheet = contract_loop(loop)
    except NumericalGateError as exc:
        report["failure"] = {"kind": "numerical-gate", "message": str(exc)}
        _emit(report, args)
        return EXIT_GATE
    verdict = verify_homotopy(sheet, loop, loop.modulus)
    report["verifier"] = {
        "passed": verdict.passed,
        "max_cell_step": verdict.max_cell_step,
        "modulus": loop.modulus,
        "shape": list(verdict.shape),
        "safety_min": verdict.safety_min,
        "safety_margin": verdict.safety_min - SAFETY_FLOOR,
        "safety_at": dict(zip(("level", "stage", "column"), verdict.safety_at)),
        "violations": [
            {"kind": k, "cell": list(cell), "value": val, "bound": bound}
            for k, cell, val, bound in verdict.violations[:32]
        ],
    }
    if args.sheet_out:
        serialize.write_sheet(args.sheet_out, sheet)
        report["sheet_written"] = args.sheet_out
    report["pass"] = verdict.passed
    _emit(report, args)
    return EXIT_PASS if verdict.passed else EXIT_GATE


def cmd_selfcheck(args, file_cfg: dict) -> int:
    seed = args.seed if args.seed is not None else file_cfg.get("seed")
    if seed is None:
        raise ValueError("selfcheck is randomized and needs --seed")
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    results = run_selfcheck(seed)
    report = {
        "command": "selfcheck",
        "config": {"seed": seed, "tol_scale": tol_scale()},
        "suites": [
            {
                "name": r.name,
                "passed": bool(r.passed),
                "worst_residual": float(r.worst_residual) if math.isfinite(r.worst_residual) else None,
                "gate": float(r.gate),
            }
            for r in results
        ],
    }
    all_pass = all(r.passed for r in results)
    report["pass"] = all_pass
    _emit(report, args)
    return EXIT_PASS if all_pass else EXIT_GATE


def cmd_supernatural(args, file_cfg: dict) -> int:
    if args.iso_tail_ratio is not None and not args.iso_type:
        raise ValueError("--iso-tail-ratio takes --iso-type, the tower it extends")
    tower = [int(x) for x in args.type.split(",") if x]
    a = from_type_sequence(tower, tail_ratio=args.tail_ratio)
    membership = {q: q_contains(a, q) for q in args.contains}
    table = [
        {"k": row.k, "unitary": row.unitary_group, "isotropy": row.isotropy_group}
        for row in homotopy_table(a, args.k_max)
    ]
    report = {
        "command": "supernatural",
        "config": {"type": tower, "tail_ratio": args.tail_ratio, "k_max": args.k_max},
        "number": str(a),
        "q_contains": membership,
        "homotopy_table": table,
    }
    if args.iso_type:
        b = from_type_sequence(
            [int(x) for x in args.iso_type.split(",") if x], tail_ratio=args.iso_tail_ratio
        )
        wit = iso_equivalent(a, b)
        report["iso"] = {
            "other": str(b),
            "equivalent": wit.equivalent,
            "c": wit.c,
            "d": wit.d,
        }
    _emit(report, args)
    return EXIT_PASS


def _read_config(args) -> dict:
    """The --config file of commands that take one, checked against the
    keys the command reads; raises ValueError for any input error (OSError
    for a file that cannot be read)."""
    if getattr(args, "config", None) is None:
        return {}
    file_cfg = read_doc(args.config)
    if not isinstance(file_cfg, dict):
        raise ValueError(f"{args.config}: a config file holds one JSON object")
    keys = CONFIG_KEYS[args.command]
    unknown = sorted(set(file_cfg) - set(keys))
    if unknown:
        raise ValueError(f"{args.config}: {args.command} does not read config keys {unknown}")
    for key, value in file_cfg.items():
        valid, expected = keys[key]
        if not valid(value):
            raise ValueError(f"{args.config}: config key {key!r} must be {expected}, got {value!r}")
    return file_cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage error, or the help
        return EXIT_PASS if exc.code == 0 else EXIT_INPUT
    commands = {
        "invariant": cmd_invariant,
        "contract-loop": cmd_contract_loop,
        "selfcheck": cmd_selfcheck,
        "supernatural": cmd_supernatural,
    }
    try:
        return commands[args.command](args, _read_config(args))
    except (OSError, ValueError) as exc:  # a path that cannot be opened, or a bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
