"""Command-line surface: reproducible runs with JSON reports.

Exit codes: 0 pass, 2 numerical-gate failure, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import serialize
from .dimer import ModelConfig, invariant_sweep
from .homotopy import contract_loop, verify_homotopy
from .selfcheck import run_selfcheck
from .supernatural import from_type_sequence, homotopy_table, iso_equivalent, q_contains
from .util import NumericalGateError, tol_scale

EXIT_PASS = 0
EXIT_GATE = 2
EXIT_INPUT = 3


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        k, m = text.lower().split("x")
        return int(k), int(m)
    except ValueError as exc:
        raise ValueError(f"grid must look like 32x64, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its entries")
    common.add_argument("--seed", type=int, help="seed for randomized commands")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--grid", help="S^2 grid as KxM (default 32x64)")
    common.add_argument("--n-dimers", type=int, help="number of dimers N (default 2)")
    common.add_argument("--epsilon", type=float, help="band half-width (default 0.25)")
    common.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp for byte-stable reports"
    )

    parser = argparse.ArgumentParser(prog="phaselab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser(
        "invariant", parents=[common], help="compute the dimer-chain phase invariant"
    )
    p_inv.add_argument(
        "--constant-field",
        action="store_true",
        help="debug: replace the projected field by a constant ray (degree 0)",
    )

    p_loop = sub.add_parser(
        "contract-loop", parents=[common], help="contract a based state loop"
    )
    p_loop.add_argument("loop", help="loop document (JSON)")
    p_loop.add_argument("--sheet-out", help="write the full homotopy sheet here")
    p_loop.add_argument(
        "--modulus-factor",
        type=float,
        default=5.0,
        help="verifier modulus as a multiple of the input step (default 5)",
    )

    p_check = sub.add_parser(
        "selfcheck", parents=[common], help="run the seeded property suites"
    )
    p_check.add_argument("--inject-fault", help="test mode: force the named suite to fail")

    p_super = sub.add_parser(
        "supernatural", parents=[common], help="supernatural-number arithmetic"
    )
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
        grid = (int(grid[0]), int(grid[1]))
    if args.grid:
        grid = _parse_grid(args.grid)
    return ModelConfig(
        epsilon=args.epsilon if args.epsilon is not None else file_cfg.get("epsilon", 0.25),
        n_dimers=args.n_dimers if args.n_dimers is not None else file_cfg.get("n_dimers", 2),
        grid=grid or (32, 64),
    )


def _emit(report: dict, args) -> None:
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = json.dumps(report, sort_keys=True, indent=2)
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
            "epsilon": cfg.epsilon,
            "n_dimers": cfg.n_dimers,
            "grid": list(cfg.grid),
            "constant_field": bool(args.constant_field),
            "tol_scale": tol_scale(),
        },
    }
    try:
        rec = invariant_sweep(cfg, constant_field=args.constant_field)
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
    scale = tol_scale()
    gates_pass = (
        rec.agreement
        and rec.y_overlap_min >= 1 - 0.01 * scale
        and rec.ray_agreement_min >= 1 - 1e-8 * scale
    )
    report["pass"] = bool(gates_pass)
    _emit(report, args)
    return EXIT_PASS if gates_pass else EXIT_GATE


def cmd_contract_loop(args, file_cfg: dict) -> int:
    try:
        doc = serialize.read_doc(args.loop)
    except FileNotFoundError:
        print(f"error: no such loop file: {args.loop}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: {args.loop}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    try:
        loop = serialize.loop_from_doc(doc)
    except ValueError as exc:
        print(f"error: invalid loop document: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = {
        "command": "contract-loop",
        "config": {
            "loop": args.loop,
            "n": loop.n,
            "n_samples": loop.n_samples,
            "input_step": loop.max_step,
            "modulus_factor": args.modulus_factor,
            "tol_scale": tol_scale(),
        },
    }
    try:
        sheet = contract_loop(loop)
    except NumericalGateError as exc:
        report["failure"] = {"kind": "numerical-gate", "message": str(exc)}
        _emit(report, args)
        return EXIT_GATE
    modulus = args.modulus_factor * max(loop.max_step, 1e-9)
    verdict = verify_homotopy(sheet, loop, modulus)
    report["verifier"] = {
        "passed": verdict.passed,
        "max_cell_step": verdict.max_cell_step,
        "modulus": modulus,
        "shape": list(verdict.shape),
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
        print("error: selfcheck is randomized and needs --seed", file=sys.stderr)
        return EXIT_INPUT
    try:
        results = run_selfcheck(int(seed), inject_fault=args.inject_fault)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "command": "selfcheck",
        "config": {"seed": int(seed), "inject_fault": args.inject_fault, "tol_scale": tol_scale()},
        "suites": [
            {
                "name": r.name,
                "passed": bool(r.passed),
                "worst_residual": float(r.worst_residual),
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
    try:
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
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            print(f"error: no such config file: {args.config}", file=sys.stderr)
            return EXIT_INPUT
        except json.JSONDecodeError as exc:
            print(f"error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
            return EXIT_INPUT
    try:
        if args.command == "invariant":
            return cmd_invariant(args, file_cfg)
        if args.command == "contract-loop":
            return cmd_contract_loop(args, file_cfg)
        if args.command == "selfcheck":
            return cmd_selfcheck(args, file_cfg)
        if args.command == "supernatural":
            return cmd_supernatural(args, file_cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
