"""Self-test of the benchmark's failure accounting. From the repository root:

    python3 perfbench/selftest.py

Runs three small invariant operations (N=2 on an 8x16 grid) through the
benchmark's own runner, once clean and then with one operation corrupted
in each of two ways, injected into the program from here:

- a wrong degree: the report claims the negated degree and still passes;
- a raising operation: the sweep raises an exception the CLI does not catch.

Each injection must add exactly one failed operation, and so raise
error_rate from (0 + 1) / (3 + 2) to (1 + 1) / (3 + 2); the wrong degree must
also clear `correct`. Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys

import run as bench

N_OPS = 3


def inject_on_second_call(cli, corrupt):
    """Replace cli.invariant_sweep so that only its second call is corrupted."""
    original = cli.invariant_sweep
    calls = []

    def sweep(*args, **kwargs):
        calls.append(1)
        rec = original(*args, **kwargs)
        return corrupt(rec) if len(calls) == 2 else rec

    cli.invariant_sweep = sweep
    return original


def wrong_degree(rec):
    return dataclasses.replace(rec, degree=-rec.degree)


def raising(rec):
    raise RuntimeError("injected failure")


def tally(cli, corrupt=None):
    ops = bench.invariant_workload(2, "8x16")(0, None, N_OPS)
    original = inject_on_second_call(cli, corrupt) if corrupt else None
    try:
        outcomes = bench.run_ops(cli.main, ops)
    finally:
        if original is not None:
            cli.invariant_sweep = original
    metrics = bench.end_to_end(outcomes, [0.0], 0)
    failed = sum(o.status != "ok" for o in outcomes)
    correct = not any(o.status == "wrong" for o in outcomes)
    return failed, correct, metrics["error_rate"][0], [o.status for o in outcomes]


def main() -> int:
    cli, _ = bench.import_program()
    cases = [
        ("clean", None, 0, True, "ok"),
        ("wrong degree", wrong_degree, 1, False, "wrong"),
        ("raising operation", raising, 1, True, "error"),
    ]
    base_rate = None
    ok = True
    for label, corrupt, want_failed, want_correct, want_status in cases:
        failed, correct, rate, statuses = tally(cli, corrupt)
        if base_rate is None:
            base_rate = rate
        want_rate = (want_failed + 1) / (N_OPS + 2)
        good = (
            failed == want_failed
            and correct == want_correct
            and abs(rate - want_rate) < 1e-12
            and statuses[1] == want_status
            and statuses.count("ok") == N_OPS - want_failed
        )
        ok &= good
        print(
            f"{'pass' if good else 'FAIL'}: {label}: statuses {statuses}, failed {failed}, "
            f"correct {correct}, error_rate {rate:.4f} (+{rate - base_rate:.4f}, "
            f"expected {want_rate:.4f})"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
