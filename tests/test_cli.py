import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import phaselab
from phaselab import serialize
from phaselab.cli import main
from phaselab.homotopy import SAFETY_FLOOR, bundled_plateau_loop, bundled_pure_loop, constant_loop
from sheet_cells import forge_cells


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_invariant_small_grid(capsys):
    code, report = run(capsys, "invariant", "--grid", "8x16", "--no-timestamp")
    assert code == 0
    assert report["agreement"] is True
    assert abs(report["degree"]) == 1
    assert report["degree"] == report["bloch_degree"]
    assert report["y_overlap_min"] >= 0.99
    assert "timestamp" not in report


def test_invariant_verdict_fails_on_a_low_interior_overlap(monkeypatch, capsys):
    from phaselab import dimer

    window = dimer._equator_window

    def low_overlap(theta, phi, n_dimers):
        win = window(theta, phi, n_dimers)
        return win._replace(y_overlap=np.full_like(win.y_overlap, 0.95))

    monkeypatch.setattr(dimer, "_equator_window", low_overlap)
    cfg = dimer.ModelConfig(grid=(8, 16))
    rec = dimer.invariant_sweep(cfg)
    assert rec.agreement and rec.y_overlap_min == 0.95 and rec.passed is False
    assert dimer._gate_failure(rec).startswith("y_overlap gate")
    code, report = run(capsys, "invariant", "--grid", "8x16", "--no-timestamp")
    assert code == 2 and report["pass"] is False and report["agreement"] is True
    monkeypatch.setenv("PHASELAB_TOL_SCALE", "10")  # the slack 0.01 becomes 0.1
    scaled = dimer.invariant_sweep(cfg)
    assert scaled.passed is True and dimer._gate_failure(scaled) is None
    assert scaled.degree == rec.degree


def test_invariant_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "8x16", "n_dimers": 3}))
    code, report = run(capsys, "invariant", "--config", str(cfg), "--no-timestamp")
    assert code == 0
    assert report["config"]["n_dimers"] == 3
    assert report["config"]["grid"] == [8, 16]
    assert "epsilon" not in report["config"]


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--n-dimers", "abc"],
        ["invariant", "--bogus"],
        ["invariant", "--epsilon", "0.3"],
        ["nosuchcommand"],
        [],
        ["invariant", "--constant-field"],
        ["contract-loop", "LOOP", "--modulus-factor", "5"],
    ],
)
def test_usage_errors_exit_as_input_errors(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: phaselab")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["invariant", "--help"]) == 0
    assert "--n-dimers" in capsys.readouterr().out
    assert main(["contract-loop", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())  # argparse wraps the help text
    assert "write the sheet's recipe, no cells or loop" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--grid", "8x16", "--seed", "1"],
        ["selfcheck", "--seed", "1", "--grid", "4x4"],
        ["selfcheck", "--seed", "1", "--n-dimers", "9"],
        ["selfcheck", "--seed", "1", "--epsilon", "0.5"],
        ["supernatural", "--type", "2", "--seed", "1"],
        ["supernatural", "--type", "2,6", "--n-dimers", "3"],
        ["supernatural", "--type", "2", "--config", "LOOP"],
        ["contract-loop", "LOOP", "--n-dimers", "3"],
        ["contract-loop", "LOOP", "--config", "LOOP"],
        ["contract-loop", "LOOP", "--seed", "1"],
    ],
)
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, argv):
    # each argv passes without its last flag, so the flag alone decides
    loop = tmp_path / "loop.json"
    serialize.write_doc(str(loop), serialize.loop_to_doc(constant_loop(2, 8)))
    argv = [str(loop) if a == "LOOP" else a for a in argv]
    assert main(argv[:-2] + ["--no-timestamp"]) == 0
    capsys.readouterr()
    assert main(argv) == 3
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg",
    [
        (["invariant", "--grid", "8x16"], {"epsilon": 0.3}),
        (["invariant", "--grid", "8x16"], {"seed": 1}),
        (["selfcheck", "--seed", "1"], {"grid": "8x16"}),
        (["selfcheck", "--seed", "1"], {"seed": 1, "n_dimers": 2}),
    ],
)
def test_commands_reject_config_keys_they_do_not_read(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(command + ["--config", str(path)]) == 3
    assert "does not read config keys" in capsys.readouterr().err
    path.write_text("3")
    assert main(command + ["--config", str(path)]) == 3
    assert "one JSON object" in capsys.readouterr().err


def test_selfcheck_requires_seed(capsys):
    code = main(["selfcheck"])
    assert code == 3
    assert "seed" in capsys.readouterr().err


def test_selfcheck_refuses_a_negative_seed(tmp_path, capsys):
    # numpy's own message names no input; the flag and the config key alike get one that does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for argv in (["selfcheck", "--seed", "-1"], ["selfcheck", "--config", str(cfg)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"


def test_selfcheck_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selfcheck", "--seed", "11", "--no-timestamp", "--out", str(out1)]) == 0
    assert main(["selfcheck", "--seed", "11", "--no-timestamp", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_metric_suite_batches_trace_norms_as_single_calls():
    # the suite draws every pair's dimension first, then each dimension's
    # pairs in one draw; per-pair ray distances against the same
    # per-dimension trace_norm stacks of the differences' Hermitian parts
    # are the reference, and the report must not move a bit
    from phaselab import linalg, projective, selfcheck

    rng = np.random.default_rng(5)
    dims = rng.integers(2, 6, size=300)
    worst = 0.0
    for n in range(2, 6):
        re, im = rng.normal(size=(2, 2, np.count_nonzero(dims == n), n))
        v = re + 1j * im
        a, b = v / np.linalg.norm(v, axis=-1, keepdims=True)
        gaps = np.array([projective.ray_distances(x, y).gap for x, y in zip(a, b)])
        diffs = np.array([np.outer(x, x.conj()) - np.outer(y, y.conj()) for x, y in zip(a, b)])
        diffs = (diffs + diffs.conj().swapaxes(-1, -2)) / 2
        worst = max(worst, np.max(np.abs(gaps - 0.5 * linalg.trace_norm(diffs))))
    result = selfcheck.metric_suite(np.random.default_rng(5), n_pairs=300)
    assert result.details["gap_vs_half_trace_norm"] == worst


def test_metric_suite_takes_no_svd(monkeypatch):
    # each projector difference is Hermitian bit for bit, so trace_norm
    # takes the closed forms at n = 2, 3 and eigvalsh at n = 4, 5
    from phaselab import selfcheck

    def svd(*args, **kwargs):
        raise AssertionError("metric_suite took an SVD")

    monkeypatch.setattr(np.linalg, "svd", svd)
    for seed in (1, 7):
        assert selfcheck.metric_suite(np.random.default_rng([seed, 0])).passed


@pytest.mark.parametrize("kernel", ["_closed_form_2", "_closed_form_3"])
def test_metric_suite_fails_a_closed_form_off_by_a_millionth(monkeypatch, kernel):
    from phaselab import linalg, selfcheck

    exact = getattr(linalg, kernel)

    def scaled(x):
        norms, done = exact(x)
        return norms * (1 + 1e-6), done

    monkeypatch.setattr(linalg, kernel, scaled)
    result = selfcheck.metric_suite(np.random.default_rng([7, 0]))
    assert not result.passed
    assert result.details["gap_vs_half_trace_norm"] > 1e-7


def test_metric_suite_skips_empty_dimension_groups():
    # one pair leaves three of the four dimensions without pairs
    from phaselab import selfcheck

    result = selfcheck.metric_suite(np.random.default_rng(5), n_pairs=1)
    assert result.passed and set(result.details) == {
        "closed_form", "sandwich_slack", "gap_vs_half_trace_norm"
    }


def test_partial_trace_suite_stacks_its_basis(monkeypatch):
    # the per-element loop draws the same matrices; both worst residuals are
    # float64 rounding of traces of size ~10, so they agree to 1e-14
    from phaselab import linalg, selfcheck

    rng = np.random.default_rng(3)
    worst = 0.0
    for dl, dr in ((2, 2), (2, 4), (4, 2)):
        for _ in range(20):
            t = rng.normal(size=(dl * dr,) * 2) + 1j * rng.normal(size=(dl * dr,) * 2)
            left = linalg.partial_trace(t, dl, dr, keep="left")
            right = linalg.partial_trace(t, dl, dr, keep="right")
            for a in linalg.hermitian_basis(dl):
                worst = max(worst, abs(np.trace(left @ a) - np.trace(t @ np.kron(a, np.eye(dr)))))
            for b in linalg.hermitian_basis(dr):
                worst = max(worst, abs(np.trace(right @ b) - np.trace(t @ np.kron(np.eye(dl), b))))
    result = selfcheck.partial_trace_suite(np.random.default_rng(3), n_matrices=20)
    assert result.passed and 0.0 < worst < 1e-13
    assert abs(result.worst_residual - worst) < 1e-14
    # a partial trace off by a transpose fails the suite
    exact = linalg.partial_trace
    monkeypatch.setattr(
        linalg, "partial_trace", lambda *args, **kw: np.swapaxes(exact(*args, **kw), -1, -2)
    )
    assert not selfcheck.partial_trace_suite(np.random.default_rng(3), n_matrices=20).passed


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_selfcheck_seed_variation(capsys, seed):
    code, report = run(capsys, "selfcheck", "--seed", str(seed), "--no-timestamp")
    assert code == 0
    assert all(s["passed"] for s in report["suites"])


def test_selfcheck_injected_fault(monkeypatch, capsys):
    from phaselab import selfcheck

    gns = selfcheck.SUITES["gns"]

    def failing(rng):
        res = gns(rng)
        res.passed = False
        return res

    monkeypatch.setitem(selfcheck.SUITES, "gns", failing)
    code, report = run(capsys, "selfcheck", "--seed", "1", "--no-timestamp")
    assert code == 2 and report["pass"] is False
    by_name = {s["name"]: s["passed"] for s in report["suites"]}
    assert by_name["gns"] is False
    assert by_name["metric-identities"] is True


def _refuse_constant(name):
    raise AssertionError(f"the report holds {name}, which is not JSON")


@pytest.mark.parametrize("suite", ["supernatural", "cech"])
def test_a_failing_selfcheck_report_is_strict_json(monkeypatch, capsys, suite):
    # a failing suite has no finite worst residual: the report writes it as
    # null, not as Infinity, and keeps the verdict and exit code of a failure
    from phaselab import cech, supernatural

    if suite == "supernatural":
        monkeypatch.setattr(supernatural, "homotopy_table", lambda a, k_max: [])
    else:  # the early return of a two-chart winding that is not read back
        monkeypatch.setattr(cech, "is_coboundary_two_chart", lambda cochain: (False, 99))
    code = main(["selfcheck", "--seed", "1", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert code == 2 and report["pass"] is False
    (failed,) = [s for s in report["suites"] if not s["passed"]]
    assert failed["name"] == suite and failed["worst_residual"] is None
    assert all(type(s["worst_residual"]) is float for s in report["suites"] if s["passed"])


def test_selfcheck_unknown_fault(monkeypatch, capsys):
    from phaselab import selfcheck

    ran = []
    for name in list(selfcheck.SUITES):
        monkeypatch.setitem(selfcheck.SUITES, name, lambda rng, name=name: ran.append(name))
    # there is no fault-injection flag: it is a usage error, raised before any suite runs
    assert main(["selfcheck", "--seed", "1", "--inject-fault", "gns"]) == 3
    assert ran == []


def test_contract_loop_roundtrip(tmp_path, capsys):
    loop = bundled_pure_loop(320)
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(loop))
    sheet_path = tmp_path / "sheet.json"
    code, report = run(
        capsys, "contract-loop", str(path), "--sheet-out", str(sheet_path), "--no-timestamp"
    )
    assert code == 0
    assert report["verifier"]["passed"] is True
    sheet_doc = serialize.read_doc(str(sheet_path))
    assert sheet_doc["n"] == 2
    assert 1 + sum(sum(level["rows"]) for level in sheet_doc["levels"]) == report["verifier"]["shape"][0]
    verifier = report["verifier"]
    assert verifier["safety_margin"] == verifier["safety_min"] - SAFETY_FLOOR > 0
    assert sorted(verifier["safety_at"]) == ["column", "level", "stage"]
    assert verifier["safety_at"]["level"] == 0


def test_contract_loop_constant(tmp_path, capsys):
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(constant_loop(2, 12)))
    code, report = run(capsys, "contract-loop", str(path), "--no-timestamp")
    assert code == 0
    assert report["verifier"]["max_cell_step"] == 0.0


def test_contract_loop_report_has_no_tol_scale(tmp_path, capsys, monkeypatch):
    # no contraction gate reads PHASELAB_TOL_SCALE, so the report does not echo it
    monkeypatch.setenv("PHASELAB_TOL_SCALE", "10")
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(constant_loop(2, 12)))
    code, report = run(capsys, "contract-loop", str(path), "--no-timestamp")
    assert code == 0
    assert "tol_scale" not in report["config"]
    assert "tol_scale" not in json.dumps(report)


def test_contract_loop_reports_a_failing_cell_as_ints(tmp_path, monkeypatch):
    def corrupt(cells):
        cells[2, 5, 0, 0] += 1e-6  # its trace is now 1 + 1e-6

    forge_cells(monkeypatch, corrupt)
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(bundled_pure_loop(320)))
    out = tmp_path / "report.json"
    assert main(["contract-loop", str(path), "--out", str(out), "--no-timestamp"]) == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["pass"] is False
    violations = report["verifier"]["violations"]
    assert [(v["kind"], v["cell"]) for v in violations] == [("trace", [2, 5])]


def test_contract_loop_corrupted_trace(tmp_path, capsys):
    doc = serialize.loop_to_doc(constant_loop(2, 8))
    doc["packed"][3 * 4] = 0.7  # sample 3's first diagonal entry: its trace now 0.7
    path = tmp_path / "bad.json"
    serialize.write_doc(str(path), doc)
    code = main(["contract-loop", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "invalid loop" in err


def test_contract_loop_nan_sample(tmp_path, capsys):
    doc = serialize.loop_to_doc(constant_loop(2, 8))
    doc["packed"][3 * 4 + 1] = float("nan")  # sample 3's second diagonal entry
    path = tmp_path / "nan.json"
    serialize.write_doc(str(path), doc)  # json writes the bare token NaN
    assert main(["contract-loop", str(path)]) == 3
    err = capsys.readouterr().err
    assert "invalid loop document" in err and "non-finite" in err


def test_contract_loop_names_the_loop_document_once(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"n": 2.7, "format": 2, "packed": []}))
    assert main(["contract-loop", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("invalid loop document") == 1
    assert err == "error: invalid loop document: 'n' must be an integer, got 2.7\n"


@pytest.mark.parametrize(
    "forge, message",
    [(lambda doc: {"n": 2, "samples": np.stack([np.eye(2), 0 * np.eye(2)], axis=-1)[None].repeat(3, 0).tolist()},
      "format 1, each sample nested as [re, im] pairs under 'samples', is no longer read; "
      "format 2 holds the packed rows under 'packed'"),
     (lambda doc: {**doc, "format": 3}, "'format' must be 2, got 3"),
     (lambda doc: {**doc, "packed": doc["packed"][:-1]},
      "'packed' holds n² numbers for each of at least three samples, n >= 2, got n = 2 and 35"),
     (lambda doc: {**doc, "n": 100000, "packed": []},
      "'packed' holds n² numbers for each of at least three samples, n >= 2, got n = 100000 and 0"),
     (lambda doc: {**doc, "packed": ["0.0", *doc["packed"][1:]]}, "'packed' holds JSON numbers, got str entries")],
    ids=["format-1", "format-3", "not-a-multiple", "n-past-the-list", "not-a-number"],
)
def test_contract_loop_refuses_each_loop_document_defect_on_one_line(tmp_path, capsys, forge, message):
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), forge(serialize.loop_to_doc(constant_loop(2, 8))))
    assert main(["contract-loop", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid loop document: {message}\n"


def test_cli_import_leaves_out_scipy_linalg():
    probe = "import sys, phaselab.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


def _loaded(probe: str, *argv, cwd=None) -> set:
    """The phaselab modules in sys.modules once probe has run in a fresh
    interpreter with argv, which prints nothing else."""
    probe += "; print(*sorted(m for m in sys.modules if m.startswith('phaselab.')))"
    out = subprocess.run(
        [sys.executable, "-c", "import sys; " + probe, *argv], capture_output=True, text=True,
        check=True, cwd=cwd, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return set(out.stdout.split())


CONTRACTION = {"phaselab.homotopy", "phaselab.serialize"}


@pytest.mark.parametrize("config", [False, True], ids=["flags", "config"])
def test_invariant_leaves_out_the_contraction_modules(tmp_path, config):
    # each command loads what it runs: only contract-loop imports homotopy
    # and serialize, and --config is read without serialize
    argv = ["invariant", "--grid", "8x16", "--out", os.devnull]
    if config:
        (tmp_path / "config.json").write_text('{"n_dimers": 2}')
        argv += ["--config", "config.json"]
    loaded = _loaded("from phaselab.cli import main; main(sys.argv[1:])", *argv, cwd=tmp_path)
    assert "phaselab.dimer" in loaded and not loaded & CONTRACTION


def test_contract_loop_loads_the_contraction_modules(tmp_path):
    serialize.write_doc(str(tmp_path / "loop.json"), serialize.loop_to_doc(constant_loop(2, 8)))
    loaded = _loaded("from phaselab.cli import main; main(sys.argv[1:])",
                     "contract-loop", "loop.json", "--out", os.devnull, cwd=tmp_path)
    assert CONTRACTION <= loaded


def test_cli_import_binds_the_benchmark_hooks():
    # the benchmark swaps cli.invariant_sweep, and a traced run reads
    # phaselab.selfcheck's SUITES from sys.modules after the commands
    loaded = _loaded("import phaselab.cli as cli; assert cli.invariant_sweep.__module__ == 'phaselab.dimer'")
    assert "phaselab.selfcheck" in loaded and not loaded & CONTRACTION


def test_serialize_import_leaves_out_the_invariant_modules():
    loaded = _loaded("import phaselab.serialize")
    assert "phaselab.homotopy" in loaded and not loaded & {"phaselab.dimer", "phaselab.cech"}


@pytest.mark.parametrize(
    "argv",
    [["invariant", "--grid", "8x16"], ["contract-loop", "plateau.json"],
     ["selfcheck", "--seed", "7"], ["supernatural", "--type", "2,6,12"]],
    ids=lambda argv: argv[0],
)
def test_commands_run_without_scipy(tmp_path, argv):
    # a None entry makes every import of scipy fail; the plateau loop has
    # non-pure gaps, so its contraction bridges them
    if argv[0] == "contract-loop":
        loop_doc = serialize.loop_to_doc(bundled_plateau_loop())
        serialize.write_doc(str(tmp_path / argv[1]), loop_doc)
    probe = ("import sys; sys.modules['scipy'] = None; from phaselab.cli import main; "
             "sys.exit(main(sys.argv[1:]))")
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv, "--out", os.devnull], capture_output=True,
        text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr


def test_random_loop_contracts_without_scipy():
    probe = ("import sys; sys.modules['scipy'] = None; "
             "from phaselab.homotopy import contract_loop, random_based_loop, verify_homotopy; "
             "loop = random_based_loop(3, 2, 40); "
             "print(verify_homotopy(contract_loop(loop), loop, loop.modulus).passed)")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_no_source_file_names_scipy():
    package = Path(phaselab.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 10
    assert [p.name for p in sources if "scipy" in p.read_text(encoding="utf-8")] == []


def test_contract_loop_refuses_an_oversize_sheet(tmp_path, capsys):
    # at n = 50 every sheet has at least 1 + 16 x 49 rows: 785 x 101 x 50² x
    # 16 bytes, 3.2 GB of cells, refused before the first level
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(constant_loop(50, 100)))
    tracemalloc.start()
    try:
        code = main(["contract-loop", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "budget" in capsys.readouterr().err
    assert peak < 2**27


def test_contract_loop_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,\n  "samples": [,]}')
    code = main(["contract-loop", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert ":2:" in err  # line-precise message


def test_loop_and_config_files_share_one_json_reader(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,\n  "samples": [,]}')
    for argv in (["contract-loop", str(path)], ["invariant", "--config", str(path)]):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {path}:2:15: Expecting value\n"


def test_json_nested_past_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    # the JSON reader recurses once a nesting level; a loop, sheet or
    # config document that nests past the limit is refused by name
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (["contract-loop", str(path)], ["invariant", "--config", str(path)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: JSON nested too deeply to read\n"


def test_a_loop_entry_past_the_double_range_is_an_input_error(tmp_path, capsys):
    doc = serialize.loop_to_doc(constant_loop(2, 8))
    doc["packed"][3 * 4] = int("9" * 400)
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), doc)
    assert main(["contract-loop", str(path)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: invalid loop document: int too large to convert to float"


def test_contract_loop_missing_file(capsys):
    assert main(["contract-loop", "/nonexistent/loop.json"]) == 3


@pytest.mark.parametrize(
    "argv",
    [["contract-loop", "{dir}"], ["invariant", "--config", "{dir}"],
     ["invariant", "--grid", "8x16", "--out", "{dir}/missing/report.json"],
     ["contract-loop", "{dir}/loop.json", "--sheet-out", "{dir}/missing/sheet.json"]],
    ids=["loop-is-a-directory", "config-is-a-directory", "out-in-a-missing-directory",
         "sheet-out-in-a-missing-directory"],
)
def test_paths_that_cannot_be_opened_are_input_errors(tmp_path, capsys, argv):
    serialize.write_doc(str(tmp_path / "loop.json"), serialize.loop_to_doc(constant_loop(2, 8)))
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")


def test_supernatural_command(capsys):
    code, report = run(
        capsys,
        "supernatural",
        "--type", "2,4,8",
        "--tail-ratio", "2",
        "--contains", "3/8",
        "--contains", "1/3",
        "--k-max", "2",
        "--iso-type", "6",
        "--iso-tail-ratio", "2",
        "--no-timestamp",
    )
    assert code == 0
    assert report["number"] == "2^inf"
    assert report["q_contains"] == {"3/8": True, "1/3": False}
    assert report["iso"] == {"other": "2^inf*3", "equivalent": True, "c": 3, "d": 1}
    assert report["homotopy_table"][0] == {"k": 1, "unitary": "Q(a)", "isotropy": "Z x Q(a)"}


@pytest.mark.parametrize(
    "argv",
    [["invariant", "--grid", "8x16", "--no-timestamp"],
     ["supernatural", "--type", "2,6", "--contains", "1/3", "--no-timestamp"],
     ["invariant", "--bogus"]],
    ids=["invariant", "supernatural", "usage-error"],
)
def test_in_process_calls_share_one_parser_and_print_the_same_bytes(capfd, argv):
    # the parser is built once a process, and a second call with the same
    # argv prints what the first did
    from phaselab.cli import build_parser

    outputs = []
    for _ in range(2):
        code = main(list(argv))
        outputs.append((code, capfd.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][1].out + outputs[0][1].err
    assert build_parser() is build_parser()


def test_an_appended_flag_does_not_leak_into_the_next_call(capsys):
    # argparse appends to a copy of the --contains default, so the cached
    # parser's default stays empty and one call's values stay its own
    from phaselab.cli import build_parser

    code, report = run(capsys, "supernatural", "--type", "2", "--tail-ratio", "2", "--contains", "1/4",
                       "--no-timestamp")
    assert code == 0 and report["q_contains"] == {"1/4": True}
    code, report = run(capsys, "supernatural", "--type", "2", "--tail-ratio", "2", "--no-timestamp")
    assert code == 0 and report["q_contains"] == {}
    assert build_parser().parse_args(["supernatural", "--type", "2"]).contains == []


def test_supernatural_bad_input(capsys):
    assert main(["supernatural", "--type", "2,5"]) == 3
    # a tail ratio for the second tower is an input error without that tower
    assert main(["supernatural", "--type", "2", "--iso-tail-ratio", "2"]) == 3
    assert "--iso-type" in capsys.readouterr().err


def test_supernatural_names_a_zero_denominator(capsys):
    assert main(["supernatural", "--type", "2", "--contains", "1/0"]) == 3
    assert capsys.readouterr().err == "error: '1/0' has a zero denominator\n"


@pytest.mark.parametrize(
    "argv",
    [["--type", "2", "--contains", "1/1000000000000000003"], ["--type", "1000000000000000003"]],
    ids=["contains", "type"],
)
def test_supernatural_refuses_a_number_it_cannot_factor(capsys, argv):
    # a prime over 10^12 is left after trial division up to 10^6, which
    # cannot tell it from a composite; it is refused at once, not factored
    assert main(["supernatural", *argv]) == 3
    assert capsys.readouterr().err == ("error: cannot factor 1000000000000000003: trial division "
                                       "up to 10^6 leaves 1000000000000000003 > 10^12\n")


def test_supernatural_factors_a_large_power_of_two(capsys):
    code, report = run(capsys, "supernatural", "--type", "2", "--tail-ratio", "2",
                       "--contains", "1/1125899906842624", "--no-timestamp")
    assert code == 0
    assert report["q_contains"] == {"1/1125899906842624": True}  # 2^50


def test_supernatural_caps_the_table(capsys):
    from phaselab.supernatural import MAX_TABLE_K

    code, report = run(capsys, "supernatural", "--type", "2", "--k-max", str(MAX_TABLE_K))
    assert code == 0 and len(report["homotopy_table"]) == MAX_TABLE_K
    assert main(["supernatural", "--type", "2", "--k-max", str(MAX_TABLE_K + 1)]) == 3
    assert f"[1, {MAX_TABLE_K}]" in capsys.readouterr().err


def test_tol_scale_env(monkeypatch, capsys):
    monkeypatch.setenv("PHASELAB_TOL_SCALE", "10")
    code, report = run(capsys, "selfcheck", "--seed", "3", "--no-timestamp")
    assert code == 0
    assert report["config"]["tol_scale"] == 10.0
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["gns"]["gate"] == 1e-8
    monkeypatch.setenv("PHASELAB_TOL_SCALE", "zero")
    assert main(["selfcheck", "--seed", "3"]) == 3
    # an infinite scale would turn every scaled gate off, and neither it nor
    # NaN is valid JSON in the report
    for value in ("inf", "-inf", "nan"):
        monkeypatch.setenv("PHASELAB_TOL_SCALE", value)
        capsys.readouterr()
        assert main(["selfcheck", "--seed", "3"]) == 3
        assert main(["invariant", "--grid", "8x16"]) == 3
        assert capsys.readouterr().err.count("must be finite and > 0") == 2


def test_invariant_report_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["invariant", "--grid", "8x16", "--no-timestamp"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invariant_rejects_bad_grid(capsys):
    assert main(["invariant", "--grid", "1x2"]) == 3
    assert main(["invariant", "--grid", "notagrid"]) == 3


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_invariant_refuses_an_oversize_grid(tmp_path, capsys):
    # the budget counts rings, at most 2^20 of them, whatever M is
    code, peak = _traced_peak(["invariant", "--grid", "1048577x3", "--no-timestamp"])
    assert code == 3 and peak < 2**20
    assert "budget" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": [10**12, 3]}), encoding="utf-8")
    assert main(["invariant", "--config", str(path)]) == 3
    assert "budget" in capsys.readouterr().err


def test_invariant_takes_at_most_the_azimuths_ring_degree_sums_exactly(capsys):
    # 2^26 azimuths sweep as any M does; one more is refused before the window runs
    code, peak = _traced_peak(["invariant", "--grid", "64x67108865", "--no-timestamp"])
    assert code == 3 and peak < 2**20
    assert "most 67108864 azimuths" in capsys.readouterr().err
    assert main(["invariant", "--grid", "64x67108864", "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degree"] == report["bloch_degree"] == 1 and report["pass"] is True


def test_invariant_long_chain_costs_what_two_dimers_cost(capsys):
    main(["invariant", "--no-timestamp"])  # lazy imports and caches, untraced
    capsys.readouterr()
    code2, peak2 = _traced_peak(["invariant", "--no-timestamp"])
    n2 = json.loads(capsys.readouterr().out)
    code, peak = _traced_peak(["invariant", "--n-dimers", "1000", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    assert code == code2 == 0
    assert report["config"]["n_dimers"] == 1000
    assert report["degree"] == n2["degree"] == n2["bloch_degree"]
    assert report["pass"] is True
    assert peak <= 1.5 * peak2


@pytest.mark.parametrize(
    "command, cfg",
    [
        (["invariant"], {"n_dimers": "3"}),
        (["invariant"], {"n_dimers": 2.5}),
        (["invariant"], {"n_dimers": True}),
        (["invariant"], {"grid": [8]}),
        (["invariant", "--grid", "8x16"], {"grid": [8]}),
        (["invariant"], {"grid": [8, True]}),
        (["selfcheck"], {"seed": 1.5}),
        (["selfcheck"], {"seed": True}),
    ],
)
def test_config_values_of_the_wrong_type_are_input_errors(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(command + ["--config", str(path), "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config key {next(iter(cfg))!r} must be" in captured.err
