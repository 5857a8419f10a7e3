import json
import tracemalloc

import pytest

from phaselab import serialize
from phaselab.cli import main
from phaselab.homotopy import bundled_pure_loop, constant_loop


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


def test_invariant_constant_field_debug(capsys):
    code, report = run(capsys, "invariant", "--grid", "8x16", "--constant-field", "--no-timestamp")
    assert code == 2
    assert report["degree"] == 0


def test_invariant_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "8x16", "epsilon": 0.3, "n_dimers": 2}))
    code, report = run(capsys, "invariant", "--config", str(cfg), "--no-timestamp")
    assert code == 0
    assert report["config"]["epsilon"] == 0.3
    assert report["config"]["grid"] == [8, 16]


def test_selfcheck_requires_seed(capsys):
    code = main(["selfcheck"])
    assert code == 3
    assert "seed" in capsys.readouterr().err


def test_selfcheck_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["selfcheck", "--seed", "11", "--no-timestamp", "--out", str(out1)]) == 0
    assert main(["selfcheck", "--seed", "11", "--no-timestamp", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_selfcheck_seed_variation(capsys, seed):
    code, report = run(capsys, "selfcheck", "--seed", str(seed), "--no-timestamp")
    assert code == 0
    assert all(s["passed"] for s in report["suites"])


def test_selfcheck_injected_fault(capsys):
    code, report = run(capsys, "selfcheck", "--seed", "1", "--inject-fault", "gns",
                       "--no-timestamp")
    assert code == 2
    by_name = {s["name"]: s["passed"] for s in report["suites"]}
    assert by_name["gns"] is False
    assert by_name["metric-identities"] is True


def test_selfcheck_unknown_fault(monkeypatch, capsys):
    from phaselab import selfcheck

    ran = []
    for name in list(selfcheck.SUITES):
        monkeypatch.setitem(selfcheck.SUITES, name, lambda rng, name=name: ran.append(name))
    assert main(["selfcheck", "--seed", "1", "--inject-fault", "nope"]) == 3
    assert ran == []  # the name is rejected before any suite runs


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
    assert len(sheet_doc["rows"]) == report["verifier"]["shape"][0]


def test_contract_loop_constant(tmp_path, capsys):
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(constant_loop(2, 12)))
    code, report = run(capsys, "contract-loop", str(path), "--no-timestamp")
    assert code == 0
    assert report["verifier"]["max_cell_step"] == 0.0


def test_contract_loop_corrupted_trace(tmp_path, capsys):
    doc = serialize.loop_to_doc(constant_loop(2, 8))
    doc["samples"][3][0][0] = [0.7, 0.0]  # trace now 0.7
    path = tmp_path / "bad.json"
    serialize.write_doc(str(path), doc)
    code = main(["contract-loop", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "invalid loop" in err


def test_contract_loop_bad_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,\n  "samples": [,]}')
    code = main(["contract-loop", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert ":2:" in err  # line-precise message


def test_contract_loop_missing_file(capsys):
    assert main(["contract-loop", "/nonexistent/loop.json"]) == 3


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


def test_supernatural_bad_input(capsys):
    assert main(["supernatural", "--type", "2,5"]) == 3


def test_tol_scale_env(monkeypatch, capsys):
    monkeypatch.setenv("PHASELAB_TOL_SCALE", "10")
    code, report = run(capsys, "selfcheck", "--seed", "3", "--no-timestamp")
    assert code == 0
    assert report["config"]["tol_scale"] == 10.0
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["gns"]["gate"] == 1e-8
    monkeypatch.setenv("PHASELAB_TOL_SCALE", "zero")
    assert main(["selfcheck", "--seed", "3"]) == 3


def test_invariant_report_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["invariant", "--grid", "8x16", "--no-timestamp"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invariant_rejects_bad_grid(capsys):
    assert main(["invariant", "--grid", "1x2"]) == 3
    assert main(["invariant", "--grid", "notagrid"]) == 3


def test_invariant_rejects_oversized_chain(monkeypatch, capsys):
    import phaselab.cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(phaselab.cli, "invariant_sweep", no_sweep)
    tracemalloc.start()
    try:
        code = main(["invariant", "--n-dimers", "40", "--no-timestamp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "budget" in capsys.readouterr().err
    assert peak < 2**20
