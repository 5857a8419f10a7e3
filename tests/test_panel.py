import json

import panel


def _run(tmp_path, monkeypatch, capsys, record, now):
    path = tmp_path / "panel.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    monkeypatch.setattr(panel, "RECORD", path)
    monkeypatch.setattr(panel, "panel", lambda: now)
    return panel.run([]), capsys.readouterr().out.splitlines()


def test_panel_prints_float_drift_under_its_tolerance_without_failing(tmp_path, monkeypatch, capsys):
    record = {"a": {"passed": True, "safety_min": 0.5, "max_cell_step": 0.25, "rows": [[1, 2]]},
              "b": {"residuals": [1e-15, 3.0]}}
    now = json.loads(json.dumps(record))
    assert _run(tmp_path, monkeypatch, capsys, record, now) == (
        0, ["2 runs as recorded", f"{panel.DRIFT}: 0"])
    # the count is labelled as the machine's, and points to --compare for a change's own drift
    assert "machine-dependent" in panel.DRIFT and "--compare" in panel.DRIFT
    now["a"]["safety_min"] = 0.5 * (1 + 4e-13)
    now["b"]["residuals"][0] = 1.1e-15  # relative 0.09: a difference, and the largest drift
    code, out = _run(tmp_path, monkeypatch, capsys, record, now)
    assert code == 1 and out[0] == "/b/residuals[0]: recorded 1e-15, now 1.1e-15"
    assert out[1] == f"{panel.DRIFT}: 2; largest relative drift 0.0909 at /b/residuals[0]"
    now["b"]["residuals"][0] = 1e-15
    code, out = _run(tmp_path, monkeypatch, capsys, record, now)
    assert code == 0 and out[0] == "2 runs as recorded"
    assert out[1] == f"{panel.DRIFT}: 1; largest relative drift 4e-13 at /a/safety_min"
    # a missing key, a new key and an int that moved fail as before
    now["a"] = {"passed": True, "safety_min": 0.5, "rows": [[1, 3]], "new": 1}
    code, out = _run(tmp_path, monkeypatch, capsys, record, now)
    assert code == 1
    assert out[:3] == ["/a/max_cell_step: recorded, now missing", "/a/new: new, not recorded",
                       "/a/rows[0][1]: recorded 2, now 3"]
