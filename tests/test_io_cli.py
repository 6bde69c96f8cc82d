import hashlib
import json

import pytest
from click.testing import CliRunner

from kundunls import io
from kundunls.cli import main
from kundunls.errors import ConfigParseError, ConfigValidationError
from kundunls.fields import FieldGrid, config_digest, evaluate_grid, linspace
from kundunls.spectrum import PoleOrder, derive_orbit


def one_point_grid():
    return FieldGrid(xs=[0.0], ts=[0.0], q_values=[[1 + 0j]],
                     u_values=[[1 + 0j]], flags=[["ok"]], config_digest="d")


def test_load_preset_fig2a():
    run = io.load_config("fig2a")
    assert run.cfg.N == 1
    assert run.cfg.eigenvalues[0].z == 1.5j
    assert run.cfg.eigenvalues[0].A_plus == 1
    assert run.cfg.q_minus == 1
    assert run.cfg.epsilon == 0.5
    assert run.cfg.pole_order is PoleOrder.SIMPLE
    assert run.grid["nx"] == 401 and run.grid["nt"] == 201


def test_load_preset_fig7a():
    run = io.load_config("fig7a")
    assert run.cfg.pole_order is PoleOrder.DOUBLE
    assert run.cfg.eigenvalues[0].B_plus == 1


def test_all_presets_load_or_flag_degeneracy():
    names = io.preset_names()
    assert len(names) >= 14
    failures = []
    for name in names:
        try:
            io.load_config(name)
        except ConfigValidationError:
            failures.append(name)
    assert failures == ["fig5c"]


def test_malformed_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1,\n  "pole_order": }\n')
    with pytest.raises(ConfigParseError) as err:
        io.load_config(bad)
    assert err.value.line == 2


def test_unknown_schema_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"schema": 99, "pole_order": "simple"}))
    with pytest.raises(ConfigValidationError):
        io.load_config(cfg)


def test_csv_single_background_row(tmp_path):
    out = tmp_path / "g.csv"
    io.write_grid_csv(one_point_grid(), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,t,re_u,im_u,abs_u,re_q,im_q,flag"
    assert lines[1] == "0,0,1,0,1,1,0,ok"


def test_json_round_trip_bit_identical(tmp_path, fig2a):
    orbit = derive_orbit(fig2a, "a")
    grid = evaluate_grid(fig2a, orbit, linspace(-2, 2, 7), linspace(-1, 1, 5))
    path = tmp_path / "grid.json"
    io.write_grid_json(grid, path)
    back = io.read_grid_json(path)
    assert back.xs == grid.xs and back.ts == grid.ts
    assert back.q_values == grid.q_values
    assert back.u_values == grid.u_values
    assert back.flags == grid.flags
    assert back.config_digest == grid.config_digest == config_digest(fig2a)


def test_pgm_degenerate_range_is_mid_gray(tmp_path):
    path = tmp_path / "flat.pgm"
    io.render_pgm(one_point_grid(), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n1 1\n255\n")
    assert data[-1] == 128


def test_pgm_orientation_top_row_is_t_max(tmp_path):
    grid = FieldGrid(xs=[0.0], ts=[0.0, 1.0],
                     q_values=[[0j], [2 + 0j]],
                     u_values=[[0j], [2 + 0j]],
                     flags=[["ok"], ["ok"]], config_digest="d")
    path = tmp_path / "two.pgm"
    io.render_pgm(grid, path)
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert body == bytes([255, 0])  # t=1 row first, brighter


def test_pgm_clamp(tmp_path):
    grid = one_point_grid()
    path = tmp_path / "c.pgm"
    io.render_pgm(grid, path, clamp=(0.0, 2.0))
    assert path.read_bytes()[-1] == 128  # value 1 in [0, 2]


def test_grid_validation_rejects_bad_axes():
    with pytest.raises(ValueError):
        FieldGrid(xs=[0.0, 0.0], ts=[0.0], q_values=[[0j, 0j]],
                  u_values=[[0j, 0j]], flags=[["ok", "ok"]])


def test_cli_presets_lists_corpus():
    result = CliRunner().invoke(main, ["presets"])
    assert result.exit_code == 0
    names = result.output.split()
    assert len(names) >= 14
    assert "fig2a" in names and "fig8d" in names


def test_cli_construct_rejects_degenerate_preset(tmp_path):
    result = CliRunner().invoke(main, ["construct", "fig5c",
                                       "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "double-pole" in result.output


def test_cli_usage_error_exits_2():
    result = CliRunner().invoke(main, ["construct"])
    assert result.exit_code == 2


def test_cli_missing_config_exits_1():
    result = CliRunner().invoke(main, ["audit", "nonexistent"])
    assert result.exit_code == 1


def test_cli_audit_passes_and_reports(tmp_path):
    result = CliRunner().invoke(main, ["audit", "fig4a", "--seed", "7"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    codes = {d["code"] for d in payload["diagnostics"]}
    assert "ThetaCondition" in codes and "TraceProduct" in codes


def test_cli_construct_writes_artifacts(tmp_path):
    result = CliRunner().invoke(main, [
        "construct", "fig3b", "--out", str(tmp_path), "--emit-gnuplot"])
    assert result.exit_code == 0, result.output
    for ext in (".csv", ".json", ".pgm", ".gp"):
        assert (tmp_path / f"fig3b{ext}").exists()
    header = (tmp_path / "fig3b.pgm").read_bytes()[:15]
    assert header.startswith(b"P5\n121 61\n255\n")


def test_cli_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("NZBC_THREADS", "2")
    r1 = CliRunner().invoke(main, ["construct", "fig3c", "--out",
                                   str(tmp_path / "a")])
    monkeypatch.delenv("NZBC_THREADS")
    r2 = CliRunner().invoke(main, ["construct", "fig3c", "--out",
                                   str(tmp_path / "b")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "a/fig3c.csv").read_bytes() == \
        (tmp_path / "b/fig3c.csv").read_bytes()


def test_fmt_shortest_round_trip():
    assert io._fmt(0.0) == "0"
    assert io._fmt(1.0) == "1"
    assert io._fmt(0.1) == "0.1"
    assert io._fmt(1 / 3) == repr(1 / 3)
    assert float(io._fmt(1 / 3)) == 1 / 3



NAN, INF, DROP = float("nan"), float("inf"), object()


def _edited(raw, path, value):
    """raw with the entry at path set to value (deleted for DROP)."""
    if not path:
        return value
    *parents, last = path
    target = raw
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return raw


@pytest.mark.parametrize("path, value, code", [
    (("epsilon",), NAN, "NonFiniteValue"),
    (("gamma0",), INF, "NonFiniteValue"),
    (("q_minus",), [NAN, 0.0], "NonFiniteValue"),
    (("q_minus",), [10 ** 400, 0.0], "NonFiniteValue"),
    (("eigenvalues", 0, "z"), [0.0, NAN], "NonFiniteValue"),
    (("eigenvalues", 0, "A_plus"), [-INF, 0.0], "NonFiniteValue"),
    (("eigenvalues", 0, "B_plus"), [NAN, 0.0], "NonFiniteValue"),
    (("q_minus",), DROP, "MissingKey"),
    (("epsilon",), DROP, "MissingKey"),
    (("eigenvalues", 0, "z"), DROP, "MissingKey"),
    (("eigenvalues", 0, "A_plus"), DROP, "MissingKey"),
    (("eigenvalues",), {"z": [0.0, 1.5], "A_plus": [1.0, 0.0]}, "BadEigenvalues"),
    (("epsilon",), "half", "BadNumber"),
    (("grid",), [-10, 10], "GridSpec"),
    ((), [], "ConfigShape"),
], ids=["nan-epsilon", "inf-gamma0", "nan-q_minus", "huge-q_minus", "nan-z",
        "inf-A_plus", "nan-B_plus", "no-q_minus", "no-epsilon", "no-z",
        "no-A_plus", "eigenvalues-object", "string-epsilon", "grid-list",
        "top-level-list"])
def test_cli_rejects_malformed_config_with_diagnostic(tmp_path, path, value, code):
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    raw["grid"].update(nx=5, nt=3)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_edited(raw, path, value)))
    result = CliRunner().invoke(main, ["construct", str(bad),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"{code}:" in result.output
