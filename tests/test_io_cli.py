import hashlib
import json
import multiprocessing
import os

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kundunls import fields, io, scattering, simple_pole, verification
from kundunls.cli import main
from kundunls.errors import (ConfigParseError, ConfigValidationError, KunduNLSError,
                             SingularMatrix)
from kundunls.fields import FieldGrid, config_digest, evaluate_grid, linspace
from kundunls.spectrum import PoleOrder, derive_orbit
from kundunls.verification import Plan


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
    assert json.loads(path.read_text()) == grid.to_dict()
    assert grid.config_digest == config_digest(fig2a)


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


def test_cli_construct_reports_flags_by_kind(tmp_path):
    result = CliRunner().invoke(main, ["construct", "fig7d", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert ("warning: 3321 grid points flagged (3321 near_singular, 0 singular)"
            in result.output)


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
    (("epsilon",), "0.5", "BadNumber"),
    (("grid",), [-10, 10], "GridSpec"),
    (("grid", "x_min"), 20, "GridSpec"),
    (("grid", "nx"), "abc", "GridSpec"),
    (("grid", "nx"), "5", "GridSpec"),
    (("grid", "nx"), True, "GridSpec"),
    (("grid", "nt"), 0, "GridSpec"),
    (("grid", "x_max"), NAN, "BadNumber"),
    (("grid", "t_min"), "-5", "BadNumber"),
    (("name",), "../fig2a", "BadName"),
    (("q_minus",), [1e200, 0.0], "Unrepresentable"),
    (("eigenvalues", 0, "z"), [0.0, 5e-324], "Unrepresentable"),
    ((), [], "ConfigShape"),
    (("schema",), True, "SchemaVersion"),
    (("verification",), {"evolution": {"bogus": 1}}, "BadPlan"),
    (("verification",), {"window": 5}, "BadPlan"),
    (("verification",), {"window": [0, 0, 0, 0]}, "BadPlan"),
    (("verification",), {"window": [-5, 5, 3, -3]}, "BadPlan"),
    (("verification",), {"evolution": {"t0": 0.5, "t1": 0.5}}, "BadPlan"),
    (("verification",), {"evolution": {"t0": 0.5, "t1": -0.5}}, "BadPlan"),
    (("uncertain",), "no", "BadFlag"),
    (("gama0",), 1.2, "UnknownKey"),
    (("verificaton",), {"evolution": False}, "UnknownKey"),
    (("grid", "ny"), 5, "UnknownKey"),
    (("eigenvalues", 0, "b_plus"), [1.0, 0.0], "UnknownKey"),
    (("verification",), {"boundary_L": 40}, "BadPlan"),
    (("verification",), {"evolution": None}, "BadPlan"),
    (("eigenvalues", 0, "z"), [-0.8756538991142832, 0.48293917729456637],
     "ContourEigenvalue"),
    (("q_minus",), [True, False], "BadComplex"),
    (("eigenvalues", 0, "z"), [False, True], "BadComplex"),
], ids=["nan-epsilon", "inf-gamma0", "nan-q_minus", "huge-q_minus", "nan-z",
        "inf-A_plus", "nan-B_plus", "no-q_minus", "no-epsilon", "no-z",
        "no-A_plus", "eigenvalues-object", "string-epsilon",
        "numeric-string-epsilon", "grid-list", "reversed-x", "string-nx",
        "numeric-string-nx", "bool-nx", "zero-nt", "nan-x_max", "string-t_min",
        "path-name", "overflowing-Q0-squared", "underflowing-mirror-point",
        "top-level-list", "bool-schema", "plan-unknown-evolution-key",
        "plan-scalar-window", "plan-empty-window", "plan-reversed-window",
        "plan-empty-evolution-span",
        "plan-backward-evolution-span", "string-uncertain", "misspelt-top-level-key",
        "misspelt-verification", "unknown-grid-key", "unknown-eigenvalue-key",
        "plan-boundary_L", "plan-null-evolution", "near-circle-z",
        "bool-q_minus", "bool-z"])
def test_cli_rejects_malformed_config_with_diagnostic(tmp_path, path, value, code):
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    raw["grid"].update(nx=5, nt=3)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_edited(raw, path, value)))
    for args in (["construct", str(bad), "--out", str(tmp_path / "out")],
                 ["check", str(bad)], ["evolve", str(bad)]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, args
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"{code}:" in result.output


def _exits_with_error(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, args
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("error: "), result.output
    return result


@pytest.mark.parametrize("command", ["construct", "check", "evolve", "audit"])
def test_cli_unreadable_config_exits_1(tmp_path, command):
    """A directory, a file that is not UTF-8 text or JSON nested deeper than
    the parser recurses is an error, not a traceback."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for config in (tmp_path, latin1, deep):
        _exits_with_error([command, str(config)])


def test_cli_unwritable_output_exits_1(tmp_path):
    """An output directory under a regular file, or an output file that is a
    directory, is an error, not a traceback."""
    config = str(_small_fig2a(tmp_path))
    blocker = tmp_path / "file"
    blocker.write_text("")
    _exits_with_error(["construct", config, "--out", str(blocker / "sub")])
    (tmp_path / "out" / "fig2a.json").mkdir(parents=True)
    _exits_with_error(["construct", config, "--out", str(tmp_path / "out")])


def _small_fig2a(tmp_path, **top):
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    raw["grid"].update(nx=5, nt=3)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(dict(raw, **top)))
    return path


@pytest.mark.parametrize("gate, code", [(1.0, 0), (1e-12, 1)])
def test_check_and_evolve_share_the_evolution_gate(tmp_path, gate, code):
    """400 steps of dt 0.01 on fig2a leave an error of about 0.05: both commands
    judge it by the plan's gate, not by the default 1e-5."""
    cfg = _small_fig2a(tmp_path, verification={
        "gates": {"evolution": gate}, "evolution": {"dt": 0.01},
        "residual_n": 2})
    check = CliRunner().invoke(main, ["check", str(cfg)])
    evolve = CliRunner().invoke(main, ["evolve", str(cfg)])
    err = json.loads(evolve.output)["linf_error"]
    assert json.loads(check.output)["evolution_linf_error"] == err
    assert 1e-5 < err < 1.0
    assert (check.exit_code, evolve.exit_code) == (code, code)


def _singular_row(orbit, xs, t):
    return [(complex("nan+nanj"), "singular", float("inf"))] * len(xs)


def _failing_point(*args, **kwargs):
    raise ZeroDivisionError("stand-in failure")


@pytest.mark.parametrize("command, name, stand_in, message", [
    ("check", "evaluate_q", _failing_point, "stencil around"),
    ("check", "sample_row", _singular_row, "singular points in the exact slice"),
    ("evolve", "sample_row", _singular_row, "singular points in the exact slice"),
], ids=["check-sweep", "check-slice", "evolve-slice"])
def test_solver_failure_in_verification_exits_1(tmp_path, monkeypatch, command, name,
                                                 stand_in, message):
    """A failing sweep point or a singular slice point is an error, not a
    traceback and not a NaN error."""
    monkeypatch.setattr(simple_pole, name, stand_in)
    cfg = _small_fig2a(tmp_path, verification={
        "evolution": {"M": 256, "dt": 0.01}, "residual_n": 2})
    result = CliRunner().invoke(main, [command, str(cfg), "--sign-convention", "a"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("error: ") and message in result.output


@pytest.mark.parametrize("error", [MemoryError, SingularMatrix])
@pytest.mark.parametrize("command, module, name", [
    ("construct", fields, "evaluate_grid"),
    ("check", verification, "residual_sweep"),
    ("evolve", verification, "split_step_evolve"),
    ("audit", scattering, "check_symmetries"),
], ids=["construct", "check", "evolve", "audit"])
def test_cli_stage_failure_exits_1(tmp_path, monkeypatch, command, module, name, error):
    """Any stage that fails with a package error or an allocation failure is
    an error line, not a traceback."""
    def stand_in(*args, **kwargs):
        raise error("stand-in")

    monkeypatch.setattr(module, name, stand_in)
    cfg = _small_fig2a(tmp_path, verification={
        "evolution": {"M": 256, "dt": 0.01}, "residual_n": 2})
    args = [command, str(cfg)] + (["--out", str(tmp_path / "out")]
                                  if command == "construct" else [])
    assert "stand-in" in _exits_with_error(args).output


def test_config_without_plan_reads_the_default_plan(tmp_path):
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    assert "verification" not in raw
    assert io.load_config(_small_fig2a(tmp_path)).plan == Plan()


def test_threads_start_no_worker_process(tmp_path, monkeypatch):
    """Any thread count evaluates in this process and writes the same bytes."""
    def refuse(*args):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    raw["grid"].update(nx=7, nt=5)
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(raw))
    outputs = []
    for flag, env in ((["--threads", "1"], None), (["--threads", "64"], None),
                      ([], "64")):
        if env is None:
            monkeypatch.delenv("NZBC_THREADS", raising=False)
        else:
            monkeypatch.setenv("NZBC_THREADS", env)
        out = tmp_path / f"out{len(outputs)}"
        result = CliRunner().invoke(main, ["construct", str(cfg), "--out", str(out)] + flag)
        assert result.exit_code == 0, result.output
        outputs.append([(out / f"fig2a.{ext}").read_bytes() for ext in ("csv", "json", "pgm")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _key_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _key_paths(value, prefix + (key,))


SMALL_FIG2A = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
SMALL_FIG2A["grid"].update(nx=5, nt=3)
SMALL_FIG2A.update(uncertain=False, verification={
    "window": [-1, 1, -1, 1], "gates": {"evolution": 1e-5},
    "evolution": {"M": 256, "dt": 0.01}})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=4)
EDITS = st.lists(
    st.tuples(st.sampled_from(list(_key_paths(SMALL_FIG2A))),
              st.just(DROP) | JSON_VALUES
              | st.lists(st.floats(), min_size=2, max_size=2)),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(EDITS)
def test_mutated_config_never_escapes_as_traceback(tmp_path, edits):
    """Up to three edits at random key paths of a 5x3 fig2a with a
    verification plan and an uncertain flag; integers stay <= 5, so grids do
    too."""
    raw = json.loads(json.dumps(SMALL_FIG2A))
    for path, value in edits:
        try:
            raw = _edited(raw, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the parent
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps({} if raw is DROP else raw))
    try:
        io.load_config(bad)
    except KunduNLSError:
        pass
    result = CliRunner().invoke(main, ["construct", str(bad),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code in (0, 1), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
