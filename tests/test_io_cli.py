import cmath
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kundunls
from probes import whole_csv
from kundunls import _mathctx, fields, io, scattering, simple_pole, verification
from kundunls.cli import main
from kundunls.errors import (ConfigParseError, ConfigValidationError, KunduNLSError,
                             SingularMatrix)
from kundunls.fields import FieldGrid, config_digest, evaluate_grid, linspace
from kundunls.spectrum import EigenEntry, PoleOrder, SpectralConfig, derive_orbit
from kundunls.verification import EvolutionSetup


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
    orbit = derive_orbit(fig2a)
    grid = evaluate_grid(fig2a, orbit, linspace(-2, 2, 7), linspace(-1, 1, 5))
    path = tmp_path / "grid.json"
    io.write_grid_json(grid, path)
    assert json.loads(path.read_text()) == grid.to_dict()
    assert grid.config_digest == config_digest(fig2a)


#: Points a writer must spell as the whole-file form does: a singular point,
#: infinities, a negative zero, integral values and long shortest reprs.
EDGE_VALUES = (complex(math.nan, math.nan), complex(math.inf, -math.inf),
               complex(-0.0, 0.0), 0j, 2 - 3j, complex(-1e300, 5e-324),
               complex(0.1, 2 / 3), complex(-math.inf, 1.0))


@pytest.mark.parametrize("nt, nx", [(1, 1), (1, 5), (5, 1), (3, 4)])
def test_streamed_writers_match_whole_file_form(tmp_path, nt, nx):
    values = itertools.cycle(EDGE_VALUES)
    u = [[next(values) for _ in range(nx)] for _ in range(nt)]
    q = [[next(values) for _ in range(nx)] for _ in range(nt)]
    flags = [["ok" if cmath.isfinite(v) else "singular" for v in row] for row in u]
    grid = FieldGrid(xs=[0.0, -0.0, 0.1, -2.5, 1e22][:nx],
                     ts=[-0.0, 1.0, 2 / 3, -7.5, 3e-9][:nt],
                     q_values=q, u_values=u, flags=flags, config_digest="d")
    csv, js = tmp_path / "g.csv", tmp_path / "g.json"
    io.write_grid_csv(grid, csv)
    io.write_grid_json(grid, js)
    assert csv.read_bytes() == whole_csv(grid).encode()
    assert js.read_bytes() == (json.dumps(grid.to_dict()) + "\n").encode()
    # an integral value drops its .0 in the CSV only; nan and inf as repr and
    # json spell them
    assert csv.read_text().splitlines()[1].startswith("0,-0,nan,nan,nan,")
    assert js.read_text().startswith('{"xs": [0.0')
    assert "inf" in csv.read_text() and "Infinity" in js.read_text()


def test_streamed_writers_hold_one_row(tmp_path):
    """While a grid writer runs, its traced peak stays below a tenth of the
    file it writes; a writer that builds the whole text first peaks near
    three times the CSV."""
    rng = random.Random(5)
    nt, nx = 200, 50
    u = [[complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(nx)]
         for _ in range(nt)]
    grid = FieldGrid(xs=linspace(-5, 5, nx), ts=linspace(-2, 2, nt), q_values=u,
                     u_values=u, flags=[["ok"] * nx for _ in range(nt)],
                     config_digest="d")
    for write, ext in ((io.write_grid_csv, "csv"), (io.write_grid_json, "json")):
        path = tmp_path / f"g.{ext}"
        tracemalloc.start()
        try:
            write(grid, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size, (ext, peak, path.stat().st_size)


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


def test_cli_emit_gnuplot_adds_a_script_and_changes_no_other_byte(tmp_path):
    config = str(_small_fig2a(tmp_path))
    outputs = []
    for name, flag in (("plain", []), ("gp", ["--emit-gnuplot"])):
        result = CliRunner().invoke(main, ["construct", config, "--out",
                                           str(tmp_path / name)] + flag)
        assert result.exit_code == 0, result.output
        outputs.append([(tmp_path / name / f"fig2a.{ext}").read_bytes()
                        for ext in ("csv", "json", "pgm")])
    assert outputs[1] == outputs[0]
    assert not (tmp_path / "plain" / "fig2a.gp").exists()
    script = (tmp_path / "gp" / "fig2a.gp").read_text()
    assert "splot 'fig2a.csv'" in script and "set title 'fig2a'" in script


def _gnuplot_string(text):
    """The leading gnuplot single-quoted string of text, unquoted, and the
    rest of text; '' inside the quotes stands for one '."""
    match = re.match(r"'((?:[^']|'')*)'", text)
    assert match, text
    return match.group(1).replace("''", "'"), text[match.end():]


def test_gnuplot_script_quotes_the_config_name(tmp_path):
    """A name that closes gnuplot's quotes stays one title and one file name."""
    name = "x'; system('touch P'); print '"
    config = _small_fig2a(tmp_path, name=name)
    result = CliRunner().invoke(main, ["construct", str(config), "--out", str(tmp_path),
                                       "--emit-gnuplot"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / f"{name}.gp").read_text().splitlines()
    assert len(lines) == len(io.GNUPLOT_TEMPLATE.splitlines())
    [title] = [line[len("set title "):] for line in lines if line.startswith("set title ")]
    assert _gnuplot_string(title) == (name, "")
    [splot] = [line[len("splot "):] for line in lines if line.startswith("splot ")]
    csv, rest = _gnuplot_string(splot)
    assert csv == f"{name}.csv" and (tmp_path / csv).is_file()
    assert rest.startswith(" using 1:2:5 ")


def test_directory_does_not_hide_a_preset(tmp_path, monkeypatch):
    """An output directory named like a preset (construct fig2b --out fig2b)
    leaves the preset reachable by name."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig2b").mkdir()
    result = CliRunner().invoke(main, ["audit", "fig2b"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"] == "fig2b"


def test_config_is_read_from_a_pipe():
    raw = io.preset_dir().joinpath("fig2b.json").read_text()
    result = _python("-m", "kundunls.cli", "audit", "/dev/stdin", input=raw,
                     capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["config"] == "fig2b"


@pytest.mark.parametrize("command", ["construct", "check", "evolve", "audit"])
def test_sign_convention_option_is_gone(command):
    """Every command uses sign convention "a" and has no option to change it."""
    result = CliRunner().invoke(main, [command, "fig2a", "--sign-convention", "a"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--sign-convention" in result.output


def _python(*args, **kwargs):
    """A Python process with this package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(kundunls.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_closed_stdout_ends_the_process_quietly():
    """A reader that has gone ends the command by SIGPIPE, as it ends Unix
    filters: no error line, no "Exception ignored" and no exit status 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write to stdout hits a closed pipe
    try:
        result = _python("-m", "kundunls.cli", "presets", stdout=write_end,
                         stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert result.returncode == -signal.SIGPIPE
    assert result.stderr == b""


def test_cli_runner_keeps_the_sigpipe_handler():
    before = signal.getsignal(signal.SIGPIPE)
    assert CliRunner().invoke(main, ["presets"]).exit_code == 0
    assert signal.getsignal(signal.SIGPIPE) == before


def test_cli_import_leaves_mpmath_out():
    """Only the residual sweep needs mpmath and decimal, so the commands that
    run none do not import them."""
    probe = _python("-c", "import sys, kundunls.cli; "
                    "print('mpmath' in sys.modules, 'decimal' in sys.modules)",
                    capture_output=True, text=True, check=True)
    assert probe.stdout == "False False\n"


NUMPY_PROBE = """
import sys
from kundunls import verification
from kundunls.cli import main

verification.RESIDUAL_N = 2
loaded = ["numpy" in sys.modules]
for args in sys.argv[1:]:
    try:
        main.main(args.split(), standalone_mode=False)
    except SystemExit:
        pass
    loaded.append("numpy" in sys.modules)
print(loaded, file=sys.stderr)
"""


def test_cli_import_leaves_numpy_out(tmp_path):
    """Only the commands that compute an array import numpy: presets, audit
    and check without the split-step run none, evolve does."""
    off = _small_fig2a(tmp_path, verification={"evolution": False})
    short = off.with_name("short.json")
    short.write_text(off.read_text().replace('"evolution": false',
                                             '"evolution": {"M": 256, "dt": 0.01}'))
    probe = _python("-c", NUMPY_PROBE, "presets", "audit fig2a", f"check {off.name}",
                    f"evolve {short.name}", cwd=tmp_path, capture_output=True,
                    text=True, check=True)
    assert probe.stderr == "[False, False, False, False, True]\n"


PACKAGE_PROBE = """
import sys

def package():
    return sorted(m for m in sys.modules if m.split(".")[0] == "kundunls")

import kundunls
loaded = [package()]
import kundunls.cli
loaded.append(package())
kundunls.cli.main.main(["presets"], standalone_mode=False)
loaded.append(package())
print(loaded, file=sys.stderr)
"""


def test_presets_loads_no_solver_config_or_verification_module():
    """The package loads nothing on import, and the CLI only its error types
    until a command runs that needs more."""
    probe = _python("-c", PACKAGE_PROBE, capture_output=True, text=True, check=True)
    cli = ["kundunls", "kundunls.cli", "kundunls.errors"]
    assert probe.stderr == f"{[['kundunls'], cli, cli]}\n"
    assert kundunls.preset_names() == io.preset_names()


OPENBLAS_PROBE = """
import os, sys
from kundunls.cli import main

try:
    main(["presets"])
finally:
    print(os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


@pytest.mark.parametrize("value, expected", [(None, "1"), ("3", "3")])
def test_process_entry_defaults_openblas_to_one_thread(monkeypatch, value, expected):
    """The console script and ``python -m`` start no OpenBLAS thread pool
    unless the user asks for one."""
    if value is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
    probe = _python("-c", OPENBLAS_PROBE, capture_output=True, text=True)
    assert probe.returncode == 0
    assert probe.stderr == f"{expected}\n"


@pytest.mark.parametrize("flag, env", [(["--threads", "0"], None),
                                       (["--threads", "-3"], None),
                                       ([], "0"), ([], "two")],
                         ids=["option-0", "option-minus-3", "env-0", "env-two"])
def test_threads_below_one_is_a_usage_error(tmp_path, monkeypatch, flag, env):
    """A thread count below 1, or an NZBC_THREADS that is no integer, is a
    usage error before the config is read."""
    if env is None:
        monkeypatch.delenv("NZBC_THREADS", raising=False)
    else:
        monkeypatch.setenv("NZBC_THREADS", env)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["construct", str(_small_fig2a(tmp_path)),
                                       "--out", str(out)] + flag)
    assert result.exit_code == 2
    assert ("--threads" if flag else "NZBC_THREADS") in result.output
    assert not out.exists()


def test_cli_construct_reports_flags_by_kind(tmp_path):
    result = CliRunner().invoke(main, ["construct", "fig7d", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert ("warning: 3321 grid points flagged (3321 near_singular, 0 singular)"
            in result.output)


@pytest.mark.parametrize("epsilon, nx, nt, n_inf", [(1e-307, 5, 3, 0),
                                                    (5.9e-309, 41, 21, 143)],
                         ids=["pgm-range-overflow", "modulus-overflow"])
def test_construct_near_double_range_flags_infinite_modulus(tmp_path, epsilon, nx, nt,
                                                            n_inf):
    """A |u| range near double range scales into the PGM without overflow,
    and a finite u whose |u| overflows writes abs_u inf, flagged singular,
    with pixel 128."""
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    raw["grid"].update(nx=nx, nt=nt)
    cfg = tmp_path / "tiny-epsilon.json"
    cfg.write_text(json.dumps(dict(raw, epsilon=epsilon)))
    result = CliRunner().invoke(main, ["construct", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    rows = [line.split(",") for line in
            (tmp_path / "fig2a.csv").read_text().splitlines()[1:]]
    pixels = (tmp_path / "fig2a.pgm").read_bytes()[-nx * nt:]
    infinite = [k for k, row in enumerate(rows) if row[4] == "inf"]
    assert len(infinite) == n_inf
    for k in infinite:
        t_index, x_index = divmod(k, nx)
        assert rows[k][7] == "singular"
        assert pixels[(nt - 1 - t_index) * nx + x_index] == 128
    # the points where abs(u) raises, though both parts of u are finite
    assert (n_inf == 0) != any(math.isfinite(float(rows[k][2]))
                               and math.isfinite(float(rows[k][3])) for k in infinite)


def test_check_verdict_is_the_gates_alone():
    """fig3a's eigenvalue lies 7e-7 off |z| = Q0, so its tail decays at
    2 Im lambda of about 1.4e-6: the boundary gate fails at any window, and
    that failure alone is the verdict."""
    result = CliRunner().invoke(main, ["check", "fig3a"])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["passed"] is False
    assert report["failed_gates"] == ["boundary"]
    assert report["residual_max"] < report["gates"]["residual"]
    assert report["theta_ok"]
    assert all(e > report["gates"]["boundary"] for e in report["boundary_errors"])
    assert report["evolution_linf_error"] is None
    assert "PeriodicIncompatible" in report["evolution_reason"]


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
    (("grid", "x_max"), NAN, "NonFiniteValue"),
    (("grid", "nx"), 10 ** 400, "NonFiniteValue"),
    (("grid", "t_min"), "-5", "BadNumber"),
    (("name",), "../fig2a", "BadName"),
    (("name",), "fig2a\nplot", "BadName"),
    (("name",), "fig2a\x00", "BadName"),
    (("name",), "fig2a\x85", "BadName"),
    (("q_minus",), [1e200, 0.0], "Unrepresentable"),
    (("eigenvalues", 0, "z"), [0.0, 5e-324], "Unrepresentable"),
    ((), [], "ConfigShape"),
    (("schema",), True, "SchemaVersion"),
    (("verification",), {"evolution": {"bogus": 1}}, "BadPlan"),
    (("verification",), {"window": [-5, 5, -3, 3]}, "BadPlan"),
    (("verification",), {"evolution": {"t0": 0.5, "t1": 0.5}}, "BadPlan"),
    (("verification",), {"evolution": {"t0": 0.5, "t1": -0.5}}, "BadPlan"),
    (("uncertain",), True, "UnknownKey"),
    (("gama0",), 1.2, "UnknownKey"),
    (("verificaton",), {"evolution": False}, "UnknownKey"),
    (("grid", "ny"), 5, "UnknownKey"),
    (("eigenvalues", 0, "b_plus"), [1.0, 0.0], "UnknownKey"),
    (("verification",), {"boundary_L": 40}, "BadPlan"),
    (("verification",), {"gates": {"evolution": 1.0}}, "BadPlan"),
    (("verification",), {"h": 1e-3}, "BadPlan"),
    (("verification",), {"residual_n": 21}, "BadPlan"),
    (("verification",), {"evolution": None}, "BadPlan"),
    (("verification",), {"evolution": {"M": 2 ** 62}}, "BadPlan"),
    (("verification",), {"evolution": {"M": 2 ** 63}}, "BadPlan"),
    (("verification",), {"evolution": {"M": 256, "dt": 1e-4, "t0": 0.0, "t1": 1e-10}},
     "BadPlan"),
    (("verification",), {"evolution": {"M": 1}}, "BadPlan"),
    (("verification",), {"evolution": {"L": 0}}, "BadPlan"),
    (("verification",), {"evolution": {"dt": -1e-4}}, "BadPlan"),
    (("eigenvalues", 0, "z"), [-0.8756538991142832, 0.48293917729456637],
     "ContourEigenvalue"),
    (("q_minus",), [True, False], "BadComplex"),
    (("eigenvalues", 0, "z"), [False, True], "BadComplex"),
], ids=["nan-epsilon", "inf-gamma0", "nan-q_minus", "huge-q_minus", "nan-z",
        "inf-A_plus", "nan-B_plus", "no-q_minus", "no-epsilon", "no-z",
        "no-A_plus", "eigenvalues-object", "string-epsilon",
        "numeric-string-epsilon", "grid-list", "reversed-x", "string-nx",
        "numeric-string-nx", "bool-nx", "zero-nt", "nan-x_max", "huge-nx", "string-t_min",
        "path-name", "newline-name", "nul-name", "c1-control-name",
        "overflowing-Q0-squared", "underflowing-mirror-point",
        "top-level-list", "bool-schema", "plan-unknown-evolution-key",
        "plan-window", "plan-empty-evolution-span",
        "plan-backward-evolution-span", "uncertain", "misspelt-top-level-key",
        "misspelt-verification", "unknown-grid-key", "unknown-eigenvalue-key",
        "plan-boundary_L", "plan-gates", "plan-h", "plan-residual_n",
        "plan-null-evolution", "plan-M-2**62", "plan-M-2**63", "plan-under-half-a-step",
        "plan-M-1", "plan-zero-L", "plan-negative-dt",
        "near-circle-z", "bool-q_minus", "bool-z"])
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


@pytest.mark.parametrize("source, path", [
    ("file", ("epsilon",)), ("file", ("gamma0",)), ("file", ("grid", "x_max")),
    ("python", ("epsilon",)), ("python", ("gamma0",)), ("python", ("q_minus",)),
], ids=["file-epsilon", "file-gamma0", "file-x_max", "python-epsilon",
        "python-gamma0", "python-q_minus"])
def test_int_beyond_double_range_is_a_nonfinite_value(tmp_path, source, path):
    """10**400 is a JSON number but no double: every site names it as it
    names a NaN, not as a BadNumber and not by an OverflowError."""
    with pytest.raises(ConfigValidationError) as err:
        if source == "file":
            raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(_edited(raw, path, 10 ** 400)))
            io.load_config(bad)
        else:
            SpectralConfig(**{"q_minus": 1 + 0j, "epsilon": 0.5, "gamma0": 0.0,
                              "pole_order": PoleOrder.SIMPLE, path[0]: 10 ** 400})
    assert [d.code for d in err.value.diagnostics] == ["NonFiniteValue"]


def test_numbers_are_stored_as_float_and_complex(tmp_path, fig2a):
    """Integers in a config or in Python hash as the floats they stand for."""
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    raw.update(gamma0=0, q_minus=[1, 0])
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(raw))
    built = SpectralConfig(1, 0.5, 0, PoleOrder.SIMPLE, [EigenEntry(1.5j, 1)])
    for cfg in (io.load_config(path).cfg, built):
        assert type(cfg.gamma0) is float and type(cfg.q_minus) is complex
        assert type(cfg.eigenvalues[0].A_plus) is complex
        assert config_digest(cfg) == config_digest(fig2a)


def _exits_with_error(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, args
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("error: "), result.output
    return result


@pytest.mark.parametrize("command", ["construct", "check", "evolve", "audit"])
def test_cli_unreadable_config_exits_1(tmp_path, command):
    """A directory that names no preset, a file that is not UTF-8 text, JSON
    nested deeper than the parser recurses or an integer too long to convert
    is an error, not a traceback."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long.json"
    long_int.write_text('{"epsilon": ' + "1" * 5000 + "}")
    for config in (tmp_path, latin1, deep, long_int):
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


def test_check_and_evolve_share_the_evolution_gate(tmp_path, monkeypatch):
    """400 steps of dt 0.01 on fig2a leave an error of about 0.05: both commands
    fail it by the one evolution gate, 1e-5."""
    monkeypatch.setattr(verification, "RESIDUAL_N", 2)
    cfg = _small_fig2a(tmp_path, verification={"evolution": {"dt": 0.01}})
    check = CliRunner().invoke(main, ["check", str(cfg)])
    evolve = CliRunner().invoke(main, ["evolve", str(cfg)])
    err = json.loads(evolve.output)["linf_error"]
    assert json.loads(check.output)["evolution_linf_error"] == err
    assert json.loads(check.output)["gates"]["evolution"] == 1e-5 < err < 1.0
    assert (check.exit_code, evolve.exit_code) == (1, 1)


def test_evolve_passes_a_window_the_field_does_not_fit(tmp_path):
    """fig2a has not decayed to its background at x = +-3, so that periodic
    window does not apply: evolve says why and exits 0."""
    setup = {"L": 3, "M": 64, "dt": 0.01, "t0": 0, "t1": 0.1}
    cfg = _small_fig2a(tmp_path, verification={"evolution": setup})
    result = CliRunner().invoke(main, ["evolve", str(cfg)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "config": "fig2a", "setup": setup,
        "not_applicable": "PeriodicIncompatible: window mismatch 3.848e-02 at t0"}


def _singular_row(orbit, xs, t):
    return [(complex("nan+nanj"), "singular", float("inf"))] * len(xs)


def _failing_mp_point(orbit, x, t, ctx=_mathctx.FLOAT, **kwargs):
    """Fails in the dps-40 sweep only; float evaluations pass through."""
    if ctx is not _mathctx.FLOAT:
        raise ZeroDivisionError("stand-in failure")
    return _EVALUATE_Q(orbit, x, t, ctx=ctx, **kwargs)


_EVALUATE_Q = simple_pole.evaluate_q


@pytest.mark.parametrize("command, name, stand_in, message", [
    ("check", "evaluate_q", _failing_mp_point, "stencil around (x=-5.0, t=-3.0,"),
    ("check", "sample_row", _singular_row, "singular points in the exact slice"),
    ("evolve", "sample_row", _singular_row, "singular points in the exact slice"),
], ids=["check-sweep", "check-slice", "evolve-slice"])
def test_solver_failure_in_verification_exits_1(tmp_path, monkeypatch, command, name,
                                                 stand_in, message):
    """A failing sweep point or a singular slice point is an error, not a
    traceback and not a NaN error."""
    monkeypatch.setattr(simple_pole, name, stand_in)
    monkeypatch.setattr(verification, "RESIDUAL_N", 2)
    cfg = _small_fig2a(tmp_path, verification={"evolution": {"M": 256, "dt": 0.01}})
    result = CliRunner().invoke(main, [command, str(cfg)])
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
    monkeypatch.setattr(verification, "RESIDUAL_N", 2)
    cfg = _small_fig2a(tmp_path, verification={"evolution": {"M": 256, "dt": 0.01}})
    args = [command, str(cfg)] + (["--out", str(tmp_path / "out")]
                                  if command == "construct" else [])
    assert "stand-in" in _exits_with_error(args).output


def test_config_without_plan_reads_the_default_plan(tmp_path):
    raw = json.loads(io.preset_dir().joinpath("fig2a.json").read_text())
    assert "verification" not in raw
    assert io.load_config(_small_fig2a(tmp_path)).evolution == EvolutionSetup()


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
SMALL_FIG2A.update(verification={"evolution": {"M": 256, "dt": 0.01}})
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
    verification plan; integers stay <= 5, so grids do too."""
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
