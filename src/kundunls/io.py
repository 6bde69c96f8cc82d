"""Config ingestion, grid serialization, and figure emission.

The CSV and PGM writers are deliberately boring and bit-deterministic:
numbers go out in shortest round-trip decimal form and images as binary
NetPBM, so golden-file tests can compare raw bytes.
"""

import json
import math
import sys
import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import (ConfigParseError, ConfigValidationError, Diagnostic, NumberError,
                     finite_number)
from .fields import FieldGrid
from .spectrum import EigenEntry, PoleOrder, SpectralConfig
from .verification import EvolutionSetup

SCHEMA_VERSION = 1

CSV_HEADER = "x,t,re_u,im_u,abs_u,re_q,im_q,flag"

#: The keys a config may hold; ``note`` is free text for the reader.
CONFIG_KEYS = ("schema", "name", "note", "pole_order", "q_minus", "epsilon", "gamma0",
               "eigenvalues", "grid", "uncertain", "verification")
GRID_KEYS = ("x_min", "x_max", "nx", "t_min", "t_max", "nt")


@dataclass
class RunConfig:
    """One deserialized run: spectral data, grid and split-step setup (None:
    ``check`` skips the split-step check)."""

    cfg: SpectralConfig
    grid: dict
    name: str = ""
    evolution: EvolutionSetup | None = EvolutionSetup()
    uncertain: bool = False


def _as_complex(value, where: str) -> complex:
    """A [re, im] pair as a complex, each element by the complex number rule."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigValidationError([Diagnostic(
            "BadComplex", f"{where} must be a [re, im] pair, got {value!r}")])
    re, im = (_checked(v, f"{where}[{k}]", complex) for k, v in enumerate(value))
    return complex(re.real, im.real)


def _checked(value, where: str, kind=float):
    """``finite_number``, its error raised as a named diagnostic."""
    try:
        return finite_number(value, where, kind)
    except NumberError as exc:
        raise ConfigValidationError([Diagnostic(exc.code, str(exc))]) from None


def _check_grid(grid) -> None:
    """Each axis needs finite bounds and an integer count n >= 1; when n > 1,
    min < max with a step wide enough that the n points stay distinct."""
    if not isinstance(grid, dict):
        raise ConfigValidationError([Diagnostic("GridSpec", "grid must be an object")])
    for axis in "xt":
        lo, hi = (_checked(_require(grid, key, f"grid.{key}"), f"grid.{key}")
                  for key in (f"{axis}_min", f"{axis}_max"))
        n = _require(grid, f"n{axis}", f"grid.n{axis}")
        if type(n) is not int or _checked(n, f"grid.n{axis}") < 1:
            raise ConfigValidationError([Diagnostic(
                "GridSpec", f"grid.n{axis} must be an integer >= 1, got {n!r}")])
        # linspace moves each point by a few ulps of the largest magnitude,
        # and by more once the step is subnormal
        span = hi - lo
        step = span / max(n - 1, 1)
        if n > 1 and not (step > 16 * math.ulp(max(abs(lo), abs(hi), span))
                          and step >= sys.float_info.min):
            raise ConfigValidationError([Diagnostic(
                "GridSpec", f"grid.{axis}_min = {lo} must lie below grid.{axis}_max "
                f"= {hi}, far enough apart for n{axis} = {n} distinct points")])
    _known_keys(grid, GRID_KEYS, "grid")


def _read_plan(plan) -> EvolutionSetup | None:
    """The verification object's split-step setup, which checks its own
    fields: ``"evolution"`` true (the default) or an object of setup fields,
    each missing one at its default, or false for None.  Any other key, and
    a null, is rejected."""
    try:
        if not isinstance(plan, dict):
            raise TypeError(f"must be an object, got {plan!r}")
        unknown = sorted(set(plan) - {"evolution"})
        if unknown:
            raise TypeError(f"keys {unknown} cannot be set, only evolution")
        evolution = plan.get("evolution", True)
        if isinstance(evolution, bool):
            return EvolutionSetup() if evolution else None
        if isinstance(evolution, dict):
            return EvolutionSetup(**evolution)
        raise TypeError("evolution must be true, false or an object of "
                        f"EvolutionSetup fields, got {evolution!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigValidationError([Diagnostic(
            "BadPlan", f"verification: {exc}")]) from None


def _known_keys(obj: dict, keys, where: str) -> None:
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigValidationError([Diagnostic(
            "UnknownKey", f"{where} has unknown keys {unknown}")])


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigValidationError([Diagnostic("MissingKey", f"{where} is missing")])
    return obj[key]


def preset_dir():
    return resources.files("kundunls").joinpath("presets")


def preset_names():
    return sorted(p.name[:-5] for p in preset_dir().iterdir()
                  if p.name.endswith(".json"))


def resolve_config_path(spec: str):
    """A filesystem path other than a directory, or a bundled preset name
    like 'fig2a'; a directory of that name (say, an earlier --out) does not
    hide the preset."""
    p = Path(spec)
    if p.exists() and not p.is_dir():
        return p
    candidate = preset_dir().joinpath(spec if spec.endswith(".json")
                                      else spec + ".json")
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(f"no such config file or preset: {spec}")


def load_config(path) -> RunConfig:
    path = resolve_config_path(str(path))
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ConfigParseError("arrays or objects nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ConfigParseError(str(exc), line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer literal too long for int()
        raise ConfigParseError(str(exc)) from None

    if not isinstance(raw, dict):
        raise ConfigValidationError([Diagnostic(
            "ConfigShape", "config must be a JSON object")])
    problems = []
    schema = raw.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # a bool is no schema
        problems.append(Diagnostic(
            "SchemaVersion", f"expected \"schema\": {SCHEMA_VERSION}, got {schema!r}"))
    order_name = raw.get("pole_order")
    try:
        order = PoleOrder(order_name)
    except ValueError:
        problems.append(Diagnostic(
            "PoleOrder", f"pole_order must be simple or double, got {order_name!r}"))
        order = PoleOrder.SIMPLE
    if problems:
        raise ConfigValidationError(problems)
    _known_keys(raw, CONFIG_KEYS, "config")

    entries = raw.get("eigenvalues", [])
    if (not isinstance(entries, list)
            or not all(isinstance(entry, dict) for entry in entries)):
        raise ConfigValidationError([Diagnostic(
            "BadEigenvalues", f"eigenvalues must be a list of objects, got {entries!r}")])
    eigenvalues = []
    for i, entry in enumerate(entries):
        where = f"eigenvalues[{i}]"
        eigenvalues.append(EigenEntry(
            z=_as_complex(_require(entry, "z", f"{where}.z"), f"{where}.z"),
            A_plus=_as_complex(_require(entry, "A_plus", f"{where}.A_plus"),
                               f"{where}.A_plus"),
            B_plus=_as_complex(entry.get("B_plus", [0, 0]), f"{where}.B_plus"),
        ))
        _known_keys(entry, ("z", "A_plus", "B_plus"), where)
    cfg = SpectralConfig(
        q_minus=_as_complex(_require(raw, "q_minus", "q_minus"), "q_minus"),
        epsilon=_require(raw, "epsilon", "epsilon"),
        gamma0=raw.get("gamma0", 0.0),
        pole_order=order,
        eigenvalues=tuple(eigenvalues),
    )

    grid = raw.get("grid", {})
    _check_grid(grid)
    name = raw.get("name", path.stem)
    # the name becomes the stem of the output files and a gnuplot title, in
    # which a control character such as a newline would start a new command
    if (not isinstance(name, str) or not name.strip(".") or Path(name).name != name
            or any(unicodedata.category(c) == "Cc" for c in name)):
        raise ConfigValidationError([Diagnostic(
            "BadName", "name must be a plain file name without control "
            f"characters, got {name!r}")])
    uncertain = raw.get("uncertain", False)
    if not isinstance(uncertain, bool):
        raise ConfigValidationError([Diagnostic(
            "BadFlag", f"uncertain must be true or false, got {uncertain!r}")])
    return RunConfig(
        cfg=cfg,
        grid=grid,
        name=name,
        evolution=_read_plan(raw.get("verification", {})),
        uncertain=uncertain,
    )


def _fmt(v: float) -> str:
    """Shortest round-trip decimal; integral values lose the trailing .0."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def write_grid_csv(grid: FieldGrid, path):
    lines = [CSV_HEADER]
    for i, t in enumerate(grid.ts):
        for j, x in enumerate(grid.xs):
            u = grid.u_values[i][j]
            q = grid.q_values[i][j]
            lines.append(",".join((
                _fmt(x), _fmt(t),
                _fmt(u.real), _fmt(u.imag), _fmt(abs(u)),
                _fmt(q.real), _fmt(q.imag),
                grid.flags[i][j],
            )))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_grid_json(grid: FieldGrid, path):
    Path(path).write_text(json.dumps(grid.to_dict()) + "\n", encoding="utf-8")


def render_pgm(grid: FieldGrid, path):
    """Binary 8-bit NetPBM heatmap of |u|; top row is t_max."""
    rows = [[abs(v) for v in row] for row in grid.u_values]
    finite = [v for row in rows for v in row if math.isfinite(v)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    nx, nt = len(grid.xs), len(grid.ts)
    out = bytearray(f"P5\n{nx} {nt}\n255\n".encode("ascii"))
    for row in reversed(rows):  # last t first, so the image reads top-down in t
        for v in row:
            if hi == lo or not math.isfinite(v):
                pix = 128
            else:
                pix = round(255 * (v - lo) / (hi - lo))
            out.append(pix)
    Path(path).write_bytes(bytes(out))


GNUPLOT_TEMPLATE = """\
# Heatmap of |u| from {csv}
set datafile separator ','
set view map
set xlabel 'x'
set ylabel 't'
set title '{title}'
splot '{quoted_csv}' using 1:2:5 every ::1 with points pt 5 ps 0.4 palette notitle
pause -1
"""


def emit_gnuplot(csv_path, path, title: str = "|u|"):
    """Write the heatmap script; a ' inside gnuplot's single quotes is ''."""
    def quoted(text):
        return str(text).replace("'", "''")

    Path(path).write_text(GNUPLOT_TEMPLATE.format(
        csv=csv_path, quoted_csv=quoted(csv_path), title=quoted(title)),
        encoding="utf-8")
