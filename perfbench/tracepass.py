"""Traced in-process pass over the package's layers.

Spans are recorded here, around calls into the public functions of the
modules ``spectrum``, ``simple_pole``, ``double_pole``, ``linalg``,
``fields``, ``io``, ``verification`` and ``scattering``; nothing inside the
package is instrumented.  Spans stay in memory and are written out at the
end with their self times (duration minus the time covered by child spans).
A per-call metric is the median self time of its spans.

    python3 perfbench/tracepass.py [--seed N]

runs the pass once with spans and once without and prints the difference.
"""

import argparse
import hashlib
import json
import random
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy

import checks

LAYERS = ("spectrum", "simple_pole", "double_pole", "linalg", "fields", "io",
          "verification", "scattering")

POINT_CALLS = 1000  # per float point-level metric
MP_POINT_CALLS = 40
ORBIT_CALLS = 200
MP_ORBIT_CALLS = 50
LOAD_CALLS = 30
PROBE_CALLS = 5
BOUNDARY_CALLS = 10
AUDIT_CALLS = 5
SPLIT_STEPS = 2000  # dt = 1e-4 from t0 = -2, as in the default evolve setup
WINDOW = (-5.0, 5.0, -3.0, 3.0)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1,
                    name, 0, 0]

    def __enter__(self):
        self.tracer.spans.append(self.rec)
        self.tracer.stack.append(self.rec[0])
        self.rec[3] = time.perf_counter_ns()

    def __exit__(self, *exc):
        self.rec[4] = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory spans: [id, parent id or -1, name, start ns, end ns]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name):
        return _Span(self, name)

    def self_ns(self):
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self):
        out = {}
        for rec, own in zip(self.spans, self.self_ns()):
            out.setdefault(rec[2], []).append(own)
        return out

    def dump(self, path):
        rows = [{"id": sid, "parent": parent, "name": name, "start_ns": start,
                 "end_ns": end, "self_ns": own}
                for (sid, parent, name, start, end), own
                in zip(self.spans, self.self_ns())]
        Path(path).write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


class NullTracer:
    def span(self, name):
        return nullcontext()


def _points(rng, grid, n):
    return [(rng.uniform(grid[0], grid[1]), rng.uniform(grid[2], grid[3]))
            for _ in range(n)]


def _box(run):
    g = run.grid
    return (g["x_min"], g["x_max"], g["t_min"], g["t_max"])


def _setup_layer(tr, rng, state):
    from kundunls import _mathctx, io, spectrum

    for _ in range(LOAD_CALLS):
        with tr.span("io.load_config"):
            io.load_config("fig2a")
    cfg = io.load_config("fig4a").cfg
    for _ in range(ORBIT_CALLS):
        with tr.span("spectrum.derive_orbit"):
            spectrum.derive_orbit(cfg, "a")
    mp = _mathctx.mp_context(40)
    for _ in range(MP_ORBIT_CALLS):
        with tr.span("spectrum.derive_orbit_mp"):
            spectrum.derive_orbit(cfg, "a", ctx=mp)


def _point_layer(tr, rng, state):
    import oracle
    from kundunls import _mathctx, double_pole, io, linalg, simple_pole
    from kundunls.spectrum import derive_orbit

    # lu_factor and cond_estimate are timed on the literal system of the same
    # point, right after point_sample, so their share of it is not skewed by
    # the host's speed drifting between separate loops
    for layer, tag, name, module in (("simple_pole", "n1", "fig2a", simple_pole),
                                     ("simple_pole", "n2", "fig4a", simple_pole),
                                     ("double_pole", "n1", "fig7a", double_pole)):
        orbit = derive_orbit(io.load_config(name).cfg, "a")
        pts = _points(rng, WINDOW, POINT_CALLS)
        for x, t in pts:
            with tr.span(f"{layer}.point_sample.{tag}"):
                module.point_sample(orbit, x, t)
            if module is simple_pole:
                G = simple_pole.assemble(orbit, x, t).G
                with tr.span(f"linalg.lu_factor.{tag}"):
                    fac = linalg.lu_factor(G)
                with tr.span(f"linalg.cond_estimate.{tag}"):
                    linalg.cond_estimate(G, fac)
        spec = oracle.Spectrum(state.raw(name))
        for x, t in pts[:3]:
            q, _, _ = module.point_sample(orbit, x, t)
            if abs(q - complex(spec.q(x, t))) > checks.ORACLE_TOL["ok"] * max(1, abs(q)):
                state.problems.append(f"trace: {name} point_sample differs from the "
                                      f"oracle at x={x}, t={t}")

    run = io.load_config("fig2a")
    orbit = derive_orbit(run.cfg, "a")
    for x, t in _points(rng, _box(run), POINT_CALLS):
        with tr.span("simple_pole.evaluate_q.n1"):
            simple_pole.evaluate_q(orbit, x, t, check_condition=False)
    mp = _mathctx.mp_context(40)
    orbit_mp = derive_orbit(run.cfg, "a", ctx=mp)
    for x, t in _points(rng, _box(run), MP_POINT_CALLS):
        with tr.span("simple_pole.evaluate_q_mp.n1"):
            simple_pole.evaluate_q(orbit_mp, x, t, ctx=mp, check_condition=False)


def _grid_layer(tr, rng, state):
    from kundunls import fields, io
    from kundunls.spectrum import derive_orbit

    grids = {}
    for label, name, threads in (("fields.evaluate_grid.t1", "fig2a", 1),
                                 ("fields.evaluate_grid.t2", "fig2a", 2),
                                 ("fields.evaluate_grid.t1.fig4d", "fig4d", 1)):
        run = io.load_config(name)
        g = run.grid
        xs = fields.linspace(g["x_min"], g["x_max"], int(g["nx"]))
        ts = fields.linspace(g["t_min"], g["t_max"], int(g["nt"]))
        orbit = derive_orbit(run.cfg, "auto")
        with tr.span(label):
            grids[label] = fields.evaluate_grid(run.cfg, orbit, xs, ts, threads=threads)
    one, two = grids["fields.evaluate_grid.t1"], grids["fields.evaluate_grid.t2"]
    if one.q_values != two.q_values or one.flags != two.flags:
        state.problems.append("trace: fig2a grid differs between 1 and 2 workers")
    state.grid_points = len(one.xs) * len(one.ts)
    for label in ("fields.evaluate_grid.t1", "fields.evaluate_grid.t1.fig4d"):
        grid = grids[label]
        state.counts["construct.points"] += len(grid.xs) * len(grid.ts)
        state.counts["construct.flagged_points"] += sum(
            f != "ok" for row in grid.flags for f in row)

    for label, write, suffix in (("io.write_grid_csv", io.write_grid_csv, "csv"),
                                 ("io.write_grid_json", io.write_grid_json, "json"),
                                 ("io.render_pgm", io.render_pgm, "pgm")):
        with tr.span(label):
            write(one, state.work / f"fig2a.{suffix}")
    pgm = (state.work / "fig2a.pgm").read_bytes()
    if hashlib.sha256(pgm).hexdigest() != checks.FIG2A_PGM_SHA256:
        state.problems.append("trace: fig2a.pgm does not match its pinned sha256")


def _verification_layer(tr, rng, state):
    from kundunls import double_pole, io, scattering, simple_pole, verification
    from kundunls.errors import EvaluationAtPole
    from kundunls.spectrum import derive_orbit

    originals = (simple_pole.evaluate_q, double_pole.evaluate_q)

    def counted(fn):
        def wrapper(*args, **kwargs):
            state.counts["residual.field_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    simple_pole.evaluate_q, double_pole.evaluate_q = map(counted, originals)
    try:
        for name in ("fig2a", "fig4a", "fig7a"):
            cfg = io.load_config(name).cfg
            with tr.span(f"verification.residual_sweep.{name}"):
                r = verification.residual_sweep(cfg, WINDOW, n=21, h=1e-3,
                                                convention="a")
            state.problems += [f"trace: {p}" for p in
                               checks.check_residual_oracle(name, state.raw(name), r, [])]
    finally:
        simple_pole.evaluate_q, double_pole.evaluate_q = originals

    cfg = io.load_config("fig4a").cfg
    for _ in range(PROBE_CALLS):
        with tr.span("verification.probe_convention"):
            verification.probe_convention(cfg)
    for _ in range(BOUNDARY_CALLS):
        with tr.span("verification.boundary_errors"):
            verification.boundary_errors(cfg, "a", L=30.0)
    orbit = derive_orbit(cfg, "a")
    for _ in range(AUDIT_CALLS):
        audit_rng = random.Random(rng.randrange(1 << 31))
        with tr.span("scattering.audit"):
            diags = [scattering.check_theta_condition(orbit)]
            diags += scattering.check_symmetries(orbit)
            worst, tried = 0.0, 0
            while tried < 100:
                z = complex(audit_rng.uniform(-3, 3), audit_rng.uniform(-3, 3))
                if abs(z) < 0.1 or abs(abs(z) - orbit.Q0) < 1e-3 or abs(z.imag) < 1e-3:
                    continue
                try:
                    prod = scattering.trace_s11(orbit, z) * scattering.trace_s22(orbit, z)
                except EvaluationAtPole:
                    continue
                worst = max(worst, abs(prod - 1))
                tried += 1
        if not (all(d.ok for d in diags) and worst <= 1e-12):
            state.problems.append("trace: audit of fig4a failed")

    setup = verification.EvolutionSetup(t0=-2.0, t1=-2.0 + SPLIT_STEPS * 1e-4)
    cfg = io.load_config("fig2a").cfg
    orbit = derive_orbit(cfg, "a")
    xs = -setup.L + 2 * setup.L * numpy.arange(setup.M) / setup.M
    slices = []
    for t in (setup.t0, setup.t1):
        with tr.span("verification.exact_slice"):
            slices.append(numpy.array([simple_pole.evaluate_q(
                orbit, x, t, check_condition=False) for x in xs]))
    with tr.span("verification.split_step"):
        evolved = verification.split_step_evolve(slices[0], setup, cfg.Q0)
    state.counts["evolve.steps"] += SPLIT_STEPS
    err = float(numpy.max(numpy.abs(evolved - slices[1])))
    if not err < checks.EVOLUTION_GATE:
        state.problems.append(f"trace: split-step error {err} over {SPLIT_STEPS} steps")


SECTIONS = (_setup_layer, _point_layer, _grid_layer, _verification_layer)


class _State:
    def __init__(self, work):
        from kundunls import io

        self.work = work
        self.problems = []
        self.counts = dict.fromkeys(("construct.points", "construct.flagged_points",
                                     "residual.field_evals", "evolve.steps"), 0)
        self._raw = {}
        self._io = io

    def raw(self, name):
        if name not in self._raw:
            path = self._io.resolve_config_path(name)
            self._raw[name] = json.loads(path.read_text(encoding="utf-8"))
        return self._raw[name]


def run_sections(tracer, seed, work):
    """Runs every section; returns (state, wall seconds per section)."""
    rng = random.Random(seed)
    state = _State(work)
    walls = {}
    for section in SECTIONS:
        start = time.perf_counter()
        with tracer.span("pass" + section.__name__):
            section(tracer, rng, state)
        walls[section.__name__.strip("_")] = time.perf_counter() - start
    return state, walls


def run_pass(seed, work, trace_path):
    """Traced pass; returns (per-layer metrics, problems) and writes the spans."""
    tr = Tracer()
    state, walls = run_sections(tr, seed, work)
    tr.dump(trace_path)
    spans = tr.by_name()

    def med(name, scale):
        return statistics.median(spans[name]) / scale

    def total(name):
        return sum(spans[name]) / 1e9

    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    put("io.load_config_ms", med("io.load_config", 1e6), "ms")
    put("spectrum.derive_orbit_us", med("spectrum.derive_orbit", 1e3), "us")
    put("spectrum.derive_orbit_mp_us", med("spectrum.derive_orbit_mp", 1e3), "us")
    for key in ("simple_pole.point_sample.n1", "simple_pole.point_sample.n2",
                "double_pole.point_sample.n1"):
        layer_fn, tag = key.rsplit(".", 1)
        put(f"{layer_fn}_us.{tag}", med(key, 1e3), "us")
    put("simple_pole.evaluate_q_us.n1", med("simple_pole.evaluate_q.n1", 1e3), "us")
    put("simple_pole.evaluate_q_mp_us.n1", med("simple_pole.evaluate_q_mp.n1", 1e3), "us")
    for tag in ("n1", "n2"):
        put(f"linalg.lu_factor_us.{tag}", med(f"linalg.lu_factor.{tag}", 1e3), "us")
        cond = med(f"linalg.cond_estimate.{tag}", 1e3)
        put(f"linalg.cond_estimate_us.{tag}", cond, "us")
        put(f"linalg.cond_estimate_share.{tag}",
            100 * cond / m[f"simple_pole.point_sample_us.{tag}"]["value"], "%")
    rate1 = state.grid_points / total("fields.evaluate_grid.t1")
    rate2 = state.grid_points / total("fields.evaluate_grid.t2")
    put("fields.evaluate_grid_points_per_s.t1", rate1, "1/s")
    put("fields.evaluate_grid_points_per_s.t2", rate2, "1/s")
    put("fields.fanout_speedup", rate2 / rate1, "x")
    put("io.write_grid_csv_s", total("io.write_grid_csv"), "s")
    put("io.write_grid_json_s", total("io.write_grid_json"), "s")
    put("io.render_pgm_s", total("io.render_pgm"), "s")
    for name in ("fig2a", "fig4a", "fig7a"):
        put(f"verification.residual_sweep_s.{name}",
            total(f"verification.residual_sweep.{name}"), "s")
    put("verification.probe_convention_ms", med("verification.probe_convention", 1e6), "ms")
    put("verification.boundary_errors_ms", med("verification.boundary_errors", 1e6), "ms")
    put("scattering.audit_ms", med("scattering.audit", 1e6), "ms")
    put("verification.split_step_us_per_step",
        total("verification.split_step") * 1e6 / SPLIT_STEPS, "us")
    put("verification.exact_slice_s", med("verification.exact_slice", 1e9), "s")
    for key, value in state.counts.items():
        put(key, value, "count")
    own = tr.self_ns()
    for layer in LAYERS:
        put(f"self_s.{layer}", sum(ns for rec, ns in zip(tr.spans, own)
                                   if rec[2].split(".")[0] == layer) / 1e9, "s")
    put("trace.spans", len(tr.spans), "count")
    put("trace.pass_s", sum(walls.values()), "s")
    return m, state.problems


def overhead(seed):
    """Section wall times with and without spans, and the cost of one span."""
    tr = Tracer()
    with tempfile.TemporaryDirectory(dir=_out_dir()) as tmp:
        _, traced = run_sections(tr, seed, Path(tmp))
        _, plain = run_sections(NullTracer(), seed, Path(tmp))
    n = 100_000
    empty = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with empty.span("x"):
            pass
    per_span = (time.perf_counter() - start) / n
    print(f"one empty span: {per_span * 1e6:.3f} us; {len(tr.spans)} spans in the pass "
          f"cost about {len(tr.spans) * per_span * 1e3:.1f} ms")
    for name in traced:
        print(f"{name:22s} traced {traced[name]:8.3f} s  untraced {plain[name]:8.3f} s"
              f"  overhead {traced[name] - plain[name]:+.3f} s")
    t, p = sum(traced.values()), sum(plain.values())
    print(f"{'total':22s} traced {t:8.3f} s  untraced {p:8.3f} s  overhead {t - p:+.3f} s"
          f" ({100 * (t - p) / p:+.2f}%)")


def _out_dir():
    out = Path(__file__).resolve().parent.parent / "perfbench_out"
    out.mkdir(exist_ok=True)
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Tracing overhead of the traced pass.")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    overhead(args.seed)
