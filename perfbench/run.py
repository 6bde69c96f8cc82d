"""End-to-end benchmark of the kundunls command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``./src`` and every command runs as ``python3 -m kundunls.cli`` in its own
process, one at a time.  Workloads:

  construct-presets  ``construct`` of every bundled preset that validates,
                     then ``construct fig2a --threads 2``
  check-residual     ``check`` (evolution off) and ``audit`` on fig2a, fig4a
                     and fig7a
  evolve-splitstep   ``evolve fig2a`` at the default setup

A run times CLI start-up (``setup_s``) and repeats whole rounds of the
workload until ``--seconds`` have passed (at least one round), checking
every round's outputs.  With ``--trace 1`` it then runs the traced
in-process pass of ``tracepass.py`` and reports the per-layer metrics
instead of the end-to-end ones.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402

#: Every bundled preset that passes validation (fig5c does not: its two
#: eigenvalues coincide).  225,265 grid points in all.
CONSTRUCT_PRESETS = (
    "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig3c",
    "fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b",
    "fig6a", "fig6b", "fig6c", "fig6d",
    "fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b", "fig8c", "fig8d",
)
CHECK_PRESETS = ("fig2a", "fig4a", "fig7a")
#: ``check fig4a`` fails every time: its residual passes, but the boundary
#: gate at the fixed L = 30 sees |q(+30) - q_plus| = 1.9e-6 > 1e-6.
EXPECTED_FAILURE = ("check", "fig4a")

DEFAULT_EVOLVE = {"L": 40.0, "M": 4096, "dt": 1e-4, "t0": -2.0, "t1": 2.0}
#: Short span for the Strang order check: dt and dt/2.
ORDER_EVOLVE = ({"L": 40.0, "M": 4096, "dt": 2e-3, "t0": -2.0, "t1": -1.6},
                {"L": 40.0, "M": 4096, "dt": 1e-3, "t0": -2.0, "t1": -1.6})

SETUP_EDGE_REPEATS = 3  # start-up samples before the first and after the last command
SETUP_GAP_S = 2.0  # plus one after a counted command when this much time has passed
ORACLE_SAMPLES = 12  # CSV rows compared with the oracle, per preset
RESIDUAL_NODES = 3  # seeded sweep nodes re-evaluated by the oracle, per check
COMMAND_TIMEOUT_S = 170

WORKLOADS = ("construct-presets", "check-residual", "evolve-splitstep")


class Cli:
    """Runs ``python3 -m kundunls.cli`` and records wall time and max RSS.

    It also times start-up (``kundunls presets``) between the counted
    commands, at most every ``SETUP_GAP_S``: the host's speed drifts over
    seconds, so start-up samples spread over the run are steadier than
    back-to-back ones.
    """

    def __init__(self, work):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "NZBC_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.setup_times = []
        self.last_setup = 0.0

    def time_setup(self, repeats=1):
        for _ in range(repeats):
            rc, wall, out = self.run("presets", count=False)
            if rc != 0 or not set(CONSTRUCT_PRESETS) <= set(out.split()):
                raise RuntimeError(f"kundunls presets failed (exit {rc})")
            self.setup_times.append(wall)
        self.last_setup = time.perf_counter()

    def run(self, *args, count=True, expect_rc=0):
        """(exit code, wall seconds, stdout) of one invocation."""
        out_path, err_path = self.work / "cli.out", self.work / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "kundunls.cli", *args],
                                    stdout=out, stderr=err, cwd=self.work, env=self.env)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        rc = proc.returncode = os.waitstatus_to_exitcode(status)
        if count:
            self.attempted += 1
            self.failed += rc != 0
            # ru_maxrss of a reaped child covers its own reaped children too
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if rc != expect_rc:
            print(f"kundunls {' '.join(args)} exited {rc}: "
                  f"{err_path.read_text(errors='replace')[-500:]}", file=sys.stderr)
        out = out_path.read_text(encoding="utf-8")
        if count and time.perf_counter() - self.last_setup >= SETUP_GAP_S:
            self.time_setup()
        return rc, wall, out


def load_raw(name):
    from kundunls import io

    return json.loads(io.resolve_config_path(name).read_text(encoding="utf-8"))


class ConstructPresets:
    """Single-worker construct of every preset, then fig2a on two workers."""

    unit_of_work = "grid points"

    def __init__(self, cli, rng):
        self.cli = cli
        self.rng = rng
        self.raw = {name: load_raw(name) for name in CONSTRUCT_PRESETS}
        self.worst = {}

    def outputs(self, outdir, name):
        return {kind: outdir / f"{name}.{kind}" for kind in ("csv", "json", "pgm")}

    def round(self):
        """(timed seconds, work units, seconds spent on them, problems)."""
        single, double = self.cli.work / "t1", self.cli.work / "t2"
        timed = points = point_s = 0.0
        for name in CONSTRUCT_PRESETS:
            rc, wall, _ = self.cli.run("construct", name, "--out", str(single))
            timed += wall
            if rc == 0:
                g = self.raw[name]["grid"]
                points += int(g["nx"]) * int(g["nt"])
                point_s += wall
        _, wall, _ = self.cli.run("construct", "fig2a", "--threads", "2",
                                  "--out", str(double))
        timed += wall
        problems = []
        for name in CONSTRUCT_PRESETS:
            problems += checks.check_construct(name, self.raw[name],
                                               self.outputs(single, name), self.rng,
                                               ORACLE_SAMPLES, self.worst)
        problems += checks.check_thread_identity(self.outputs(single, "fig2a"),
                                                 self.outputs(double, "fig2a"))
        print(f"oracle: worst relative error by flag {self.worst}", file=sys.stderr)
        return timed, points, point_s, problems

    def after_rounds(self):
        return []

    def negative_probe(self):
        """Alter one re_q value of fig2a.csv: both the row-by-row consistency
        check and the oracle comparison of that row must object."""
        paths = self.outputs(self.cli.work / "t1", "fig2a")
        lines = paths["csv"].read_text(encoding="utf-8").splitlines()
        grid = json.loads(paths["json"].read_text(encoding="utf-8"))
        raw = self.raw["fig2a"]
        k = self.rng.randrange(1, len(lines))
        cells = lines[k].split(",")
        cells[5] = repr(float(cells[5]) * (1 + 1e-9) + 1e-9)
        lines[k] = ",".join(cells)
        return bool(checks.check_consistency(lines, raw, grid)) and bool(
            checks.check_rows(lines, oracle.Spectrum(raw), [k], {}))


class CheckResidual:
    """``check`` with evolution off, and ``audit``, on three configs."""

    unit_of_work = "residual-sweep points"

    def __init__(self, cli, rng):
        self.cli = cli
        self.rng = rng
        self.raw = {name: load_raw(name) for name in CHECK_PRESETS}
        self.configs = {}
        for name, raw in self.raw.items():
            copy = dict(raw, verification={"evolution": False})
            path = cli.work / f"{name}-noevo.json"
            path.write_text(json.dumps(copy), encoding="utf-8")
            self.configs[name] = path
        self.reports = {}

    def round(self):
        timed = points = point_s = 0.0
        problems = []
        for name in CHECK_PRESETS:
            expected_failure = ("check", name) == EXPECTED_FAILURE
            rc, wall, out = self.cli.run("check", str(self.configs[name]),
                                         expect_rc=int(expected_failure))
            timed += wall
            report = json.loads(out)
            self.reports[name] = report
            n = int(report["residual_grid_spec"].split("x")[0])
            points += n * n
            point_s += wall
            problems += checks.check_report(name, report, rc, expected_failure)
            nodes = [(self.rng.randrange(21), self.rng.randrange(21))
                     for _ in range(RESIDUAL_NODES)]
            problems += checks.check_residual_oracle(
                name, self.raw[name], report["residual_max"], nodes)

            seed = self.rng.randrange(1 << 31)
            rc, wall, out = self.cli.run("audit", name, "--seed", str(seed))
            timed += wall
            problems += checks.check_audit(name, json.loads(out), rc, seed)
        return timed, points, point_s, problems

    def after_rounds(self):
        return []

    def negative_probe(self):
        """Swap the residual_max of two reports: both cross-checks must object."""
        a, b = self.reports["fig2a"]["residual_max"], self.reports["fig4a"]["residual_max"]
        return all(checks.check_residual_oracle(name, self.raw[name], value, [])
                   for name, value in (("fig2a", b), ("fig4a", a)))


class EvolveSplitstep:
    """``evolve fig2a`` at the default 40,000-step setup."""

    unit_of_work = "split-step steps"

    def __init__(self, cli, rng):
        self.cli = cli
        raw = load_raw("fig2a")
        self.order_configs = []
        for k, setup in enumerate(ORDER_EVOLVE):
            path = cli.work / f"fig2a-order{k}.json"
            path.write_text(json.dumps(dict(raw, verification={"evolution": setup})),
                            encoding="utf-8")
            self.order_configs.append(path)

    def round(self):
        rc, wall, out = self.cli.run("evolve", "fig2a")
        payload = json.loads(out)
        s = payload["setup"]
        steps = round((s["t1"] - s["t0"]) / s["dt"])
        return wall, steps, wall, checks.check_evolve(payload, rc, DEFAULT_EVOLVE)

    def after_rounds(self):
        """Strang order on a short span, once per run (untimed)."""
        errs, problems = [], []
        for path, setup in zip(self.order_configs, ORDER_EVOLVE):
            rc, _, out = self.cli.run("evolve", str(path))
            payload = json.loads(out)
            problems += checks.check_evolve(payload, rc, setup)
            errs.append(payload.get("linf_error") or 0.0)
        return problems + checks.check_strang_order(*errs)

    def negative_probe(self):
        """Errors that do not fall as dt^2 must fail the order check."""
        return bool(checks.check_strang_order(1e-6, 5e-7))


WORKLOAD_CLASSES = dict(zip(WORKLOADS, (ConstructPresets, CheckResidual, EvolveSplitstep)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "kundunls" / "cli.py").is_file():
        print(f"error: no kundunls sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work):
    rng = random.Random(args.seed)
    cli = Cli(work)
    cli.run("presets", count=False)  # compiles bytecode; not timed
    cli.time_setup(SETUP_EDGE_REPEATS)
    workload = WORKLOAD_CLASSES[args.workload](cli, rng)

    problems, round_walls = [], []
    points = point_s = 0.0
    start = time.perf_counter()
    while not round_walls or time.perf_counter() - start < args.seconds:
        wall, n, s, found = workload.round()
        round_walls.append(wall)
        points += n
        point_s += s
        problems += found
    problems += workload.after_rounds()
    cli.time_setup(SETUP_EDGE_REPEATS)
    if not workload.negative_probe():
        problems.append("negative probe: a corrupted output passed the checker")

    if args.trace:
        import tracepass

        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, found = tracepass.run_pass(args.seed, work, trace_path)
        problems += found
    else:
        metrics = {
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "setup_s": {"value": statistics.median(cli.setup_times), "unit": "s"},
            "peak_rss_mb": {"value": cli.peak_rss_mb, "unit": "MB"},
            "work_per_s": {"value": points / point_s, "unit": "1/s"},
        }
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{len(round_walls)} round(s), {len(cli.setup_times)} start-up samples; "
          f"work unit: {workload.unit_of_work}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": cli.attempted,
                      "failed": cli.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
