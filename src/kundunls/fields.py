"""Sampled field surfaces and the grid evaluator.

The grid is stored t-major (row i = time ts[i]) with separate q and u
matrices plus a per-point flag.  Each t row is evaluated as one batch in
process, and every point's arithmetic is independent of the batch, so
downstream golden files stay byte-stable.
"""

import cmath
import hashlib
import json
import math
from dataclasses import dataclass

from . import double_pole, simple_pole
from .spectrum import OrbitTable, PoleOrder, SpectralConfig

#: The module that reconstructs fields of each pole order.
POLE_MODULES = {PoleOrder.SIMPLE: simple_pole, PoleOrder.DOUBLE: double_pole}


def config_digest(cfg: SpectralConfig) -> str:
    """Stable sha256 over the canonical JSON form of the spectral data."""
    payload = {
        "q_minus": [cfg.q_minus.real, cfg.q_minus.imag],
        "epsilon": cfg.epsilon,
        "gamma0": cfg.gamma0,
        "pole_order": cfg.pole_order.value,
        "eigenvalues": [
            {
                "z": [e.z.real, e.z.imag],
                "A_plus": [e.A_plus.real, e.A_plus.imag],
                "B_plus": [e.B_plus.real, e.B_plus.imag],
            }
            for e in cfg.eigenvalues
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class FieldGrid:
    """Field values on the cartesian product ts x xs (t-major)."""

    xs: list
    ts: list
    q_values: list  # nested lists, len(ts) rows of len(xs) complex values
    u_values: list
    flags: list  # same shape, strings: ok | near_singular | singular
    config_digest: str = ""

    def to_dict(self) -> dict:
        return {
            "xs": list(self.xs),
            "ts": list(self.ts),
            "q_values": [[[v.real, v.imag] for v in row] for row in self.q_values],
            "u_values": [[[v.real, v.imag] for v in row] for row in self.u_values],
            "flags": [list(row) for row in self.flags],
            "config_digest": self.config_digest,
        }


def evaluate_grid(cfg: SpectralConfig, orbit: OrbitTable, xs, ts,
                  threads: int = 1) -> FieldGrid:
    """Sample u = q e^{-i gamma0} / epsilon and q over ts x xs.

    Per-point failures become flags, not raises, and a u (or q) that is not
    finite, or whose modulus is not, is flagged singular.  Evaluation runs in
    this process, one batch per t row; ``threads`` is accepted for callers
    that pass it and changes nothing.
    """
    xs = [float(x) for x in xs]
    ts = [float(t) for t in ts]
    sample_row = POLE_MODULES[orbit.cfg.pole_order].sample_row
    phase = cmath.exp(-1j * cfg.gamma0) / cfg.epsilon
    q_values, u_values, flags = [], [], []
    for t in ts:  # each row's (q, flag, cond) tuples go as soon as it is split
        row = sample_row(orbit, xs, t)
        qs = [q for q, _, _ in row]
        us = [q * phase for q in qs]  # not finite whenever q is not
        q_values.append(qs)
        u_values.append(us)
        flags.append([flag if math.isfinite(a) else "singular"
                      for (_, flag, _), a in zip(row, abs_row(us))])
    return FieldGrid(xs, ts, q_values, u_values, flags, config_digest(cfg))


def abs_row(values) -> list:
    """abs(v) of each complex v (math.hypot can differ in the last ulp), and
    inf where both parts are finite but abs raises because |v| overflows."""
    try:
        return list(map(abs, values))
    except OverflowError:
        return [_abs_or_inf(v) for v in values]


def _abs_or_inf(v: complex) -> float:
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def linspace(a: float, b: float, n: int):
    import numpy
    return [float(v) for v in numpy.linspace(a, b, n)]
