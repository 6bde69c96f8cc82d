"""Sampled field surfaces and the grid evaluator.

The grid is stored t-major (row i = time ts[i]) with separate q and u
matrices plus a per-point flag.  Each t row is evaluated as one batch in
process, and every point's arithmetic is independent of the batch, so
downstream golden files stay byte-stable.
"""

import cmath
import hashlib
import json
from dataclasses import dataclass

import numpy

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

    Per-point failures become flags, not raises, and a non-finite u (or q) is
    flagged singular.  Evaluation runs in this process, one batch per t row;
    ``threads`` is accepted for callers that pass it and changes nothing.
    """
    xs = [float(x) for x in xs]
    ts = [float(t) for t in ts]
    sample_row = POLE_MODULES[orbit.cfg.pole_order].sample_row
    rows = [sample_row(orbit, xs, t) for t in ts]

    phase = cmath.exp(-1j * cfg.gamma0) / cfg.epsilon
    q_values, u_values, flags = [], [], []
    for row in rows:
        us = [q * phase for q, _, _ in row]  # not finite whenever q is not
        q_values.append([q for q, _, _ in row])
        u_values.append(us)
        flags.append([flag if cmath.isfinite(u) else "singular"
                      for (_, flag, _), u in zip(row, us)])
    return FieldGrid(xs, ts, q_values, u_values, flags, config_digest(cfg))


def linspace(a: float, b: float, n: int):
    return [float(v) for v in numpy.linspace(a, b, n)]
