"""Independent mpmath reference for the reflectionless field.

Rebuilds the simple-pole (2N x 2N) and double-pole (4N x 4N) systems from
the raw config numbers and solves them with ``mpmath.lu_solve``.  Nothing
here imports kundunls, so agreement with the package's output is a check by
a second route, not the package compared with itself.
"""

import mpmath

WINDOW = (-5.0, 5.0, -3.0, 3.0)  # residual window used by ``kundunls check``
RESIDUAL_N = 21
RESIDUAL_H = 1e-3
RESIDUAL_DPS = 40


def _c(pair):
    return complex(pair[0], pair[1])


class Spectrum:
    """Spectral data of one config, read straight from its JSON dict."""

    def __init__(self, raw):
        self.double = raw["pole_order"] == "double"
        self.q_minus = _c(raw["q_minus"])
        self.epsilon = float(raw["epsilon"])
        self.gamma0 = float(raw.get("gamma0", 0.0))
        q0 = abs(self.q_minus)
        self.zs = [_canonical(_c(e["z"]), q0) for e in raw["eigenvalues"]]
        self.As = [_c(e["A_plus"]) for e in raw["eigenvalues"]]
        self.Bs = [_c(e.get("B_plus", [0, 0])) for e in raw["eigenvalues"]]

    def q(self, x, t, dps=30):
        """Field q at (x, t); x and t may be floats or mpf.

        The systems are solved unscaled, so on a tiny background their entries
        span many decades and mpmath's pivot test can call them singular at
        ``dps`` digits; the solve is then repeated with more digits.
        """
        solve = _double_q if self.double else _simple_q
        for digits in (dps, 2 * dps, 4 * dps):
            try:
                return solve(self, x, t, digits)
            except ZeroDivisionError:
                continue
        raise ZeroDivisionError(f"oracle system singular at x={x}, t={t}")

    def u_of(self, q):
        """Gauge-side field u = q e^{-i gamma0} / epsilon, in mpmath."""
        return q * mpmath.exp(-1j * mpmath.mpf(self.gamma0)) / mpmath.mpf(self.epsilon)


def _canonical(z, q0):
    """Orbit member of {z, z*, -Q0^2/z, -Q0^2/z*} with Im > 0 and |.| > Q0."""
    for cand in (z, z.conjugate(), -q0 ** 2 / z, -(q0 ** 2) / z.conjugate()):
        if cand.imag > 0 and abs(cand) > q0:
            return cand
    raise ValueError(f"eigenvalue {z} has no canonical representative")


def _theta(x, t, z, q0):
    lam = (z + q0 ** 2 / z) / 2
    k = (z - q0 ** 2 / z) / 2
    return lam * (x - 2 * k * t)


def _theta_prime(x, t, z, q0):
    lam = (z + q0 ** 2 / z) / 2
    k = (z - q0 ** 2 / z) / 2
    lam_p = (1 - q0 ** 2 / z ** 2) / 2
    k_p = (1 + q0 ** 2 / z ** 2) / 2
    return lam_p * (x - 2 * k * t) - 2 * lam * k_p * t


def _orbit(spec):
    qm = mpmath.mpc(spec.q_minus)
    q0 = abs(qm)
    zs = [mpmath.mpc(z) for z in spec.zs]
    xi = zs + [-q0 ** 2 / z.conjugate() for z in zs]
    xih = [-q0 ** 2 / v for v in xi]
    return qm, q0, zs, xi, xih


def _simple_q(spec, x, t, dps):
    with mpmath.workdps(dps):
        qm, q0, zs, xi, xih = _orbit(spec)
        n = len(zs)
        if n == 0:
            return qm
        x, t = mpmath.mpf(x), mpmath.mpf(t)
        am = [None] * (2 * n)
        for i, (z, a) in enumerate(zip(zs, spec.As)):
            a = mpmath.mpc(a)
            am[i] = (qm * qm / (z * z)) * a
            am[n + i] = -a.conjugate()
        w = [am[j] * mpmath.exp(2j * _theta(x, t, xih[j], q0)) for j in range(2 * n)]
        v = [-1j * qm / s for s in xi]
        G = mpmath.matrix(2 * n)
        for s in range(2 * n):
            for j in range(2 * n):
                G[s, j] = w[j] / (xi[s] - xih[j]) + (v[s] if s == j else 0)
        mu = mpmath.lu_solve(G, mpmath.matrix([-vi for vi in v]))
        return qm + 1j * sum(w[j] * mu[j] for j in range(2 * n))


def _double_q(spec, x, t, dps):
    with mpmath.workdps(dps):
        qm, q0, zs, xi, xih = _orbit(spec)
        n = len(zs)
        if n == 0:
            return qm
        x, t = mpmath.mpf(x), mpmath.mpf(t)
        am = [None] * (2 * n)
        bm = [None] * (2 * n)
        for i, (z, a, b) in enumerate(zip(zs, spec.As, spec.Bs)):
            a, b = mpmath.mpc(a), mpmath.mpc(b)
            am[i] = (q0 ** 4 * qm / (z ** 4 * qm.conjugate())) * a
            am[n + i] = -a.conjugate()
            bm[i] = (z * z / q0 ** 2) * (b - 2 / z)
            bm[n + i] = b.conjugate()
        w = [am[j] * mpmath.exp(2j * _theta(x, t, xih[j], q0)) for j in range(2 * n)]
        dh = [bm[j] + 2j * _theta_prime(x, t, xih[j], q0) for j in range(2 * n)]
        m = 2 * n
        H = mpmath.matrix(2 * m)
        rhs = mpmath.matrix(2 * m, 1)
        for s in range(m):
            for j in range(m):
                d = xi[s] - xih[j]
                c = w[j] / d
                H[s, j] = c * (dh[j] + 1 / d) - (1j * qm / xi[s]) * (s == j)
                H[s, m + j] = c
                H[m + s, j] = (c / d) * (dh[j] + 2 / d) - (1j * qm / xi[s] ** 2) * (s == j)
                H[m + s, m + j] = c / d + (1j * q0 ** 2 * qm / xi[s] ** 3) * (s == j)
            rhs[s] = -1j * qm / xi[s]
            rhs[m + s] = -1j * qm / xi[s] ** 2
        y = mpmath.lu_solve(H, rhs)
        return qm - 1j * sum(w[j] * (y[m + j] + dh[j] * y[j]) for j in range(m))


def sweep_point(i, j, window=WINDOW, n=RESIDUAL_N, dps=RESIDUAL_DPS):
    """Node (x_i, t_j) of the residual sweep, built in working precision."""
    with mpmath.workdps(dps):
        x_min, x_max, t_min, t_max = (mpmath.mpf(v) for v in window)
        return (x_min + (x_max - x_min) * i / (n - 1),
                t_min + (t_max - t_min) * j / (n - 1))


def residual(spec, x, t, h=RESIDUAL_H, dps=RESIDUAL_DPS):
    """|i q_t + q_xx + 2(|q|^2 - Q0^2) q| from fourth-order stencils."""
    with mpmath.workdps(dps):
        h = mpmath.mpf(h)
        qc = spec.q(x, t, dps)
        qx = [spec.q(x + k * h, t, dps) for k in (-2, -1, 1, 2)]
        qt = [spec.q(x, t + k * h, dps) for k in (-2, -1, 1, 2)]
        q_xx = (-qx[0] + 16 * qx[1] - 30 * qc + 16 * qx[2] - qx[3]) / (12 * h * h)
        q_t = (qt[0] - 8 * qt[1] + 8 * qt[2] - qt[3]) / (12 * h)
        q0sq = abs(mpmath.mpc(spec.q_minus)) ** 2
        r = 1j * q_t + q_xx + 2 * (abs(qc) ** 2 - q0sq) * qc
        return float(abs(r))
