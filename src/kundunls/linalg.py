"""Dense complex linear algebra for the small systems behind the solvers.

A matrix is a plain list of equal-length rows.  Row-oriented LU with partial
pivoting, written over generic complex scalars so the same factorization runs
in double precision or at the residual sweep's 40 digits.  Sizes stay tiny
(4N x 4N with N the number of eigenvalues), so there is no reason to reach
past plain Python here.
"""

from dataclasses import dataclass

from .errors import SingularMatrix

PIVOT_UNDERFLOW = 1e-300


@dataclass
class LUFactorization:
    """Compact LU with the row permutation applied during elimination."""

    n: int
    lu: list
    perm: list
    perm_sign: int

    def solve(self, b):
        n = self.n
        if len(b) != n:
            raise ValueError("right-hand side length mismatch")
        x = [b[p] for p in self.perm]
        for i in range(n):  # forward substitution, unit lower triangle
            row = self.lu[i]
            acc = x[i]
            for j in range(i):
                acc = acc - row[j] * x[j]
            x[i] = acc
        for i in range(n - 1, -1, -1):  # back substitution
            row = self.lu[i]
            acc = x[i]
            for j in range(i + 1, n):
                acc = acc - row[j] * x[j]
            x[i] = acc / row[i]
        return x

    def det(self):
        d = 1.0 * self.perm_sign
        for i in range(self.n):
            d = d * self.lu[i][i]
        return d


def lu_factor(rows) -> LUFactorization:
    """LU with partial pivoting of a square matrix given as a list of rows."""
    n = len(rows)
    lu = [list(r) for r in rows]
    perm = list(range(n))
    sign = 1
    for k in range(n):
        # magnitudes compared in double: in multiprecision a full-precision hypot
        # per candidate would cost several times the conversion
        piv, pmag = k, abs(complex(lu[k][k]))
        for i in range(k + 1, n):
            m = abs(complex(lu[i][k]))
            if m > pmag:
                piv, pmag = i, m
        if pmag < PIVOT_UNDERFLOW:
            raise SingularMatrix(f"pivot magnitude {pmag:.3e} at column {k}")
        if piv != k:
            lu[k], lu[piv] = lu[piv], lu[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            sign = -sign
        prow = lu[k]
        pval = prow[k]
        for i in range(k + 1, n):
            row = lu[i]
            f = row[k] / pval
            row[k] = f
            if f != 0:
                for j in range(k + 1, n):
                    row[j] = row[j] - f * prow[j]
    return LUFactorization(n, lu, perm, sign)


def det(rows):
    """Determinant as the signed product of LU pivots; 0 on pivot underflow."""
    try:
        return lu_factor(rows).det()
    except SingularMatrix:
        return 0.0 * rows[0][0]


def cond_estimate(rows, factorization=None) -> float:
    """Exact 1-norm condition number ||A||_1 max_j ||A^-1 e_j||_1.

    One solve per column from the given (or a fresh) LU factorization; the
    systems here are at most 4N x 4N, so this is cheaper than an estimator
    that factorizes A^H as well.
    """
    n = len(rows)
    if n == 0:
        return 1.0
    fac = factorization if factorization is not None else lu_factor(rows)
    inv_norm = max(
        sum(float(abs(v)) for v in fac.solve([float(i == j) for i in range(n)]))
        for j in range(n)
    )
    norm = max(sum(float(abs(r[j])) for r in rows) for j in range(n))
    return norm * inv_norm
