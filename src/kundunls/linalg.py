"""Dense complex linear algebra for the small systems behind the solvers.

Row-oriented LU with partial pivoting, written over generic complex scalars
so the same factorization runs in double precision or under mpmath.  Sizes
stay tiny (4N x 4N with N the number of eigenvalues), so there is no reason
to reach past plain Python here.
"""

import math
from dataclasses import dataclass

from .errors import NonSquareMatrix, SingularMatrix

PIVOT_UNDERFLOW = 1e-300


def _is_finite(value) -> bool:
    try:
        return math.isfinite(float(abs(value)))
    except (OverflowError, ValueError):
        return False


@dataclass
class DenseComplexMatrix:
    """Square or rectangular complex matrix stored row-major as nested lists."""

    rows: int
    cols: int
    entries: list

    @classmethod
    def from_rows(cls, rows, check_finite=True):
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        data = [list(r) for r in rows]
        if any(len(r) != nc for r in data):
            raise ValueError("ragged rows")
        if check_finite:
            for r in data:
                for v in r:
                    if not _is_finite(v):
                        raise ValueError("non-finite matrix entry")
        return cls(nr, nc, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])

    def require_square(self):
        if self.rows != self.cols:
            raise NonSquareMatrix(f"{self.rows}x{self.cols} matrix is not square")

    def matvec(self, x):
        return [sum(r[j] * x[j] for j in range(self.cols)) for r in self.entries]

    def norm_1(self):
        return max(
            (sum(float(abs(self.entries[i][j])) for i in range(self.rows))
             for j in range(self.cols)),
            default=0.0,
        )

    def norm_inf(self):
        return max((sum(float(abs(v)) for v in r) for r in self.entries), default=0.0)


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


def lu_factor(A: DenseComplexMatrix) -> LUFactorization:
    A.require_square()
    n = A.rows
    lu = [list(r) for r in A.entries]
    perm = list(range(n))
    sign = 1
    for k in range(n):
        piv, pmag = k, float(abs(lu[k][k]))
        for i in range(k + 1, n):
            m = float(abs(lu[i][k]))
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


def lu_solve(A: DenseComplexMatrix, b):
    """Solve A x = b by LU with partial pivoting."""
    return lu_factor(A).solve(b)


def det(A: DenseComplexMatrix):
    """Determinant as the signed product of LU pivots; 0 on pivot underflow."""
    A.require_square()
    try:
        return lu_factor(A).det()
    except SingularMatrix:
        return 0.0 * A.entries[0][0]


def cond_estimate(A: DenseComplexMatrix, factorization=None) -> float:
    """Exact 1-norm condition number ||A||_1 max_j ||A^-1 e_j||_1.

    One solve per column from the given (or a fresh) LU factorization; the
    systems here are at most 4N x 4N, so this is cheaper than an estimator
    that factorizes A^H as well.
    """
    A.require_square()
    n = A.rows
    if n == 0:
        return 1.0
    fac = factorization if factorization is not None else lu_factor(A)
    inv_norm = max(
        sum(float(abs(v)) for v in fac.solve([float(i == j) for i in range(n)]))
        for j in range(n)
    )
    return A.norm_1() * inv_norm
