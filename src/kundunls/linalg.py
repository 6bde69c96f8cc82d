"""Dense complex linear algebra for the small systems behind the solvers.

A matrix is a plain list of equal-length rows.  Row-oriented LU with partial
pivoting, written over generic complex scalars so the same factorization runs
in double precision or at the residual sweep's 40 digits.  Every entry may
instead be a batch of a context (``MathContext.batch``): the same entry of
many points' matrices, factorized at once, where each point pivots by the
scalar rule on its own.  Sizes stay tiny (4N x 4N with N the number of
eigenvalues); the 40-digit sweep is fast because it batches points, not
because of an array library.
"""

from dataclasses import dataclass

from .errors import SingularMatrix

PIVOT_UNDERFLOW = 1e-300


@dataclass
class LUFactorization:
    """Compact LU; ``pivots[k]`` is the row interchanged with row k at step k,
    or, where the points of a batch chose different rows, each point's row."""

    n: int
    lu: list
    pivots: list

    def solve(self, b):
        n = self.n
        if len(b) != n:
            raise ValueError("right-hand side length mismatch")
        x = list(b)
        for k, piv in enumerate(self.pivots):
            if type(piv) is list:
                where = type(self.lu[k][k]).where
                for r, mask in _point_rows(piv, k):
                    x[k], x[r] = where(mask, x[k], x[r]), where(mask, x[r], x[k])
            elif piv != k:
                x[k], x[piv] = x[piv], x[k]
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
        if any(type(piv) is list for piv in self.pivots):
            raise ValueError("the points of the batch were permuted differently")
        d = (-1.0) ** sum(piv != k for k, piv in enumerate(self.pivots))
        for i in range(self.n):
            d = d * self.lu[i][i]
        return d


def _first_largest(mags, k) -> int:
    """The index of the first largest of mags, column k's magnitudes from the
    diagonal down; SingularMatrix where that one underflows."""
    p = 0
    for i in range(1, len(mags)):
        if mags[i] > mags[p]:
            p = i
    if mags[p] < PIVOT_UNDERFLOW:
        raise SingularMatrix(f"pivot magnitude {mags[p]:.3e} at column {k}")
    return p


def _point_rows(pivots, k):
    """[(r, mask)] for each row r other than k that points pivot on; mask
    marks those points."""
    return [(r, [p == r for p in pivots]) for r in sorted(set(pivots) - {k})]


def lu_factor(rows) -> LUFactorization:
    """LU with partial pivoting of a square matrix given as a list of rows,
    its entries all scalars or all batches."""
    n = len(rows)
    lu = [list(r) for r in rows]
    batch = n > 0 and hasattr(lu[0][0], "magnitudes")
    pivots = []
    for k in range(n):
        # magnitudes compared in double: in multiprecision a full-precision hypot
        # per candidate would cost several times the conversion; the first
        # largest wins, at each point of a batch on its own
        if not batch:
            piv = k + _first_largest([abs(complex(lu[i][k])) for i in range(k, n)], k)
        else:
            piv = [k + _first_largest(mags, k)
                   for mags in zip(*(lu[i][k].magnitudes() for i in range(k, n)))]
            if piv.count(piv[0]) == len(piv):  # one row for every point
                piv = piv[0]
        if type(piv) is list:
            where = type(lu[k][k]).where
            for r, mask in _point_rows(piv, k):
                lu[k], lu[r] = ([where(mask, a, b) for a, b in zip(lu[k], lu[r])],
                                [where(mask, b, a) for a, b in zip(lu[k], lu[r])])
        else:
            lu[k], lu[piv] = lu[piv], lu[k]
        pivots.append(piv)
        prow = lu[k]
        pval = prow[k]
        for i in range(k + 1, n):
            row = lu[i]
            f = row[k] / pval
            row[k] = f
            # also where f is 0: row[j] - 0 * prow[j] is row[j], but for the
            # sign of a zero, wherever prow is finite
            for j in range(k + 1, n):
                row[j] = row[j] - f * prow[j]
    return LUFactorization(n, lu, pivots)


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
