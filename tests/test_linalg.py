import random

import numpy as np
import pytest

from kundunls._mathctx import decimal_context
from kundunls.errors import SingularMatrix
from kundunls.linalg import cond_estimate, det, lu_factor


def random_matrix(rng, n):
    return [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
            for _ in range(n)]


def test_solve_residuals_over_many_seeded_systems():
    rng = random.Random(20240817)
    for trial in range(400):
        n = rng.randint(2, 12) if trial % 5 else rng.randint(13, 32)
        rows = random_matrix(rng, n)
        b = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        x = lu_factor(rows).solve(b)
        Ax = [sum(a * xj for a, xj in zip(row, x)) for row in rows]
        r = max(abs(ri - bi) for ri, bi in zip(Ax, b))
        norm_inf = max(sum(abs(v) for v in row) for row in rows)
        scale = norm_inf * max(abs(v) for v in x) + max(abs(v) for v in b)
        assert r <= 1e-11 * scale


def test_solve_matches_numpy():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 10)
        rows = random_matrix(rng, n)
        b = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        ours = lu_factor(rows).solve(b)
        ref = np.linalg.solve(np.array(rows), np.array(b))
        assert max(abs(o - r) for o, r in zip(ours, ref)) < 1e-9


def test_det_matches_numpy():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 8)
        rows = random_matrix(rng, n)
        ours = det(rows)
        ref = np.linalg.det(np.array(rows))
        assert abs(ours - ref) <= 1e-9 * (1 + abs(ref))


def test_bordered_determinant_identity():
    # det([[A, v], [w^T, 0]]) = -w^T A^{-1} v * det(A)
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 8)
        rows = random_matrix(rng, n)
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        w = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        bordered = [row + [v[i]] for i, row in enumerate(rows)]
        bordered.append(list(w) + [0j])
        lhs = det(bordered)
        x = lu_factor(rows).solve(v)
        rhs = -sum(wi * xi for wi, xi in zip(w, x)) * det(rows)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))


def test_singular_matrix_raises():
    rows = [[1 + 0j, 2 + 0j], [2 + 0j, 4 + 0j]]
    with pytest.raises(SingularMatrix):
        lu_factor(rows)
    assert det(rows) == 0


def test_permutation_sign_in_det():
    rows = [[0j, 1 + 0j], [1 + 0j, 0j]]
    assert abs(det(rows) + 1) < 1e-15


def test_a_batch_pivots_each_point_on_its_own():
    """Twelve 40-digit matrices factorized as one batch pivot in more than one
    order, and each point gets the pivots, factors and solution of its own
    scalar factorization, also the point whose multiplier in row 1 is 0 and
    whose row is updated like every other; a batch permuted differently by
    point has no one determinant sign."""
    ctx = decimal_context(40)
    rng = random.Random(11)
    n = 4
    mats = [random_matrix(rng, n) for _ in range(12)]
    mats[1][0][0], mats[1][1][0] = 10 + 0j, 0j
    rhs = [ctx.convert(complex(rng.gauss(0, 1), rng.gauss(0, 1))) for _ in range(n)]
    scalars = [[[ctx.convert(v) for v in row] for row in m] for m in mats]
    fac = lu_factor([[ctx.batch.of([m[i][j] for m in scalars]) for j in range(n)]
                     for i in range(n)])
    x = fac.solve(rhs)
    refs = [lu_factor(m) for m in scalars]
    assert len({tuple(ref.pivots) for ref in refs}) > 1
    for p, ref in enumerate(refs):
        assert [piv if type(piv) is int else piv[p] for piv in fac.pivots] == ref.pivots
        for batch_row, ref_row in zip(fac.lu, ref.lu):
            assert [(v.re[p], v.im[p]) for v in batch_row] == [(v.re, v.im) for v in ref_row]
        assert [(v.re[p], v.im[p]) for v in x] == [(v.re, v.im) for v in ref.solve(rhs)]
    with pytest.raises(ValueError, match="permuted differently"):
        fac.det()


def test_cond_estimate_within_factor_of_true_condition():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(2, 10)
        rows = random_matrix(rng, n)
        est = cond_estimate(rows)
        true = np.linalg.cond(np.array(rows), 1)
        assert est <= 10 * true + 1
        assert est >= true / 10


def test_cond_estimate_is_the_exact_1_norm_condition_number():
    rng = random.Random(20241)
    for n in range(2, 13):
        for _ in range(5):
            rows = random_matrix(rng, n)
            got = cond_estimate(rows)
            ref = np.linalg.cond(np.array(rows), 1)
            assert abs(got - ref) <= 1e-10 * ref, n


def test_cond_estimate_flags_near_singular():
    eps = 1e-10
    rows = [[1 + 0j, 1 + 0j], [1 + 0j, 1 + eps + 0j]]
    assert cond_estimate(rows) > 1e9
