import random

from hypothesis import given, strategies as st

from kundunls.uniformization import k_of_z, k_prime, lambda_of_z, lambda_prime


def nonzero_complex(draw_abs_max=5.0):
    return st.complex_numbers(min_magnitude=1e-3, max_magnitude=draw_abs_max,
                              allow_nan=False, allow_infinity=False)


def test_lambda_squared_is_k_squared_plus_background():
    rng = random.Random(7)
    for _ in range(200):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) < 1e-3:
            continue
        q0 = rng.uniform(0.2, 3.0)
        lhs = lambda_of_z(z, q0) ** 2
        rhs = k_of_z(z, q0) ** 2 + q0 ** 2
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


@given(z=nonzero_complex(), q0=st.floats(0.1, 3.0))
def test_mirror_point_negates_lambda_and_keeps_k(z, q0):
    mirror = -q0 ** 2 / z
    lam, k = lambda_of_z(z, q0), k_of_z(z, q0)
    assert abs(lambda_of_z(mirror, q0) + lam) <= 1e-9 * (1 + abs(lam))
    assert abs(k_of_z(mirror, q0) - k) <= 1e-9 * (1 + abs(k))


def test_k_and_lambda_primes_match_finite_difference():
    p0 = 1.1 + 0.8j
    q0 = 1.0
    h = 1e-6
    for f, f_prime in ((k_of_z, k_prime), (lambda_of_z, lambda_prime)):
        num = (f(p0 + h, q0) - f(p0 - h, q0)) / (2 * h)
        assert abs(num - f_prime(p0, q0)) < 1e-8
