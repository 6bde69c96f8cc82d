"""Spectral-plane geometry for the scattering problem with nonzero background.

The single complex coordinate z replaces the two-sheeted surface of the
spectral parameter k.  All maps here are rational in z, so they evaluate
unchanged for builtin complex or mpmath scalars; each takes z != 0 and the
background amplitude q0 > 0, which every orbit point of a ``SpectralConfig``
has, since the config checks its data when it is constructed.
"""


def k_of_z(z, q0):
    """k(z) = (z - q0^2/z)/2."""
    return (z - q0 ** 2 / z) / 2


def lambda_of_z(z, q0):
    """lambda(z) = (z + q0^2/z)/2, the branch-free square root of k^2 + q0^2."""
    return (z + q0 ** 2 / z) / 2


def k_prime(z, q0):
    """k'(z) = (1 + q0^2/z^2)/2."""
    return (1 + q0 ** 2 / z ** 2) / 2


def lambda_prime(z, q0):
    """lambda'(z) = (1 - q0^2/z^2)/2."""
    return (1 - q0 ** 2 / z ** 2) / 2

