import pytest

from kundunls.spectrum import EigenEntry, PoleOrder, SpectralConfig


@pytest.fixture
def fig2a():
    return SpectralConfig(q_minus=1 + 0j, epsilon=0.5, gamma0=0.0,
                          pole_order=PoleOrder.SIMPLE,
                          eigenvalues=(EigenEntry(z=1.5j, A_plus=1 + 0j),))


@pytest.fixture
def fig4a():
    return SpectralConfig(q_minus=1 + 0j, epsilon=0.5, gamma0=0.0,
                          pole_order=PoleOrder.SIMPLE,
                          eigenvalues=(EigenEntry(z=0.2 + 2j, A_plus=1 + 0j),
                                       EigenEntry(z=1 + 1j, A_plus=1 + 0j)))


@pytest.fixture
def fig7a():
    return SpectralConfig(q_minus=1 + 0j, epsilon=0.5, gamma0=0.0,
                          pole_order=PoleOrder.DOUBLE,
                          eigenvalues=(EigenEntry(z=1.5j, A_plus=1 + 0j,
                                                  B_plus=1 + 0j),))


@pytest.fixture
def background_only():
    return SpectralConfig(q_minus=1 + 0j, epsilon=1.0, gamma0=0.0,
                          pole_order=PoleOrder.SIMPLE, eigenvalues=())


@pytest.fixture
def double_n2():
    """Two double poles: no preset holds a double pole with N > 1."""
    return SpectralConfig(q_minus=1 + 0j, epsilon=0.5, gamma0=0.0,
                          pole_order=PoleOrder.DOUBLE,
                          eigenvalues=(EigenEntry(z=1.5j, A_plus=1 + 0j, B_plus=1 + 0j),
                                       EigenEntry(z=0.6 + 1.8j, A_plus=0.5 - 0.3j,
                                                  B_plus=0.2j)))


@pytest.fixture
def simple_n3():
    """Three simple poles: no preset holds more than two."""
    return SpectralConfig(q_minus=1 + 0j, epsilon=0.5, gamma0=0.0,
                          pole_order=PoleOrder.SIMPLE,
                          eigenvalues=(EigenEntry(z=1.5j, A_plus=1 + 0j),
                                       EigenEntry(z=0.2 + 2j, A_plus=1 + 0j),
                                       EigenEntry(z=1 + 1j, A_plus=0.7 - 0.2j)))
