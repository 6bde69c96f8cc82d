from pathlib import Path

import pytest

from kundunls import io
from kundunls.spectrum import PoleOrder, SpectralConfig

#: Spectra that no preset reaches, as config files with their grid and the
#: evolution check off; CI's console-script step and ``check_verdicts.py``
#: run ``check`` on them too.
CONFIGS = Path(__file__).with_name("configs")


@pytest.fixture
def fig2a():
    return io.load_config("fig2a").cfg


@pytest.fixture
def fig4a():
    return io.load_config("fig4a").cfg


@pytest.fixture
def fig7a():
    return io.load_config("fig7a").cfg


@pytest.fixture
def background_only():
    return SpectralConfig(q_minus=1 + 0j, epsilon=1.0, gamma0=0.0,
                          pole_order=PoleOrder.SIMPLE, eigenvalues=())


@pytest.fixture
def double_n2():
    """Two double poles: no preset holds a double pole with N > 1."""
    return io.load_config(CONFIGS / "double_n2.json").cfg


@pytest.fixture
def simple_n3():
    """Three simple poles: no preset holds more than two."""
    return io.load_config(CONFIGS / "simple_n3.json").cfg
