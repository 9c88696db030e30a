from types import MappingProxyType

import numpy as np
import pytest

from switchlin import controllers
from switchlin.ballbeam import benchmark_plant, symbolic_system


@pytest.fixture(scope="session")
def plant():
    return benchmark_plant()


@pytest.fixture(scope="session")
def params(plant):
    return plant.symbol_values()


@pytest.fixture(scope="session")
def bb(plant):
    return symbolic_system(plant)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def supervise(monkeypatch):
    """Substitute the supervisor's table for one test.

    ``supervise(a, b, c, d)`` gives law a to the region where the ball is out
    and the beam moving, b where only the ball is out, c where only the beam
    moves and d to the rest: the paper's supervisor is ``supervise(1, 2, 2, 3)``.
    """

    def substitute(*laws):
        regions = [(True, True), (True, False), (False, True), (False, False)]
        table = MappingProxyType(dict(zip(regions, laws, strict=True)))
        monkeypatch.setattr(controllers, "SUPERVISOR", table)

    return substitute
