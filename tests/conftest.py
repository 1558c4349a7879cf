import numpy as np
import pytest

from fedrelay.scenario import paper9_scenario
from fedrelay.upper_level import solve_stackelberg

# Seed used throughout for the bundled 9-device benchmark runs.
PAPER9_SEED = 7


@pytest.fixture(scope="session")
def paper9_scen():
    return paper9_scenario(PAPER9_SEED)


@pytest.fixture(scope="session")
def paper9_report(paper9_scen):
    return solve_stackelberg(paper9_scen)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
