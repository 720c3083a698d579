import numpy as np
import pytest

from eqmerton import (
    CrraUtility,
    ExponentialDiscount,
    ExponentialMixtureDiscount,
    HyperbolicDiscount,
    MarketParams,
    TimeGrid,
)
from eqmerton.rqmc import BrownianBridge


@pytest.fixture(scope="session")
def market():
    return MarketParams(r=0.05, alpha=0.12, sigma=0.2)


@pytest.fixture(scope="session")
def utility():
    return CrraUtility(p=0.5)


@pytest.fixture(scope="session")
def grid():
    return TimeGrid(horizon=1.0, n_steps=1000)


@pytest.fixture(scope="session")
def coarse_grid():
    return TimeGrid(horizon=1.0, n_steps=200)


@pytest.fixture(scope="session")
def exp_discount():
    return ExponentialDiscount(rho=0.1)


@pytest.fixture(scope="session")
def mix_discount():
    return ExponentialMixtureDiscount(betas=(0.4, 0.6), rhos=(0.05, 0.5))


@pytest.fixture(scope="session")
def hyp_discount():
    return HyperbolicDiscount(k=1.0, gamma=1.0)


@pytest.fixture(scope="session")
def all_discounts(exp_discount, mix_discount, hyp_discount):
    return {
        "exponential": exp_discount,
        "mixture": mix_discount,
        "hyperbolic": hyp_discount,
    }


@pytest.fixture
def chord_matrices(monkeypatch):
    """A list that gains an entry each time ``BrownianBridge.chords`` forms
    the chords at every node, a chord matrix; reads at given nodes, which
    every pass may make, are not counted."""
    calls = []
    chords = BrownianBridge.chords

    def spy(bridge, Wc, nodes=slice(None), out=None):
        if np.size(np.arange(bridge.n_steps + 1)[nodes]) == bridge.n_steps + 1:
            calls.append(bridge.n_steps)
        return chords(bridge, Wc, nodes, out)

    monkeypatch.setattr(BrownianBridge, "chords", spy)
    return calls
