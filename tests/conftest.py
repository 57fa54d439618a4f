import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from markedgibbs.gibbsmc import _draw_points
from markedgibbs.lpintegrate import philox_rng
from markedgibbs.model import FiniteConfiguration, MarkSpace, ModelSpec, PositionSpace
from markedgibbs.potential import PairPotential, build_model

settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def toy_model():
    return build_model("toy-repulsive-spin", z=0.05, beta=1.0)


@pytest.fixture(scope="session")
def ideal_model():
    return build_model("ideal", z=0.05, beta=1.0)


def unstable_constant_model(z: float = 0.05) -> ModelSpec:
    """The constant pair value -1.0 under a declared B = 0, on the unit
    interval with marks +-1. E = -N(N-1)/2 falls below -B*N at large N for
    every B, so the registry refuses this model; the falsifiers must catch it."""
    def radial(r, s, t):
        return np.full(np.broadcast_shapes(np.shape(r), np.shape(s), np.shape(t)), -1.0)
    return ModelSpec(space=PositionSpace(1, (1.0,)),
                     marks=MarkSpace.discrete([1.0, -1.0], [0.5, 0.5]),
                     potential=PairPotential(name="constant", radial=radial,
                                             stability_B=0.0, params={"value": -1.0}),
                     z=z, beta=1.0)


def random_config(model, n, rng) -> FiniteConfiguration:
    return _draw_points(model, model.space.box, n, rng)


@pytest.fixture
def rng():
    return philox_rng(20240817)
